"""Perron data of the cell operators.

For each boundary vertex the associated cell operator (or the power matching
the component period) acts as a strictly positive matrix on a distinguished
coordinate block; its Perron pair, the pushed-forward eigenvector on the full
component, and the limiting projection coefficient of arbitrary data feed the
stability analysis.

Every function here reads the cell operators of one ``OperatorCache``, its
first argument, which also carries the triple and form they belong to.

Eigenvectors are normalized to sup-norm one with positive entries.  Perron
pairs come from power iteration with a Rayleigh-quotient eigenvalue, falling
back to a dense eigensolver on stagnation; the matrices are tiny and strictly
positive on the relevant block, so convergence is geometric.
``perron_component`` takes every node of a digraph and ``perron_positive``
every vertex in one call: their blocks are cut at once, grouped by size and
iterated in lockstep, one BLAS product per block, so each block gets the
bits it would get alone, and the checks run as array operations; a failure
is raised for the first failing item.

The limiting projection coefficient is a linear functional of the data, the
left Perron vector, and comes from one linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InternalConsistencyError
from .forms import _support_mask
from .graphs import ComponentData
from .renorm import OperatorCache

__all__ = [
    "PerronData",
    "perron_component",
    "perron_positive",
    "pi_limit",
    "project_g",
    "project_g_tilde",
]

POWER_TOL = 1e-13
_POWER_MAX_ITER = 20000


@dataclass(frozen=True)
class PerronData:
    """Perron pair of one (vertex, component) node.

    ``u_bar`` is supported on the surviving part of the component and strictly
    positive there, sup-norm one.  ``u_tilde`` is its image under the
    period-th operator power: strictly positive on the whole component, an
    eigenvector of that power with the stored eigenvalue.
    """

    j: int
    s: int
    period: int
    u_bar: np.ndarray
    u_tilde: np.ndarray
    eigenvalue: float


def _perron_dense(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    values, vectors = np.linalg.eig(matrix)
    idx = int(np.argmax(np.abs(values)))
    value = values[idx]
    vec = vectors[:, idx]
    if abs(value.imag) > 1e-10 * max(abs(value), 1.0):
        raise InternalConsistencyError("dominant eigenvalue is not real")
    vec = np.real(vec)
    if vec.sum() < 0:
        vec = -vec
    return vec / np.linalg.norm(vec), float(value.real)


def _perron_blocks(
    mats: np.ndarray, which, cuts, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Perron pairs of the blocks of ``mats[which[i]]`` on ``cuts[i]``, one
    per item.

    Returns the vectors as an ``(S, N)`` stack, each sup-normalized on its
    cut and zero off it, their eigenvalues, and per item the message of the
    first check it fails (``where(i)`` names item ``i``'s block) or None.

    Blocks are grouped by size, with no padding, and each group runs power
    iteration in lockstep from the unit vector of equal entries; a block
    leaves the group when its own step moves it less than ``POWER_TOL``, and
    one still moving after ``_POWER_MAX_ITER`` steps goes to the dense
    eigensolver.  Every product is one BLAS call per block (``gemv`` for a
    block times a vector, ``dot`` for a norm or a Rayleigh quotient, which a
    row-wise ``np.linalg.norm`` would sum in another order), so each block
    runs the iterates and takes the steps it would alone.
    """
    which = np.asarray(which, dtype=np.intp)
    count, n = len(cuts), mats.shape[-1]
    vecs = np.zeros((count, n))
    values = np.zeros(count)
    errors: list[str | None] = [None] * count
    by_size: dict[int, list[int]] = {}
    for i, cut in enumerate(cuts):
        by_size.setdefault(len(cut), []).append(i)
    for m, group in by_size.items():
        items = np.array(group)
        cut = np.array([cuts[i] for i in group], dtype=np.intp).reshape(len(group), m)
        blocks = mats[which[items, None, None], cut[:, :, None], cut[:, None, :]]
        ok = ~(blocks.min(axis=(1, 2)) <= 0.0)
        for g in np.flatnonzero(~ok).tolist():
            errors[group[g]] = f"{where(group[g])} is not entrywise positive"
        vec = np.zeros((len(group), m))
        live = np.flatnonzero(ok)
        step = blocks[live]
        x = np.full((live.size, m), 1.0 / np.sqrt(m))
        for _ in range(_POWER_MAX_ITER):
            if not live.size:
                break
            y = (step @ x[:, :, None])[:, :, 0]
            norm = np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0])
            if not norm.all():
                for g in live[norm == 0.0].tolist():
                    errors[group[g]] = "positive operator annihilated a positive vector"
                    ok[g] = False
                keep = norm != 0.0
                live, step, x, y, norm = live[keep], step[keep], x[keep], y[keep], norm[keep]
            y /= norm[:, None]
            done = abs(y - x).max(axis=1) < POWER_TOL
            vec[live[done]] = y[done]
            live, step, x = live[~done], step[~done], y[~done]
        val = (vec[:, None, :] @ (blocks @ vec[:, :, None]))[:, 0, 0]
        for g in live.tolist():
            vec[g], val[g] = _perron_dense(blocks[g])
        good = np.flatnonzero(ok)
        small = vec[good] / abs(vec[good]).max(axis=1)[:, None]
        for g in np.flatnonzero(small.min(axis=1) <= 1e-12).tolist():
            errors[group[good[g]]] = f"Perron vector is not strictly positive: {small[g]}"
        vecs[items[good, None], cut[good]] = small
        values[items[good]] = val[good]
    return vecs, values, errors


def _raise_first(errors: Sequence[str | None]) -> None:
    """Raise the first item's failure, in item order, if any item failed."""
    for message in errors:
        if message is not None:
            raise InternalConsistencyError(message)


def perron_positive(cache: OperatorCache, js: Sequence[int]) -> list[tuple[np.ndarray, float]]:
    """Perron pair of the cell-``j`` operator on data vanishing at ``j``, for
    every vertex ``j`` of ``js``, in one pass.

    Requires a positive form (every pair coefficient above the zero
    threshold); then the operator restricted to the complementary coordinates
    is entrywise positive and the pair is unique.
    """
    if not _support_mask(cache.form).all():
        raise ValueError("perron_positive requires a positive form")
    n = cache.triple.N
    cuts = [[p for p in range(n) if p != j] for j in js]
    vecs, values, errors = _perron_blocks(
        cache.ops, js, cuts, lambda i: f"restricted cell operator at j={js[i]}"
    )
    _raise_first(errors)
    vecs.flags.writeable = False
    return list(zip(vecs, values.tolist()))


def perron_component(
    cache: OperatorCache, nodes: Sequence[tuple[ComponentData, int]]
) -> list[PerronData]:
    """Perron data of every node ``(comp, s)``, component ``s`` at the
    boundary vertex ``comp.j``, in one pass.

    The operator power matching the component period, cut down to the
    surviving coordinates, must be entrywise positive, and its Perron vector
    pushed through the power must stay on the component and be positive
    there; anything else is an internal-consistency failure, raised for the
    first failing node in node order.  Each distinct power is read once,
    from ``cache.power``.
    """
    keys = [(comp.j, comp.periods[s]) for comp, s in nodes]
    slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    powers = np.array([cache.power(j, period) for j, period in slot])
    which = [slot[key] for key in keys]
    u_bar, values, errors = _perron_blocks(
        powers,
        which,
        [comp.c_prime[s] for comp, s in nodes],
        lambda i: f"component-restricted operator at (j={keys[i][0]}, s={nodes[i][1]})",
    )

    u_tilde = (powers[which] @ u_bar[:, :, None])[:, :, 0]
    inside = np.zeros(u_tilde.shape, dtype=bool)
    members = [comp.components[s] for comp, s in nodes]
    inside[[i for i, c in enumerate(members) for _ in c], [v for c in members for v in c]] = True
    size = np.abs(u_tilde)
    stray = np.where(inside, 0.0, size).max(axis=1)
    leak = stray > 1e-10 * size.max(axis=1)
    u_tilde[~inside] = 0.0
    low = np.where(inside, u_tilde, np.inf).min(axis=1) <= 0.0
    for i in np.flatnonzero(leak | low).tolist():
        if errors[i] is None:
            j, s = keys[i][0], nodes[i][1]
            errors[i] = (
                f"iterate at (j={j}, s={s}) leaks outside its component by {stray[i]}"
                if leak[i]
                else f"iterate at (j={j}, s={s}) is not positive on its component"
            )
    _raise_first(errors)
    u_bar.flags.writeable = False
    u_tilde.flags.writeable = False
    return [
        PerronData(
            j=comp.j,
            s=s,
            period=comp.periods[s],
            u_bar=u_bar[i],
            u_tilde=u_tilde[i],
            eigenvalue=value,
        )
        for i, ((comp, s), value) in enumerate(zip(nodes, values.tolist()))
    ]


def project_g(u, comp: ComponentData, s: int) -> np.ndarray:
    """Shift by the value at the pivot vertex, then mask to component ``s``."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    idx = list(comp.components[s])
    out[idx] = u[idx] - u[comp.j]
    return out


def project_g_tilde(u, comp: ComponentData, s: int) -> np.ndarray:
    """Mask to the surviving part of component ``s``."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    idx = list(comp.c_prime[s])
    out[idx] = u[idx]
    return out


def pi_limit(cache: OperatorCache, pdata: PerronData, u) -> float:
    """Limiting coefficient of data along the component eigenvector.

    The period-th operator power divided by its eigenvalue, applied over and
    over, carries data on the component ``C`` (the support of ``u_tilde``)
    towards a multiple of ``u_tilde``; the multiple is ``l @ u[C]``, with
    ``l`` the left Perron vector of the power restricted to ``C``, scaled so
    that ``l @ u_tilde[C] == 1``.  It solves the bordered system
    ``[P_CC^T - lambda I ; u_tilde[C]^T] l = [0 ; 1]`` by least squares.
    The input must be supported on the component.
    """
    u = np.asarray(u, dtype=float)
    inside = pdata.u_tilde > 0.0
    stray = np.max(np.abs(u[~inside]), initial=0.0)
    if stray > 1e-9 * max(np.max(np.abs(u)), 1e-300):
        raise ValueError("data must be supported on the component")
    block = cache.power(pdata.j, pdata.period)[np.ix_(inside, inside)]
    tilde = pdata.u_tilde[inside]
    m = tilde.size
    bordered = np.vstack([block.T - pdata.eigenvalue * np.eye(m), tilde])
    left = np.linalg.lstsq(bordered, np.append(np.zeros(m), 1.0))[0]
    return float(left @ u[inside])
