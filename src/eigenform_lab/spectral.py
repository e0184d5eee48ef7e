"""Perron data of the cell operators.

For each boundary vertex the associated cell operator (or the power matching
the component period) acts as a strictly positive matrix on a distinguished
coordinate block; its Perron pair and the pushed-forward eigenvector on the
full component feed the stability analysis.

Every function here reads the cell operators of one ``OperatorCache``, its
first argument, which also carries the triple and form they belong to.

Eigenvectors are normalized to sup-norm one with positive entries.  Perron
pairs come from power iteration with a Rayleigh-quotient eigenvalue, falling
back to a dense eigensolver on stagnation; the matrices are tiny and strictly
positive on the relevant block, so convergence is geometric.
One pass finds the Perron pairs a stability digraph needs: its nodes' blocks
and, for a positive form, the cross-check's per-vertex blocks are cut at
once, each from its own cached operator or power, grouped by size and
iterated in lockstep, one BLAS product per block, so each block gets the
bits it would get alone, and the checks run as array operations; a failure
is raised for the first failing node, then for the first failing vertex.
``perron_component`` (every node) and ``perron_positive`` (every vertex)
are that pass with one side empty.

The limiting projection coefficient of the paper, the left Perron vector
applied to the data, is a proof device with no part in the decision; it is
computed only in the test suite (``tests/oracles.py``).
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
    mats: np.ndarray, cuts, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Perron pairs of the blocks of ``mats[i]`` on ``cuts[i]``, one per item.

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
        blocks = mats[items[:, None, None], cut[:, :, None], cut[:, None, :]]
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


def _perron_pass(
    cache: OperatorCache, nodes: Sequence[tuple[ComponentData, int]], js: Sequence[int]
) -> tuple[list[PerronData], list[tuple[np.ndarray, float]]]:
    """Perron data of every node ``(comp, s)`` and Perron pair of every vertex
    of ``js`` on data vanishing there, from one ``_perron_blocks`` call.

    One matrix per item, in item order: a node's power, read from
    ``cache.power``, and a vertex's own cell operator from ``cache.ops``, so
    each item gets the bits it would get alone.  Every node failure, its
    block checks and then the pushed-forward iterate's checks, is raised
    before any vertex failure.
    """
    count, n = len(nodes), cache.triple.N
    mats = np.array(
        [cache.power(comp.j, comp.periods[s]) for comp, s in nodes] + [cache.ops[j] for j in js]
    ).reshape(-1, n, n)

    def where(i: int) -> str:
        if i < count:
            return f"component-restricted operator at (j={nodes[i][0].j}, s={nodes[i][1]})"
        return f"restricted cell operator at j={js[i - count]}"

    vecs, values, errors = _perron_blocks(
        mats,
        [comp.c_prime[s] for comp, s in nodes] + [[p for p in range(n) if p != j] for j in js],
        where,
    )
    u_bar = vecs[:count]
    u_tilde = (mats[:count] @ u_bar[:, :, None])[:, :, 0]
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
            j, s = nodes[i][0].j, nodes[i][1]
            errors[i] = (
                f"iterate at (j={j}, s={s}) leaks outside its component by {stray[i]}"
                if leak[i]
                else f"iterate at (j={j}, s={s}) is not positive on its component"
            )
    _raise_first(errors)
    vecs.flags.writeable = False
    u_tilde.flags.writeable = False
    node_values, vertex_values = values[:count].tolist(), values[count:].tolist()
    perron = [
        PerronData(
            j=comp.j,
            s=s,
            period=comp.periods[s],
            u_bar=u_bar[i],
            u_tilde=u_tilde[i],
            eigenvalue=value,
        )
        for i, ((comp, s), value) in enumerate(zip(nodes, node_values))
    ]
    return perron, list(zip(vecs[count:], vertex_values))


def perron_positive(cache: OperatorCache, js: Sequence[int]) -> list[tuple[np.ndarray, float]]:
    """Perron pair of the cell-``j`` operator on data vanishing at ``j``, for
    every vertex ``j`` of ``js``, in one pass.

    Requires a positive form (every pair coefficient above the zero
    threshold); then the operator restricted to the complementary coordinates
    is entrywise positive and the pair is unique.
    """
    if not _support_mask(cache.form).all():
        raise ValueError("perron_positive requires a positive form")
    return _perron_pass(cache, [], js)[1]


def perron_component(
    cache: OperatorCache, nodes: Sequence[tuple[ComponentData, int]]
) -> list[PerronData]:
    """Perron data of every node ``(comp, s)``, component ``s`` at the
    boundary vertex ``comp.j``, in one pass.

    The operator power matching the component period, cut down to the
    surviving coordinates, must be entrywise positive, and its Perron vector
    pushed through the power must stay on the component and be positive
    there; anything else is an internal-consistency failure, raised for the
    first failing node in node order.
    """
    return _perron_pass(cache, nodes, [])[0]
