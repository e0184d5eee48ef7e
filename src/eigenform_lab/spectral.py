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
positive on the relevant block, so convergence is geometric.  The limiting
projection coefficient is a linear functional of the data, the left Perron
vector, and comes from one linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _perron_pair(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of an entrywise positive matrix, the vector at unit
    length."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(_POWER_MAX_ITER):
        y = matrix @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise InternalConsistencyError("positive operator annihilated a positive vector")
        y /= norm
        if np.max(np.abs(y - x)) < POWER_TOL:
            x = y
            break
        x = y
    else:
        return _perron_dense(matrix)
    value = float(x @ (matrix @ x))
    return x, value


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


def _perron_on(matrix: np.ndarray, idx: list[int], where: str) -> tuple[np.ndarray, float]:
    """Perron pair of the block of ``matrix`` on ``idx``, sup-normalized on ``idx``."""
    block = matrix[np.ix_(idx, idx)]
    if block.min() <= 0.0:
        raise InternalConsistencyError(f"{where} is not entrywise positive")
    small, value = _perron_pair(block)
    small = small / np.max(np.abs(small))
    if small.min() <= 1e-12:
        raise InternalConsistencyError(
            f"Perron vector is not strictly positive: {small}"
        )
    vec = np.zeros(matrix.shape[0])
    vec[idx] = small
    vec.flags.writeable = False
    return vec, value


def perron_positive(cache: OperatorCache, j: int) -> tuple[np.ndarray, float]:
    """Perron pair of the cell-``j`` operator on data vanishing at ``j``.

    Requires a positive form (every pair coefficient above the zero
    threshold); then the operator restricted to the complementary coordinates
    is entrywise positive and the pair is unique.
    """
    if not _support_mask(cache.form).all():
        raise ValueError("perron_positive requires a positive form")
    others = [p for p in range(cache.triple.N) if p != j]
    return _perron_on(cache.ops[j], others, f"restricted cell operator at j={j}")


def perron_component(cache: OperatorCache, comp: ComponentData, s: int) -> PerronData:
    """Perron data of component ``s`` at the boundary vertex ``comp.j``.

    The operator power matching the component period, cut down to the
    surviving coordinates, must be entrywise positive; anything else is an
    internal-consistency failure.
    """
    j, n = comp.j, cache.triple.N
    period = comp.periods[s]
    power = cache.word((j,) * period)
    where = f"component-restricted operator at (j={j}, s={s})"
    u_bar, value = _perron_on(power, list(comp.c_prime[s]), where)

    u_tilde = power @ u_bar
    inside = np.zeros(n, dtype=bool)
    inside[list(comp.components[s])] = True
    stray = np.max(np.abs(u_tilde[~inside]), initial=0.0)
    if stray > 1e-10 * np.max(np.abs(u_tilde)):
        raise InternalConsistencyError(
            f"iterate at (j={j}, s={s}) leaks outside its component by {stray}"
        )
    u_tilde[~inside] = 0.0
    if u_tilde[inside].min() <= 0.0:
        raise InternalConsistencyError(
            f"iterate at (j={j}, s={s}) is not positive on its component"
        )
    u_tilde.flags.writeable = False
    return PerronData(
        j=j, s=s, period=period, u_bar=u_bar, u_tilde=u_tilde, eigenvalue=value
    )


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
    block = cache.word((pdata.j,) * pdata.period)[np.ix_(inside, inside)]
    tilde = pdata.u_tilde[inside]
    m = tilde.size
    bordered = np.vstack([block.T - pdata.eigenvalue * np.eye(m), tilde])
    left = np.linalg.lstsq(bordered, np.append(np.zeros(m), 1.0))[0]
    return float(left @ u[inside])
