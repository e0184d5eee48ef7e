"""Energy-minimizing extension and the induced map on boundary forms.

Placing a weighted copy of a boundary form on every cell turns the first-level
vertex set into a conductance network.  Minimizing the network energy over all
extensions of given boundary data is a linear solve against the interior block
of the network Laplacian; reading the minimum energy back as a quadratic form
in the boundary data is the Schur complement of that Laplacian onto the
boundary.  The boundary-to-boundary maps obtained by restricting the minimizer
to a single cell are small stochastic matrices and are cached per
(form, weights) pair, since every composite map is a product of them.

Every interior solve goes through one helper: a reachability check that names
the offending vertex, then dense LU with partial pivoting.  The interior block
has a handful of vertices on the built-ins and several hundred on level-m
composites; a dense solve at that size still costs milliseconds and keeps the
results deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._graphutil import adjacency
from .errors import InternalConsistencyError, SingularInteriorError
from .forms import COEFF_EPS, DirichletForm, energy, pair_list
from .fractal import FractalTriple, check_weights

__all__ = [
    "ExtensionResult",
    "OperatorCache",
    "conductance_laplacian",
    "constrained_extension",
    "harmonic_extension",
    "one_step_energy",
    "renormalize",
]


@dataclass(frozen=True)
class ExtensionResult:
    """Minimizing extension over the first-level vertices.

    ``values[v]`` is the extension at vertex id ``v``; ``achieved_energy`` is
    the one-step energy of that extension.
    """

    values: np.ndarray
    achieved_energy: float


_SLOT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@functools.lru_cache(maxsize=32)
def _pair_images(triple: FractalTriple) -> np.ndarray:
    """Vertex ids ``[p, q]`` of every pair image inside every cell, one row
    per (cell, pair), cell by cell and in ``pair_list`` order within a cell.
    These are the only vertex pairs that can carry conductance.

    Cached per triple (read-only): the solver renormalizes the same triple
    hundreds of times, and on small networks building this array again
    would cost as much as the Laplacian itself."""
    pairs = np.array(pair_list(triple.N))
    out = np.array(triple.cells)[:, pairs].reshape(-1, 2)
    out.flags.writeable = False
    return out


def conductance_laplacian(
    triple: FractalTriple, form: DirichletForm, weights
) -> np.ndarray:
    """Weighted graph Laplacian of the first-level conductance network.

    Each pair coefficient of the form, scaled by the cell weight, becomes a
    conductance on the image of that pair inside the cell; parallel edges
    from different cells accumulate additively.
    """
    r = check_weights(triple, weights)
    nv = triple.num_vertices
    pq = _pair_images(triple)
    w = (r[:, None] * form.vector()).reshape(-1, 1)
    # slots (p,p), (q,q), (p,q), (q,p) of each conductance.  bincount adds in
    # input order, so every entry sums cell by cell, pair by pair, and rounds
    # the same on every run; zero conductances add zeros and change nothing.
    slots = pq[:, [0, 1, 0, 1]] * nv + pq[:, [0, 1, 1, 0]]
    terms = w * _SLOT_SIGNS
    return np.bincount(slots.ravel(), weights=terms.ravel(), minlength=nv * nv).reshape(nv, nv)


def _check_reachable(
    triple: FractalTriple, lap: np.ndarray, free: Sequence[int], fixed: Sequence[int]
):
    """Every free vertex must reach a fixed vertex through positive
    conductances, otherwise the free block is singular."""
    pq = _pair_images(triple)
    adj = adjacency(lap.shape[0], pq[lap[pq[:, 0], pq[:, 1]] != 0.0].tolist())
    seen = set(fixed)
    stack = list(fixed)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    for v in free:
        if v not in seen:
            raise SingularInteriorError(v)


def _solve_interior(
    triple: FractalTriple,
    lap: np.ndarray,
    free: Sequence[int],
    fixed: Sequence[int],
    rhs: np.ndarray,
) -> np.ndarray:
    """``solve(L_FF, rhs)`` on the free block of the network Laplacian, once
    every free vertex is known to reach a fixed one."""
    _check_reachable(triple, lap, free, fixed)
    try:
        return np.linalg.solve(lap[np.ix_(free, free)], rhs)
    except np.linalg.LinAlgError:
        # reachability held, so this is numerical breakdown rather than a
        # disconnected vertex; report the first free vertex
        raise SingularInteriorError(free[0], "interior block is numerically singular")


def one_step_energy(triple: FractalTriple, form: DirichletForm, weights, v) -> float:
    """Weighted sum of the form over all cell restrictions of first-level data."""
    r = check_weights(triple, weights)
    v = np.asarray(v, dtype=float)
    if v.shape != (triple.num_vertices,):
        raise ValueError(
            f"expected data on {triple.num_vertices} vertices, got shape {v.shape}"
        )
    return float(
        sum(r[i] * energy(form, v[np.array(cell)]) for i, cell in enumerate(triple.cells))
    )


def _extension(
    triple: FractalTriple, form: DirichletForm, weights, fixed: Sequence[int], fixed_vals
) -> ExtensionResult:
    """Energy minimizer among first-level data taking ``fixed_vals`` on the
    sorted vertex ids ``fixed``."""
    pinned = set(fixed)
    free = [v for v in range(triple.num_vertices) if v not in pinned]
    lap = conductance_laplacian(triple, form, weights)
    values = np.empty(triple.num_vertices)
    values[fixed] = fixed_vals
    values[free] = _solve_interior(
        triple, lap, free, fixed, -(lap[np.ix_(free, fixed)] @ fixed_vals)
    )
    values.flags.writeable = False
    return ExtensionResult(values, one_step_energy(triple, form, weights, values))


def harmonic_extension(
    triple: FractalTriple, form: DirichletForm, weights, u
) -> ExtensionResult:
    """Unique extension of boundary data minimizing the one-step energy."""
    u = np.asarray(u, dtype=float)
    if u.shape != (triple.N,):
        raise ValueError(f"expected boundary data of length {triple.N}, got {u.shape}")
    return _extension(triple, form, weights, list(range(triple.N)), u)


def constrained_extension(
    triple: FractalTriple, form: DirichletForm, weights, fixed: Mapping[int, float]
) -> ExtensionResult:
    """Energy minimizer among first-level data agreeing with ``fixed``."""
    if not fixed:
        raise ValueError("the fixed-value map must be nonempty")
    fixed_ids = sorted(int(v) for v in fixed)
    for v in fixed_ids:
        if not 0 <= v < triple.num_vertices:
            raise ValueError(f"fixed vertex id {v} out of range")
    fixed_vals = np.array([float(fixed[v]) for v in fixed_ids])
    return _extension(triple, form, weights, fixed_ids, fixed_vals)


def renormalize(triple: FractalTriple, form: DirichletForm, weights) -> DirichletForm:
    """Boundary form whose value on any data is the minimal one-step energy.

    Coefficients are read off the Schur complement of the first-level network
    Laplacian onto the boundary block.  Schur off-diagonals in
    ``[-COEFF_EPS * max, 0]`` are clamped to zero: structural zeros of the
    stable support pick up only round-off there.
    """
    lap = conductance_laplacian(triple, form, weights)
    n = triple.N
    boundary = list(range(n))
    free = list(range(n, triple.num_vertices))
    b = lap[np.ix_(free, boundary)]
    s = lap[np.ix_(boundary, boundary)] - b.T @ _solve_interior(triple, lap, free, boundary, b)
    coeffs = {}
    off = [-s[a_, b_] for a_, b_ in pair_list(n)]
    scale = max((abs(x) for x in off), default=0.0)
    for (a_, b_), c in zip(pair_list(n), off):
        if c < -COEFF_EPS * scale:
            raise InternalConsistencyError(
                f"renormalized coefficient for pair ({a_},{b_}) is negative: {c}"
            )
        coeffs[(a_, b_)] = max(c, 0.0)
    return DirichletForm(n, coeffs)


class OperatorCache:
    """All cell operators for one (triple, form, weights) context.

    Built once, read-only afterwards.  Row ``p`` of the cell-``i`` operator
    expresses the minimizing extension, read at the image of boundary vertex
    ``p`` inside cell ``i``, as a linear function of the boundary data; rows
    sum to one.

    ``ops`` stacks the operators into one read-only ``(k, N, N)`` array, so
    ``ops @ u`` gives the images of ``u`` under every cell at once.
    """

    def __init__(self, triple: FractalTriple, form: DirichletForm, weights):
        self.triple = triple
        self.form = form
        self.weights = check_weights(triple, weights)
        lap = conductance_laplacian(triple, form, self.weights)
        n = triple.N
        boundary = list(range(n))
        free = list(range(n, triple.num_vertices))
        # boundary data to the full minimizing extension: [I; -L_FF^-1 L_FB]
        ext = np.vstack(
            [np.eye(n), _solve_interior(triple, lap, free, boundary, -lap[np.ix_(free, boundary)])]
        )
        self.ops = ext[np.array(triple.cells)]
        self.ops.flags.writeable = False

    def cell(self, i: int) -> np.ndarray:
        return self.ops[i]

    def word(self, word: Iterable[int]) -> np.ndarray:
        """Product of cell operators, first index applied last (outermost).

        The empty word gives the identity.  Under level composition the
        composite map of the word ``(i1, ..., in)`` read as a single n-level
        cell applies the single-cell maps in the opposite order; only the
        direct composition order is exposed here.
        """
        out = np.eye(self.triple.N)
        for i in word:
            out = out @ self.ops[i]
        return out
