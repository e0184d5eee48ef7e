"""Energy-minimizing extension and the induced map on boundary forms.

Placing a weighted copy of a boundary form on every cell turns the first-level
vertex set into a conductance network.  Minimizing the network energy over all
extensions of given boundary data is a linear solve against the interior block
of the network Laplacian; reading the minimum energy back as a quadratic form
in the boundary data is the Schur complement of that Laplacian onto the
boundary.  Restricting the minimizer to a single cell gives a small
stochastic boundary-to-boundary map.  ``OperatorCache`` makes the one interior
solve for boundary data of a (triple, form, weights) context and keeps the k
cell maps and the Schur block; the eigenform search, ``renormalize`` and the
stability analysis take it from a slot holding the context built last, so
checking the form the search returned reuses its last solve.

Every interior solve goes through one helper: a check that each free vertex
shares a connected component with a fixed one, naming the first that does not,
then dense LU with partial pivoting.  The components depend only on which
(cell, pair) slots carry conductance, so they are labelled once per (triple,
pattern) and cached.  A dense solve of several hundred interior vertices (the
level-m composites) still costs milliseconds and is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._graphutil import adjacency, split_components
from .errors import InternalConsistencyError, SingularInteriorError
from .forms import COEFF_EPS, DirichletForm, _pair_index, _vertex_data, energy, pair_list
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


@functools.lru_cache(maxsize=32)
def _component_labels(triple: FractalTriple, live: bytes) -> tuple[int, ...]:
    """Component label of every network vertex when the ``_pair_images`` slots
    flagged in the boolean mask ``live`` carry conductance.  Cached per
    (triple, pattern): the pattern stays put while the solver iterates."""
    nv = triple.num_vertices
    edges = _pair_images(triple)[np.frombuffer(live, dtype=bool)].tolist()
    comps = split_components(range(nv), adjacency(nv, edges))
    owner = {v: c for c, comp in enumerate(comps) for v in comp}
    return tuple(owner[v] for v in range(nv))


def _solve_interior(
    triple: FractalTriple,
    lap: np.ndarray,
    free: Sequence[int],
    fixed: Sequence[int],
    block: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """``solve(block, rhs)``, ``block`` being the free block ``L_FF`` of the
    network Laplacian, once every free vertex is known to reach a fixed one."""
    pq = _pair_images(triple)
    labels = _component_labels(triple, (lap[pq[:, 0], pq[:, 1]] != 0.0).tobytes())
    reached = {labels[v] for v in fixed}
    for v in free:
        if labels[v] not in reached:
            raise SingularInteriorError(v)
    try:
        return np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        # reachability held, so this is numerical breakdown rather than a
        # disconnected vertex; report the first free vertex
        raise SingularInteriorError(free[0], "interior block is numerically singular")


def one_step_energy(triple: FractalTriple, form: DirichletForm, weights, v) -> float:
    """Weighted sum of the form over all cell restrictions of first-level data."""
    r = check_weights(triple, weights)
    v = _vertex_data(v, triple.num_vertices)
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
        triple, lap, free, fixed, lap[np.ix_(free, free)], -(lap[np.ix_(free, fixed)] @ fixed_vals)
    )
    values.flags.writeable = False
    return ExtensionResult(values, one_step_energy(triple, form, weights, values))


def harmonic_extension(
    triple: FractalTriple, form: DirichletForm, weights, u
) -> ExtensionResult:
    """Unique extension of boundary data minimizing the one-step energy."""
    u = _vertex_data(u, triple.N)
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
    return _context(triple, form, weights).image


class OperatorCache:
    """The interior solve of one (triple, form, weights) context, read-only.

    ``ops`` stacks the k cell operators into one ``(k, N, N)`` array: row
    ``p`` of operator ``i`` gives the minimizing extension at the image of
    boundary vertex ``p`` in cell ``i`` as a function of the boundary data
    (rows sum to one), and ``word`` multiplies them on demand.  ``schur`` is
    the Schur complement onto the boundary, ``image`` (computed on first
    read) the renormalized form, ``weights`` a copy of the checked weights.
    """

    def __init__(self, triple: FractalTriple, form: DirichletForm, weights):
        self.triple = triple
        self.form = form
        self.weights = np.array(check_weights(triple, weights))
        self.weights.flags.writeable = False
        lap = conductance_laplacian(triple, form, self.weights)
        n = triple.N
        # column p: interior values of the minimizing extension of the unit
        # vector at boundary vertex p; boundary ids come first, so blocks slice
        ext = _solve_interior(
            triple, lap, range(n, triple.num_vertices), range(n), lap[n:, n:], -lap[n:, :n]
        )
        # boundary data to the full minimizing extension: [I; ext], per cell
        self.ops = np.vstack([np.eye(n), ext])[np.array(triple.cells)]
        self.schur = lap[:n, :n] + lap[n:, :n].T @ ext
        self.ops.flags.writeable = self.schur.flags.writeable = False

    def matches(self, triple: FractalTriple, form: DirichletForm, weights: np.ndarray) -> bool:
        """Whether this is the context of ``triple``, ``form`` and the checked
        ``weights``, by value."""
        return (
            self.triple == triple
            and np.array_equal(self.form.matrix(), form.matrix())
            and np.array_equal(self.weights, weights)
        )

    @functools.cached_property
    def image(self) -> DirichletForm:
        """The renormalized form, read off the Schur off-diagonals."""
        rows, cols = _pair_index(self.triple.N)
        off = -self.schur[rows, cols]
        bad = np.flatnonzero(off < -COEFF_EPS * np.max(np.abs(off)))
        if bad.size:
            i = bad[0]
            raise InternalConsistencyError(
                f"renormalized coefficient for pair ({rows[i]},{cols[i]}) is negative: {off[i]}"
            )
        bad = np.flatnonzero(~np.isfinite(off))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"coefficient for pair ({rows[i]}, {cols[i]}) must be finite and >= 0, got {off[i]}"
            )
        return DirichletForm._from_vector(self.triple.N, np.maximum(off, 0.0))

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


# Search, verification and stability analysis read one final form in that
# order, so one slot lets each stage reuse the interior solve of the one before.
_last: OperatorCache | None = None


def _context(triple: FractalTriple, form: DirichletForm, weights) -> OperatorCache:
    """The slot's ``OperatorCache`` if it matches by value, else a new one."""
    global _last
    r = check_weights(triple, weights)
    if _last is None or not _last.matches(triple, form, r):
        _last = OperatorCache(triple, form, r)
    return _last
