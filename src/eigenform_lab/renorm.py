"""Energy-minimizing extension and the induced map on boundary forms.

Placing a weighted copy of a boundary form on every cell turns the first-level
vertex set into a conductance network.  Minimizing the network energy over all
extensions of given boundary data is a linear solve against the interior block
of the network Laplacian; reading the minimum energy back as a quadratic form
in the boundary data is the Schur complement of that Laplacian onto the
boundary.  Restricting the minimizer to a single cell gives a small
stochastic boundary-to-boundary map.  ``OperatorCache`` checks a (triple,
form, weights) context, makes its one interior solve for boundary data and
keeps the k cell maps and the Schur block.  Each eigenform search step builds
one and reads the image coefficients off its Schur block; the search puts
the context of the form it returns in a one-context slot, which
``renormalize`` and the stability analysis look up by value, so checking
that form reuses the search's last solve.  The slot only ever holds a
finished context.

Every interior solve is a Kron reduction of the network onto a set of fixed
vertices: the boundary, for the library; the extension oracles of the test
suite fix other sets through ``_extend``.  Its symbolic schedule depends
only on which (cell, pair) slots carry conductance and on the fixed ids, so it
is built once per (triple, pattern, fixed ids) and cached.  Building it
labels the components of the conductance network in one array pass
(``_graphutil.labels``) and names the lowest-id free vertex whose component
holds no fixed vertex; on networks with many free vertices it also lists
elimination rounds, each one independent set of low-degree vertices.  A
round takes GTH pivots: a pivot is the sum of the vertex's current
conductances and each fill adds ``c_va * c_vb / d_v``, so the rounds never
subtract.  Dense LU with partial pivoting then solves the core that is left,
and back-substitution in reverse round order writes each eliminated vertex
as a convex combination of its neighbours.  The reduction runs at the exact
power-of-two scale that puts the largest conductance into [0.5, 1), so forms
at either end of the float range neither overflow nor turn to NaN, and in
range no bit changes.  On the level-m composites the rounds leave 8 of 484
free vertices (tree_gasket^5), 22 of 372 (vicsek^3) and 182 of 363
(gasket^5); networks below 129 free vertices go straight to LU.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

import numpy as np

from ._graphutil import labels, pair_index
from .errors import InternalConsistencyError, SingularInteriorError
from .forms import COEFF_EPS, DirichletForm, _exponent, pair_list
from .fractal import FractalTriple, check_weights

__all__ = [
    "OperatorCache",
    "conductance_laplacian",
    "renormalize",
]


_SLOT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _pair_images(triple: FractalTriple) -> np.ndarray:
    """Vertex ids ``[p, q]`` of every pair image inside every cell, one row
    per (cell, pair), cell by cell and in ``pair_list`` order within a cell.
    These are the only vertex pairs that can carry conductance."""
    return triple.cell_array[:, np.array(pair_list(triple.N))].reshape(-1, 2)


# No library path calls this; it stays public only because the benchmark
# tracer (``perfbench/tracer.py``) wraps it by name (ROADMAP item 13).
def conductance_laplacian(
    triple: FractalTriple, form: DirichletForm, weights
) -> np.ndarray:
    """Weighted graph Laplacian of the first-level conductance network.

    Each pair coefficient of the form, scaled by the cell weight, becomes a
    conductance on the image of that pair inside the cell; parallel edges
    from different cells accumulate additively.
    """
    r = check_weights(triple, weights)
    w = (r[:, None] * form.vector()).ravel()
    nv = triple.num_vertices
    return _laplacian(_entries(_pair_images(triple), nv), w, nv)


def _entries(ends: np.ndarray, size: int) -> np.ndarray:
    """Flat positions in a ``size`` x ``size`` matrix of the entries (p,p),
    (q,q), (p,q), (q,p) of each edge of ``ends`` (one row of two vertex ids
    per edge), edge by edge."""
    return (ends[:, [0, 1, 0, 1]] * size + ends[:, [0, 1, 1, 0]]).ravel()


def _laplacian(entries: np.ndarray, c: np.ndarray, size: int) -> np.ndarray:
    """Laplacian over ``size`` vertices of the edges at ``_entries`` with
    conductances ``c``."""
    # bincount adds in input order, so every entry sums edge by edge, in the
    # order given, and rounds the same on every run; zero conductances add
    # zeros and change nothing.
    terms = c[:, None] * _SLOT_SIGNS
    lap = np.bincount(entries, weights=terms.ravel(), minlength=size * size)
    return lap.reshape(size, size)


# Rounds run only on networks with at least this many free vertices: below
# it, dense LU on the whole interior block costs about what building the
# rounds would.
_ROUNDS_FROM = 129
# Rounds stop once one would remove under 1/_ROUND_SHARE of the free vertices
# left, or at most _CORE_AT_MOST are left.  Pure rounds lost to LU on
# clique-like networks, where each round removes few vertices and adds much fill.
_ROUND_SHARE = 8
_CORE_AT_MOST = 24


class _Round(NamedTuple):
    """One independent set of free vertices, eliminated together.  An entry
    is one (vertex, incident edge) pair, vertex by vertex."""

    vertices: np.ndarray  # in elimination order
    starts: np.ndarray  # first entry of each vertex
    edges: np.ndarray  # edge id of each entry
    owner: np.ndarray  # position in ``vertices`` of each entry's vertex
    others: np.ndarray  # the edge's other end
    fill_a: np.ndarray  # each fill term: two entries of one vertex
    fill_b: np.ndarray
    into: np.ndarray  # and the edge joining the two entries' other ends


class _Schedule(NamedTuple):
    """Symbolic Kron reduction of one conductance pattern onto ``fixed``."""

    num_vertices: int
    slots: np.ndarray  # live slots
    slot_edge: np.ndarray  # the network edge each live slot conducts on
    num_edges: int  # fill edges included
    rounds: tuple[_Round, ...]
    fixed: np.ndarray
    core: np.ndarray  # free vertices left for dense LU, sorted
    kept: np.ndarray  # edges left on fixed + core
    kept_entries: np.ndarray  # their ``_entries``, numbered fixed first, then core


def _ids(values) -> np.ndarray:
    return np.array(values, dtype=np.intp)


@functools.lru_cache(maxsize=4)
def _schedule(triple: FractalTriple, live: bytes, fixed: tuple[int, ...]) -> _Schedule:
    """Elimination schedule when the ``_pair_images`` slots flagged in the
    boolean mask ``live`` carry conductance and the sorted vertex ids
    ``fixed`` are kept.  Raises ``SingularInteriorError`` at the lowest-id
    free vertex with no conductance path to a fixed one.

    Cached per (triple, pattern, fixed ids): the pattern stays put while the
    solver iterates.  Every relabelled triple is a new key, so the cache is
    kept small."""
    nv = triple.num_vertices
    slots = np.flatnonzero(np.frombuffer(live, dtype=bool))
    ends = _pair_images(triple)[slots]
    root = labels(nv, ends[:, 0], ends[:, 1])
    fixed = _ids(fixed)
    free = np.ones(nv, dtype=bool)
    free[fixed] = False
    anchored = np.zeros(nv, dtype=bool)
    anchored[root[fixed]] = True
    cut = np.flatnonzero(free & ~anchored[root])
    if cut.size:
        raise SingularInteriorError(int(cut[0]))
    core = np.flatnonzero(free)
    # without rounds every live slot is its own edge, so the core Laplacian
    # adds up slot by slot, as ``conductance_laplacian`` does, to the bit
    rounds, slot_edge = (), np.arange(slots.size)
    if core.size >= _ROUNDS_FROM:
        rounds, slot_edge, ends, core = _rounds(nv, core, ends)
    size = fixed.size + core.size
    local = np.full(nv, -1)
    local[np.concatenate((fixed, core))] = np.arange(size)
    ends = local[ends]
    kept = np.flatnonzero((ends >= 0).all(axis=1))
    return _Schedule(
        num_vertices=nv,
        slots=slots,
        slot_edge=slot_edge,
        num_edges=len(ends),
        rounds=rounds,
        fixed=fixed,
        core=core,
        kept=kept,
        kept_entries=_entries(ends[kept], size),
    )


def _rounds(
    nv: int, free: np.ndarray, pairs: np.ndarray
) -> tuple[tuple[_Round, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate ``free`` in rounds, each one greedy independent set among
    the vertices of current degree at most the least plus one, taken in
    (degree, id) order, while a round removes enough.  Parallel slots share
    one edge.  Returns the rounds, the edge of each slot, the ends of every
    edge (fill edges appended) and the sorted core left."""
    edge_of = {}  # _keys of the ends -> edge id
    keys = _keys(pairs[:, 0], pairs[:, 1], nv)
    slot_edge = _ids([edge_of.setdefault(k, len(edge_of)) for k in keys.tolist()])
    ends = _ends(list(edge_of), nv)
    alive = np.ones(len(ends), dtype=bool)
    left = np.zeros(nv, dtype=bool)
    left[free] = True
    rounds = []
    while (remaining := np.count_nonzero(left)) > _CORE_AT_MOST:
        # every live edge in both directions, grouped by the vertex it leaves
        live = np.flatnonzero(alive)
        x, y = ends[live].T
        order = _stable_order(np.concatenate((x, y)), nv)
        dst = np.concatenate((y, x))[order]
        eid = np.concatenate((live, live))[order]
        deg = np.bincount(x, minlength=nv) + np.bincount(y, minlength=nv)
        ptr = np.cumsum(deg) - deg
        ids = np.flatnonzero(left)
        candidates = ids[deg[ids] <= deg[ids].min() + 1]
        candidates = candidates[np.argsort(deg[candidates], kind="stable")]
        chosen, blocked, nbr, at, nd = [], bytearray(nv), dst.tolist(), ptr.tolist(), deg.tolist()
        for v in candidates.tolist():
            if not blocked[v]:
                chosen.append(v)
                for u in nbr[at[v] : at[v] + nd[v]]:
                    blocked[u] = 1
        if _ROUND_SHARE * len(chosen) < remaining:
            break
        chosen = _ids(chosen)
        lens = deg[chosen]
        starts = np.cumsum(lens) - lens
        entries = np.repeat(ptr[chosen] - starts, lens) + np.arange(starts[-1] + lens[-1])
        edges, others = eid[entries], dst[entries]
        # every pair of one vertex's entries
        fa, fb = [], []
        for d in set(lens.tolist()):
            ia, ib = _triu(d)
            first = starts[lens == d][:, None]
            fa.append((first + ia).ravel())
            fb.append((first + ib).ravel())
        fa, fb = np.concatenate(fa), np.concatenate(fb)
        keys = _keys(others[fa], others[fb], nv)
        known = len(edge_of)
        into = _ids([edge_of.setdefault(k, len(edge_of)) for k in keys.tolist()])
        if len(edge_of) > known:
            new = into >= known
            fresh = np.empty(len(edge_of) - known, dtype=np.intp)
            fresh[into[new] - known] = keys[new]
            ends = np.concatenate((ends, _ends(fresh, nv)))
            alive = np.concatenate((alive, np.ones(fresh.size, dtype=bool)))
        alive[edges] = False
        left[chosen] = False
        owner = np.repeat(np.arange(chosen.size), lens)
        rounds.append(_Round(chosen, starts, edges, owner, others, fa, fb, into))
    return tuple(rounds), slot_edge, ends, np.flatnonzero(left)


def _stable_order(ids: np.ndarray, nv: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for vertex ids below ``nv``.  Cast
    to the smallest integer type that holds ``nv``, they take numpy's radix
    sort (16 bits or fewer) instead of its merge sort."""
    return np.argsort(ids.astype(np.min_scalar_type(nv)), kind="stable")


@functools.lru_cache(maxsize=32)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Both indices of every pair ``a < b`` below ``d`` (read-only)."""
    ia, ib = np.triu_indices(d, 1)
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib


def _keys(p: np.ndarray, q: np.ndarray, nv: int) -> np.ndarray:
    """One integer per unordered vertex pair ``{p, q}``."""
    return np.minimum(p, q) * nv + np.maximum(p, q)


def _ends(keys, nv: int) -> np.ndarray:
    """The vertex pair of each of ``_keys``, one row per key."""
    keys = _ids(keys)
    return np.stack((keys // nv, keys % nv), axis=1)


def _reduce(sched: _Schedule, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``sched`` on the slot conductances ``w``: the extension operator
    (row ``v`` gives the minimizing extension at vertex ``v`` as a function
    of the fixed values) and the Schur complement onto the fixed vertices.

    Each round takes GTH pivots (a pivot is the sum of the vertex's current
    conductances) and adds ``c_va * c_vb / d_v`` to every pair of its
    neighbours, so it never subtracts.  Dense LU solves the core left, and
    back-substitution in reverse round order writes each eliminated vertex
    as a convex combination of its neighbours.  All of it runs at the exact
    power-of-two scale that puts the largest conductance into [0.5, 1); the
    Schur block is scaled back, and a diagonal that overflows then stays
    infinite (only the off-diagonals are read)."""
    e = _exponent(w)
    w = np.ldexp(w, e)
    c = np.bincount(sched.slot_edge, weights=w[sched.slots], minlength=sched.num_edges)
    coefs = []
    for rnd in sched.rounds:
        ce = c[rnd.edges]
        d = np.add.reduceat(ce, rnd.starts)
        if not d.all():  # a fill term underflowed
            v = rnd.vertices[np.flatnonzero(d == 0.0)[0]]
            raise SingularInteriorError(int(v), "interior block is numerically singular")
        coef = ce / d[rnd.owner]
        fills = coef[rnd.fill_a] * ce[rnd.fill_b]
        c += np.bincount(rnd.into, weights=fills, minlength=c.size)
        coefs.append(coef)
    m = sched.fixed.size
    lap = _laplacian(sched.kept_entries, c[sched.kept], m + sched.core.size)
    try:
        core = np.linalg.solve(lap[m:, m:], -lap[m:, :m])
    except np.linalg.LinAlgError:
        # every free vertex reaches a fixed one, so this is numerical breakdown
        raise SingularInteriorError(int(sched.core[0]), "interior block is numerically singular")
    x = np.empty((sched.num_vertices, m))
    x[sched.fixed] = np.eye(m)
    x[sched.core] = core
    for rnd, coef in zip(reversed(sched.rounds), reversed(coefs)):
        x[rnd.vertices] = np.add.reduceat(coef[:, None] * x[rnd.others], rnd.starts)
    with np.errstate(over="ignore"):
        return x, np.ldexp(lap[:m, :m] + lap[m:, :m].T @ core, -e)


def _extend(
    triple: FractalTriple, form: DirichletForm, r: np.ndarray, fixed: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce`` for the network of ``form`` with checked weights ``r``,
    keeping the sorted vertex ids ``fixed``."""
    w = (r[:, None] * form.vector()).ravel()
    return _reduce(_schedule(triple, (w != 0.0).tobytes(), fixed), w)


def renormalize(triple: FractalTriple, form: DirichletForm, weights) -> DirichletForm:
    """Boundary form whose value on any data is the minimal one-step energy.

    Coefficients are read off the Schur complement of the first-level network
    Laplacian onto the boundary block.  Schur off-diagonals in
    ``[-COEFF_EPS * max, 0]`` are clamped to zero: structural zeros of the
    stable support pick up only round-off there.  A form whose ``N`` is not
    the triple's raises ``ValueError``.
    """
    return _context(triple, form, weights).image


class OperatorCache:
    """The interior solve of one (triple, form, weights) context, read-only.

    ``ops`` stacks the k cell operators into one ``(k, N, N)`` array: row
    ``p`` of operator ``i`` gives the minimizing extension at the image of
    boundary vertex ``p`` in cell ``i`` as a function of the boundary data
    (rows sum to one), and ``word`` multiplies them on demand.  ``schur`` is
    the Schur complement onto the boundary, ``image`` (computed on first
    read) the renormalized form, ``weights`` a read-only copy of the checked
    weights.  The constructor refuses a form whose ``N`` is not the
    triple's before reading its matrix.
    """

    def __init__(self, triple: FractalTriple, form: DirichletForm, weights):
        if form.N != triple.N:
            raise ValueError(f"form has N={form.N}, triple has N={triple.N}")
        self.weights = np.array(check_weights(triple, weights))
        self.weights.flags.writeable = False
        self.triple = triple
        self.form = form
        x, self.schur = _extend(triple, form, self.weights, tuple(range(triple.N)))
        # boundary data to the full minimizing extension, per cell
        self.ops = x[triple.cell_array]
        self.ops.flags.writeable = self.schur.flags.writeable = False

    def matches(self, triple: FractalTriple, form: DirichletForm, weights: np.ndarray) -> bool:
        """Whether this is the context of ``triple``, ``form`` and the checked
        ``weights``, by value.  A form of another size is told apart before
        its matrix is read."""
        return (
            self.triple == triple
            and self.form.N == form.N
            and np.array_equal(self.form.matrix(), form.matrix())
            and np.array_equal(self.weights, weights)
        )

    @functools.cached_property
    def image(self) -> DirichletForm:
        """The renormalized form, read off the Schur off-diagonals."""
        return DirichletForm._from_vector(self.triple.N, self._coefficients())

    def _coefficients(self) -> np.ndarray:
        """The coefficients of ``image`` in pair order, as a fresh array.
        One pass over the Schur off-diagonals finds them finite and none
        below ``-COEFF_EPS`` of the largest; only when it fails are they
        searched for the first offending pair, which is named."""
        rows, cols = pair_index(self.triple.N)
        off = -self.schur[rows, cols]
        lo, hi = off.min(), off.max()
        if not (math.isfinite(lo) and math.isfinite(hi) and lo >= -COEFF_EPS * max(hi, -lo)):
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
        return np.maximum(off, 0.0)

    def word(self, word: Iterable[int]) -> np.ndarray:
        """Product of cell operators, first index applied last (outermost),
        multiplied as they are: a one-letter word is its operator, bit for
        bit, and only the empty word builds the identity.  Under level
        composition the composite map of the word ``(i1, ..., in)`` read as a
        single n-level cell applies the single-cell maps in the opposite
        order; only the direct composition order is exposed here.
        """
        ops = [self.ops[i] for i in word]
        return functools.reduce(np.matmul, ops) if ops else np.eye(self.triple.N)

    def power(self, j: int, period: int) -> np.ndarray:
        """The word of ``period`` copies of cell ``j`` (``ops[j]`` at period 1)."""
        return self.word((j,) * period)


# Search, verification and stability analysis read one final form in that
# order, so one slot lets the later stages reuse the search's last solve.  It
# only ever holds a finished context, and each lookup reads it once, so
# concurrent callers at worst rebuild a context another one displaced.
_last: OperatorCache | None = None


def _context(triple: FractalTriple, form: DirichletForm, weights) -> OperatorCache:
    """The slot's ``OperatorCache`` if it matches by value, else a new one,
    which then takes the slot."""
    global _last
    r = check_weights(triple, weights)
    last = _last
    if last is None or not last.matches(triple, form, r):
        last = _last = OperatorCache(triple, form, r)
    return last
