"""The uniqueness decision procedure.

Every node pairs a boundary vertex with one component of the stable graph at
that vertex.  A directed edge records that some composite cell operator
carries the source node's eigenvector iterate to data whose shifted-and-masked
projection fails to be harmonic at the target vertex.  A node set with no
outgoing edge is stable, and the eigenform is unique exactly when no two
disjoint nonempty stable sets exist, which reduces to the condensation of the
digraph having a single sink component.

Reachability is tested on subspace closures rather than on words: the target
functionals are linear, so vanishing on every composite image is the same as
vanishing on the smallest invariant subspace containing the seed.  The word
enumeration bound survives as a test oracle.  The empty word is always
included: the seed itself belongs to its own orbit span.  ``orbit_span``
closes a whole stack of seeds in lockstep, and a seed closes bit for bit as
it would alone, so ``stability_digraph`` makes one call for the node seeds
and, for a positive form, the positive-form cross-check's own seeds stacked
after them.  The seeds come from one Perron pass too: every node's Perron
data and, for a positive form, every vertex's Perron vector, each block
iterated bit for bit as it would be alone.

Each node's functional is stored as one row vector, shift and mask folded in,
so the rows of all nodes stack into a (nodes x N) matrix; one product of it
with every span basis stacked, reduced per source, gives all edge magnitudes.
The cross-check reads its table the same way off its own slice of spans, with
the boundary Laplacian rows as functionals, so it shares the lockstep loop,
the table readout and ``PHI_TOL`` with the digraph, and no span, seed or
table.  Sinks of the condensation are read off reachability: a node lies in
a sink exactly when every node it reaches reaches it back.

Orbit spans, Perron data and penalty forms all read one ``OperatorCache``,
passed as their first argument: ``stability_digraph`` takes the one the
solver's last iteration built, when the form is the one it returned, and
keeps it on the digraph, with the cross-check's edges.  The verdict carries
that digraph, so ``decide_uniqueness`` compares the cross-check's edges with
the digraph's, and ``explore_nonuniqueness`` reads its operators and
component data, without closing a span or rebuilding an operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError
from .forms import DirichletForm, _exponent, _laplacian_matrix, _support_mask
from .fractal import FractalTriple, check_weights
from .graphs import ComponentData, _hat_index, components
from .renorm import OperatorCache, _context
from .solver import EigenResult, _on_hat_support, find_eigenform
from .spectral import PerronData, _perron_pass

__all__ = [
    "ExplorationOutcome",
    "StabilityDigraph",
    "StabilityVerdict",
    "decide_uniqueness",
    "explore_nonuniqueness",
    "orbit_span",
    "penalty_form",
    "stability_digraph",
]

PHI_TOL = 1e-8
PHI_WARN_FACTOR = 1e3
RANK_TOL = 1e-10

Node = tuple[int, int]


@dataclass
class StabilityDigraph:
    """Reachability digraph over (vertex, component) nodes.

    ``magnitudes`` stores, for every ordered node pair, the largest normalized
    functional value seen over the source's orbit span; ``edges`` holds the
    pairs above threshold.  Borderline magnitudes are listed in ``warnings``.
    ``cache`` holds the cell operators the digraph was built from.

    ``cross_check_edges`` holds, for a positive form, the edges of the
    single-vertex variant on the nodes ``(j, 0)``, and is ``None`` otherwise.
    Their Perron seeds come from their own blocks in the digraph's Perron
    pass, their spans close in its ``orbit_span`` call, and their table comes
    off their own slice of spans, so they share no result with ``edges``;
    ``decide_uniqueness`` compares the two.
    """

    nodes: list[Node]
    edges: set[tuple[Node, Node]]
    payload: dict[Node, PerronData]
    component_data: dict[int, ComponentData]
    spans: dict[Node, np.ndarray]
    magnitudes: dict[tuple[Node, Node], float]
    cache: OperatorCache
    cross_check_edges: set[tuple[Node, Node]] | None
    warnings: list[str] = field(default_factory=list)


@dataclass
class StabilityVerdict:
    """Uniqueness verdict with witnesses.

    ``unique`` holds exactly when the digraph condensation has one sink, and
    ``sink_sccs`` lists the sinks.  For a nonunique verdict, ``witnesses``
    carries two disjoint nonempty node sets closed under out-edges.
    ``digraph`` is the digraph the verdict was decided on, with its
    magnitudes, warnings, Perron data, component data and cell operators.
    """

    unique: bool
    sink_sccs: list[list[Node]]
    witnesses: tuple[list[Node], list[Node]] | None
    digraph: StabilityDigraph


def orbit_span(cache: OperatorCache, seeds) -> list[np.ndarray]:
    """Per row of the ``(S, N)`` stack ``seeds``, an orthonormal basis of the
    smallest subspace containing that seed that is invariant under every cell
    operator of ``cache``.

    Worklist closure: every basis vector, in the order it was adjoined, is
    pushed through all cell operators once, and its images are taken in cell
    order; an image whose residual against the current span exceeds
    ``RANK_TOL`` times the largest of its norm, the seed's norm and one is
    adjoined (classical Gram-Schmidt) and joins the worklist.  A residual
    below 1e-3 of its image's norm is projected off the span a second time
    before it is adjoined, so the basis stays orthonormal to about 1e-13.  An
    image within threshold stays within it as the span grows, so no image is
    taken twice.

    All seeds close in lockstep on one zero-padded ``(S, N, N)`` basis stack,
    where zero rows are inert.  Each outer step pushes the next basis vector
    of every open seed through the operators in one product; the inner loop
    then projects the pending image blocks of the seeds still growing at
    once, and each of them adjoins its first image above threshold and drops
    the images up to it, until none has one left.  A seed stops when its span
    is full or its worklist is empty.  Every product and norm has the shape
    it would have for the seed alone, so a seed closes bit for bit as it
    would alone: the digraph and its positive-form cross-check share one call
    without sharing a result.
    """
    ops = cache.ops
    k, n = ops.shape[0], ops.shape[-1]
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != n:
        raise ValueError(f"orbit seeds must be an (S, {n}) stack, got shape {seeds.shape}")
    # what np.linalg.norm computes for real input, without its dispatch
    norm = np.sqrt(np.add.reduce(seeds * seeds, axis=1))
    if not norm.all():
        raise ValueError("orbit seed must be nonzero")
    count = len(seeds)
    basis = np.zeros((count, n, n))
    basis[:, 0] = seeds / norm[:, None]
    dim = np.ones(count, dtype=np.intp)
    done = np.zeros(count, dtype=np.intp)  # basis vectors whose images were taken
    scale = np.maximum(1.0, norm)
    cells = np.arange(k)
    move = np.flatnonzero(dim < n)
    while move.size:
        # one product per vector, so a seed's bits do not depend on its stack
        images = (ops @ basis[move, done[move], None, :, None])[..., 0]
        reach = np.sqrt(np.add.reduce(images * images, axis=2))  # the images' norms
        limit = RANK_TOL * np.maximum(scale[move, None], reach)
        done[move] += 1
        at = np.arange(move.size)  # image blocks whose seeds may still grow
        while at.size:
            block, span = images[at], basis[move[at]]
            resid = block - (block @ span.transpose(0, 2, 1)) @ span
            size = np.sqrt(np.add.reduce(resid * resid, axis=2))
            fresh = size > limit[at]
            grow = np.flatnonzero(fresh.any(axis=1))
            at = at[grow]
            who = move[at]
            first = fresh[grow].argmax(axis=1)
            add, length = resid[grow, first], size[grow, first]
            # one projection leaves a part along the span of about rounding times
            # the image's norm, which is over 1e-13 of a residual below 1e-3 of
            # that norm; such a residual is projected once more
            again = length < 1e-3 * reach[at, first]
            if again.any():
                span = span[grow[again]]
                add[again] -= ((add[again, None] @ span.transpose(0, 2, 1)) @ span)[:, 0]
                length[again] = np.sqrt(np.add.reduce(add[again] * add[again], axis=1))
            basis[who, dim[who]] = add / length[:, None]
            dim[who] += 1
            # the images up to the adjoined one were within threshold of a smaller span
            drop, cell = np.nonzero(cells <= first[:, None])
            images[at[drop], cell] = 0.0
            at = at[dim[who] < n]
        move = move[(done[move] < dim[move]) & (dim[move] < n)]
    return [basis[s, :d] for s, d in enumerate(dim.tolist())]


def _node_row(v: np.ndarray, comp: ComponentData, s: int) -> np.ndarray:
    """Row ``x`` with ``x @ u == v @ g`` for all ``u``, where ``g`` is ``u``
    shifted by its value at ``comp.j`` and masked to component ``s``."""
    idx = list(comp.components[s])
    x = np.zeros(len(v))
    x[idx] = v[idx]
    x[comp.j] -= v[idx].sum()
    return x


def _table(top: float, spans: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The ``(S, R)`` table of the largest ``|rows[r] @ b| / (top * sup|b|)``
    over the vectors ``b`` of each of the S bases ``spans``, ``top`` the
    largest coefficient of the rows' form: one product over all bases stacked,
    one reduction per basis.  An orthonormal basis has no zero vector."""
    basis = np.concatenate(spans)
    sup = np.max(np.abs(basis), axis=1)
    values = np.abs(rows @ basis.T) / (top * sup)
    starts = np.cumsum([0] + [len(span) for span in spans[:-1]])
    return np.maximum.reduceat(values, starts, axis=1).T


def stability_digraph(
    triple: FractalTriple, form: DirichletForm, weights
) -> StabilityDigraph:
    """Build the reachability digraph for a verified eigenform.

    An edge from one node to another states that the harmonicity functional
    of the target is nonzero, beyond the relative threshold ``PHI_TOL``,
    somewhere on the invariant span generated by the source's eigenvector
    iterate.  The cell operators come from ``renorm``'s context slot and stay
    on the digraph.

    For a positive form the single-vertex cross-check runs here too: its own
    seeds, one Perron vector per vertex, come from the nodes' Perron pass and
    close in the same ``orbit_span`` call as the nodes' seeds, and its edges,
    read off its own slice of spans against the boundary Laplacian rows, are
    kept in ``cross_check_edges`` for ``decide_uniqueness`` to compare.
    """
    if not _on_hat_support(triple, form):
        raise ValueError(
            "stability analysis requires a verified eigenform; the support "
            "graph does not match the stable boundary graph"
        )
    cache = _context(triple, form, weights)
    comp_by_j = {j: components(triple, j) for j in range(triple.N)}
    nodes = sorted((j, s) for j, comp in comp_by_j.items() for s in range(comp.m))
    positive = _support_mask(form).all()
    perron, vertex_pairs = _perron_pass(
        cache, [(comp_by_j[j], s) for (j, s) in nodes], range(triple.N) if positive else []
    )
    payload = dict(zip(nodes, perron))
    # the form at the exact power-of-two scale that puts its largest coefficient
    # into [0.5, 1), so no row sum overflows; in range no bit of the table moves
    scaled = np.ldexp(form.matrix(), _exponent(form.matrix()))
    top = float(scaled.max())
    lap = _laplacian_matrix(DirichletForm._wrap(form.N, scaled))
    rows = np.array([_node_row(lap[j], comp_by_j[j], s) for (j, s) in nodes])
    seeds = [data.u_tilde for data in perron] + [u_bar for u_bar, _ in vertex_pairs]
    spans = orbit_span(cache, seeds)
    table = _table(top, spans[: len(nodes)], rows)
    magnitudes = dict(zip([(a, b) for a in nodes for b in nodes], table.ravel().tolist()))
    cross_check_edges = None
    if positive:
        check = _table(top, spans[len(nodes) :], lap)
        pairs = np.argwhere(check > PHI_TOL).tolist()
        cross_check_edges = {((j, 0), (jd, 0)) for j, jd in pairs}
    return StabilityDigraph(
        nodes=nodes,
        edges={pair for pair, mag in magnitudes.items() if mag > PHI_TOL},
        payload=payload,
        component_data=comp_by_j,
        spans=dict(zip(nodes, spans)),
        magnitudes=magnitudes,
        cache=cache,
        cross_check_edges=cross_check_edges,
        warnings=[
            f"borderline functional magnitude {mag:.3e} on edge {src}->{dst}"
            for (src, dst), mag in magnitudes.items()
            if PHI_TOL < mag <= PHI_WARN_FACTOR * PHI_TOL
        ],
    )


def _sink_sccs(
    nodes: Sequence[Node], edges: set[tuple[Node, Node]]
) -> list[list[Node]]:
    """Sink components of the condensation, each sorted, listed by smallest
    member.  A node lies in a sink exactly when every node it reaches reaches
    it back, and its sink is then the set of nodes it reaches."""
    succ = {n: set() for n in nodes}
    for a, b in edges:
        succ[a].add(b)
    reach = {}
    for n in nodes:
        seen = {n}
        stack = [n]
        while stack:
            for y in succ[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        reach[n] = seen
    sinks = {
        frozenset(reach[n]) for n in nodes if all(n in reach[x] for x in reach[n])
    }
    return sorted((sorted(scc) for scc in sinks), key=lambda scc: scc[0])


def _require_context(dg: StabilityDigraph, triple, form, r, what: str) -> None:
    """Refuse a digraph whose cell operators belong to another triple, form or
    checked weights, compared by value."""
    if not dg.cache.matches(triple, form, r):
        raise ValueError(f"the {what} for another triple, form or weights")


def decide_uniqueness(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    *,
    digraph: StabilityDigraph | None = None,
) -> StabilityVerdict:
    """Condense the digraph and count sinks.

    The digraph is ``digraph`` when given (one built for another triple, form
    or weights raises ``ValueError``) and is built otherwise; the verdict
    carries it.  One sink means unique; two or more yield witnesses, namely
    two sink components themselves (each is closed under out-edges).  For a
    positive form (every coefficient above ``COEFF_EPS`` times the largest,
    as ``perron_positive`` requires) the single-vertex variant's edges, which
    ``stability_digraph`` found from their own seeds and spans and keeps in
    ``cross_check_edges``, must equal the digraph's; its stable graph is
    complete, so equal edges on the nodes ``(j, 0)`` imply an equal verdict.
    No span is closed here.
    """
    r = check_weights(triple, weights)
    if digraph is not None:
        _require_context(digraph, triple, form, r, "digraph was built")
    dg = digraph or stability_digraph(triple, form, r)
    sinks = _sink_sccs(dg.nodes, dg.edges)
    unique = len(sinks) == 1
    witnesses = None
    if not unique:
        witnesses = (list(sinks[0]), list(sinks[1]))

    if _support_mask(form).all():
        if dg.cross_check_edges != dg.edges:
            raise InternalConsistencyError(
                "single-vertex and component-based digraphs differ for a positive form"
            )

    return StabilityVerdict(
        unique=unique,
        sink_sccs=[list(s) for s in sinks],
        witnesses=witnesses,
        digraph=dg,
    )


def penalty_form(
    cache: OperatorCache, comp: ComponentData, s: int
) -> dict[tuple[int, int], float]:
    """Squared harmonicity functional of the node ``(comp.j, s)`` as a
    pair-difference table, for the form and operators of ``cache``.

    The functional is linear and kills constants, so its square is a quadratic
    form representable by (possibly negative) coefficients supported on the
    stable graph's edges; the representation is checked, and a residual
    beyond 1e-8 of the largest entry of the square raises.
    """
    j, n = comp.j, cache.triple.N
    ell = _node_row(_laplacian_matrix(cache.form)[j] @ cache.power(j, comp.periods[s]), comp, s)
    q = np.outer(ell, ell)

    _, rows, cols = _hat_index(cache.triple)
    table = -q[rows, cols]
    recon = np.zeros((n, n))
    recon[rows, cols] = recon[cols, rows] = -table
    np.fill_diagonal(recon, -recon.sum(axis=1))
    scale = max(float(np.max(np.abs(q))), 1e-300)
    err = float(np.max(np.abs(recon - q)))
    if err > 1e-8 * scale:
        raise InternalConsistencyError(
            f"pair-difference fit of the penalty at (j={j}, s={s}) fails by {err:.3e}"
        )
    return {
        (a, b): d
        for a, b, d in zip(rows.tolist(), cols.tolist(), table.tolist())
        if d != 0.0
    }


@dataclass(frozen=True)
class ExplorationOutcome:
    """Result of perturbing away from a known eigenform.

    ``proportional`` reports whether the new limit is a scalar multiple of
    the starting form; ``delta`` is the perturbation size actually used.
    """

    result: EigenResult
    proportional: bool
    delta: float


def _proportional(a: DirichletForm, b: DirichletForm) -> bool:
    va, vb = a.vector(), b.vector() / b.max_coefficient()
    t = float(va @ vb) / float(vb @ vb)
    return bool(np.max(np.abs(va - t * vb)) <= 1e-6 * np.max(np.abs(va)))


def explore_nonuniqueness(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    verdict: StabilityVerdict,
    delta: float = 0.1,
) -> ExplorationOutcome:
    """Chase a second eigenform using the second witness set's penalties.

    ``verdict`` must be the one decided for this triple, form and weights
    (any other raises ``ValueError``): the penalties of its second witness set
    read its digraph's cell operators and component data.  Their sum, times
    ``delta``, is subtracted from the form's stable-graph coefficients,
    halving ``delta`` until every one of them is positive and finite, and
    ``find_eigenform`` restarts from there with its own defaults.  At
    ``delta == 0`` the start is the form itself, which lies in that cone for
    every verdict this module decides; a start outside it even there raises
    ``ValueError``.  Whether the limit is genuinely new is reported, not
    guaranteed.
    """
    r = check_weights(triple, weights)
    if verdict.witnesses is None:
        raise ValueError("exploration requires a nonunique verdict with witnesses")
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be nonnegative and finite")
    dg = verdict.digraph
    _require_context(dg, triple, form, r, "verdict was decided")
    tables = [
        penalty_form(dg.cache, dg.component_data[j], s) for (j, s) in verdict.witnesses[1]
    ]
    pos, rows, cols = _hat_index(triple)
    ends = list(zip(rows.tolist(), cols.tolist()))
    # one entry per stable-graph edge, summed in witness order
    penalty = sum(np.array([t.get(pair, 0.0) for pair in ends]) for t in tables)

    coeffs = form.vector()
    current = delta
    while True:
        with np.errstate(over="ignore"):  # an entry that overflows is refused
            trial = coeffs[pos] - current * penalty
        if trial.min() > 0.0 and np.isfinite(trial).all():
            break
        if current == 0.0:
            raise ValueError("the form lies outside the admissible cone")
        current /= 2.0
    coeffs[pos] = trial
    result = find_eigenform(triple, r, init=DirichletForm._from_vector(triple.N, coeffs))
    return ExplorationOutcome(
        result=result,
        proportional=_proportional(result.form, form),
        delta=current,
    )
