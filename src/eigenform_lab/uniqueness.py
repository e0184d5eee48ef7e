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
included: the seed itself belongs to its own orbit span.

Each node's functional is stored as one row vector, shift and mask folded in,
so the rows of all nodes stack into a (nodes x N) matrix and the edges out of
a source are one product of that matrix with the source's span basis.  Sinks
of the condensation are read off reachability: a node lies in a sink exactly
when every node it reaches reaches it back.

Orbit spans, Perron data and penalty forms all read one ``OperatorCache``,
passed as their first argument: ``stability_digraph`` builds it once per
(triple, form, weights) and keeps it on the digraph.  The verdict carries
that digraph, so the positive-form cross-check and ``explore_nonuniqueness``
read its operators and component data instead of rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalConsistencyError, NonConvergenceError
from .forms import DirichletForm, laplacian, pair_list, support_graph
from .fractal import FractalTriple, check_weights
from .graphs import ComponentData, components, hat_graph
from .renorm import OperatorCache
from .solver import EigenResult, find_eigenform
from .spectral import PerronData, perron_component, perron_positive, project_g

__all__ = [
    "ExplorationOutcome",
    "StabilityDigraph",
    "StabilityVerdict",
    "decide_uniqueness",
    "explore_nonuniqueness",
    "harmonicity_functional",
    "orbit_span",
    "pair_energy",
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
    """

    nodes: list[Node]
    edges: set[tuple[Node, Node]]
    payload: dict[Node, PerronData]
    component_data: dict[int, ComponentData]
    spans: dict[Node, np.ndarray]
    magnitudes: dict[tuple[Node, Node], float]
    cache: OperatorCache
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


def orbit_span(cache: OperatorCache, seed, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the smallest subspace containing ``seed`` that is
    invariant under every cell operator of ``cache``.

    Worklist closure: every basis vector, in the order it was adjoined, is
    pushed through all cell operators once, and its images are taken in cell
    order; an image whose residual against the current span exceeds the rank
    threshold is adjoined and joins the worklist.  An image within threshold
    stays within it as the span grows, so no vector needs a second pass.
    """
    seed = np.asarray(seed, dtype=float)
    norm = np.linalg.norm(seed)
    if norm == 0.0:
        raise ValueError("orbit seed must be nonzero")
    n = cache.ops.shape[-1]
    basis = np.zeros((n, n))
    basis[0] = seed / norm
    dim = 1
    scale = max(1.0, norm)
    done = 0
    while done < dim < n:
        images = cache.ops @ basis[done]
        done += 1
        limit = rank_tol * np.maximum(scale, np.linalg.norm(images, axis=1))
        while images.shape[0] and dim < n:
            span = basis[:dim]
            resid = images - (images @ span.T) @ span
            size = np.linalg.norm(resid, axis=1)
            fresh = np.flatnonzero(size > limit)
            if not fresh.size:
                break
            i = fresh[0]
            basis[dim] = resid[i] / size[i]
            dim += 1
            # the images before ``i`` were within threshold of a smaller span
            images, limit = images[i + 1 :], limit[i + 1 :]
    return basis[:dim]


def harmonicity_functional(
    form: DirichletForm, comp: ComponentData, s: int, u
) -> float:
    """Weighted difference operator at the pivot vertex of the shifted,
    component-masked data."""
    return float(laplacian(form, project_g(u, comp, s))[comp.j])


def _node_row(v: np.ndarray, comp: ComponentData, s: int) -> np.ndarray:
    """Row ``x`` with ``x @ u == v @ project_g(u, comp, s)`` for all ``u``."""
    idx = list(comp.components[s])
    x = np.zeros(len(v))
    x[idx] = v[idx]
    x[comp.j] -= v[idx].sum()
    return x


def _magnitudes(span: np.ndarray, rows: np.ndarray, max_coeff: float) -> np.ndarray:
    """Per row, the largest ``|row @ b| / (max_coeff * sup|b|)`` over the
    basis vectors ``b`` of ``span``; vectors with zero sup norm are skipped."""
    sup = np.max(np.abs(span), axis=1)
    keep = sup != 0.0
    values = np.abs(rows @ span[keep].T) / (max_coeff * sup[keep])
    return values.max(axis=1, initial=0.0)


def _node_list(comp_by_j: Mapping[int, ComponentData]) -> list[Node]:
    return sorted((j, s) for j, comp in comp_by_j.items() for s in range(comp.m))


def stability_digraph(
    triple: FractalTriple, form: DirichletForm, weights, phi_tol: float = PHI_TOL
) -> StabilityDigraph:
    """Build the reachability digraph for a verified eigenform.

    An edge from one node to another states that the harmonicity functional
    of the target is nonzero, beyond the relative threshold, somewhere on the
    invariant span generated by the source's eigenvector iterate.  The cell
    operators are built once here and kept as ``StabilityDigraph.cache``.
    """
    r = check_weights(triple, weights)
    hat = hat_graph(triple)
    if support_graph(form) != hat:
        raise ValueError(
            "stability analysis requires a verified eigenform; the support "
            "graph does not match the stable boundary graph"
        )
    cache = OperatorCache(triple, form, r)
    comp_by_j = {j: components(triple, j, hat) for j in range(triple.N)}
    nodes = _node_list(comp_by_j)
    payload = {(j, s): perron_component(cache, comp_by_j[j], s) for (j, s) in nodes}
    max_coeff = form.max_coefficient()
    # the pivot lies outside its components, so the Laplacian row reduces to
    # the coefficient row
    m = form.matrix()
    rows = np.array([_node_row(m[j], comp_by_j[j], s) for (j, s) in nodes])

    edges = set()
    spans = {}
    magnitudes = {}
    warnings = []
    for src in nodes:
        span = orbit_span(cache, payload[src].u_tilde)
        spans[src] = span
        for dst, mag in zip(nodes, _magnitudes(span, rows, max_coeff).tolist()):
            magnitudes[(src, dst)] = mag
            if mag > phi_tol:
                edges.add((src, dst))
                if mag <= PHI_WARN_FACTOR * phi_tol:
                    warnings.append(
                        f"borderline functional magnitude {mag:.3e} on edge {src}->{dst}"
                    )
    return StabilityDigraph(
        nodes=nodes,
        edges=edges,
        payload=payload,
        component_data=comp_by_j,
        spans=spans,
        magnitudes=magnitudes,
        cache=cache,
        warnings=warnings,
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


def _positive_case_digraph(
    cache: OperatorCache, phi_tol: float
) -> tuple[list[int], set[tuple[int, int]]]:
    """Single-vertex variant for positive eigenforms: seeds are the plain
    Perron vectors and the functional is the difference operator itself."""
    nodes = list(range(cache.triple.N))
    m = cache.form.matrix()
    rows = m - np.diag(m.sum(axis=1))
    max_coeff = cache.form.max_coefficient()
    edges = set()
    for j in nodes:
        u_bar, _ = perron_positive(cache, j)
        span = orbit_span(cache, u_bar)
        mags = _magnitudes(span, rows, max_coeff)
        edges |= {(j, jd) for jd in nodes if mags[jd] > phi_tol}
    return nodes, edges


def _require_context(dg: StabilityDigraph, triple, form, r, what: str) -> None:
    """Refuse a digraph whose cell operators belong to another triple, form or
    checked weights, compared by value."""
    built_for = (dg.cache.triple, dg.cache.form.matrix().tolist(), dg.cache.weights.tolist())
    if built_for != (triple, form.matrix().tolist(), r.tolist()):
        raise ValueError(f"the {what} for another triple, form or weights")


def decide_uniqueness(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    phi_tol: float = PHI_TOL,
    digraph: StabilityDigraph | None = None,
) -> StabilityVerdict:
    """Condense the digraph and count sinks.

    The digraph is ``digraph`` when given (one built for another triple, form
    or weights raises ``ValueError``) and is built otherwise; the verdict
    carries it.  One sink means unique; two or more yield witnesses, namely
    two sink components themselves (each is closed under out-edges).  For a
    positive form the single-vertex variant runs as well, on the digraph's
    cell operators, and must agree.
    """
    r = check_weights(triple, weights)
    if digraph is not None:
        _require_context(digraph, triple, form, r, "digraph was built")
    dg = digraph or stability_digraph(triple, form, r, phi_tol=phi_tol)
    sinks = _sink_sccs(dg.nodes, dg.edges)
    unique = len(sinks) == 1
    witnesses = None
    if not unique:
        witnesses = (list(sinks[0]), list(sinks[1]))

    vec = form.vector()
    if vec.min() > 1e-10 * vec.max():
        pos_nodes, pos_edges = _positive_case_digraph(dg.cache, phi_tol)
        pos_unique = len(_sink_sccs(pos_nodes, pos_edges)) == 1
        if pos_unique != unique:
            raise InternalConsistencyError(
                "single-vertex and component-based stability analyses disagree"
            )
        expected = {((a, 0), (b, 0)) for a, b in pos_edges}
        if expected != dg.edges:
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
    cache: OperatorCache, comp: ComponentData, s: int, fit_tol: float = 1e-8
) -> dict[tuple[int, int], float]:
    """Squared harmonicity functional of the node ``(comp.j, s)`` as a
    pair-difference table, for the form and operators of ``cache``.

    The functional is linear and kills constants, so its square is a quadratic
    form representable by (possibly negative) coefficients supported on the
    stable graph's edges; the representation is checked and a residual beyond
    tolerance raises.
    """
    j, n = comp.j, cache.triple.N
    power = cache.word((j,) * comp.periods[s])
    m = cache.form.matrix()
    lap_row = m[j] - np.eye(n)[j] * m[j].sum()
    ell = _node_row(lap_row @ power, comp, s)
    q = np.outer(ell, ell)

    table = {(a, b): -q[a, b] for a, b in hat_graph(cache.triple).sorted_edges()}
    recon = np.zeros((n, n))
    for (a, b), d in table.items():
        recon[a, b] -= d
        recon[b, a] -= d
        recon[a, a] += d
        recon[b, b] += d
    scale = max(float(np.max(np.abs(q))), 1e-300)
    err = float(np.max(np.abs(recon - q)))
    if err > fit_tol * scale:
        raise InternalConsistencyError(
            f"pair-difference fit of the penalty at (j={j}, s={s}) fails by {err:.3e}"
        )
    return {pair: d for pair, d in table.items() if d != 0.0}


def pair_energy(table: Mapping[tuple[int, int], float], u) -> float:
    """Evaluate a pair-difference coefficient table on boundary data."""
    u = np.asarray(u, dtype=float)
    return float(sum(d * (u[a] - u[b]) ** 2 for (a, b), d in table.items()))


@dataclass(frozen=True)
class ExplorationOutcome:
    """Result of perturbing away from a known eigenform.

    ``proportional`` reports whether the new limit is a scalar multiple of
    the starting form; ``delta`` is the perturbation size actually used.
    """

    result: EigenResult
    proportional: bool
    delta: float


def _proportional(a: DirichletForm, b: DirichletForm, tol: float = 1e-6) -> bool:
    va, vb = a.vector(), b.vector()
    denom = float(vb @ vb)
    if denom == 0.0:
        return False
    t = float(va @ vb) / denom
    return bool(np.max(np.abs(va - t * vb)) <= tol * np.max(np.abs(va)))


def explore_nonuniqueness(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    verdict: StabilityVerdict,
    delta: float = 0.1,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    max_retries: int = 60,
) -> ExplorationOutcome:
    """Chase a second eigenform using the second witness set's penalties.

    ``verdict`` must be the one decided for this triple, form and weights
    (any other raises ``ValueError``): the penalties of its second witness set
    read its digraph's cell operators and component data.  Their sum is
    subtracted from the form, shrinking ``delta`` as needed to keep every
    stable-graph coefficient positive, and the fixed-point search restarts
    from there.  Whether the limit is genuinely new is reported, not
    guaranteed.
    """
    r = check_weights(triple, weights)
    if verdict.witnesses is None:
        raise ValueError("exploration requires a nonunique verdict with witnesses")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    dg = verdict.digraph
    _require_context(dg, triple, form, r, "verdict was decided")
    combined: dict[tuple[int, int], float] = {}
    for (j, s) in verdict.witnesses[1]:
        for pair, d in penalty_form(dg.cache, dg.component_data[j], s).items():
            combined[pair] = combined.get(pair, 0.0) + d

    hat_edges = hat_graph(triple).sorted_edges()
    current = delta
    start = None
    for _ in range(max_retries + 1):
        coeffs = {
            pair: form.coefficient(*pair) - current * combined.get(pair, 0.0)
            for pair in pair_list(triple.N)
        }
        if all(coeffs[pair] > 0.0 for pair in hat_edges) and all(
            c >= 0.0 for c in coeffs.values()
        ):
            start = DirichletForm(triple.N, coeffs)
            break
        current /= 2.0
    if start is None:
        raise NonConvergenceError(
            "perturbed start kept leaving the admissible cone after retries"
        )
    result = find_eigenform(triple, r, init=start, tol=tol, max_iter=max_iter)
    return ExplorationOutcome(
        result=result,
        proportional=_proportional(result.form, form),
        delta=current,
    )
