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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalConsistencyError, NonConvergenceError
from .forms import DirichletForm, laplacian, pair_list, support_graph
from .fractal import FractalTriple, check_weights
from .graphs import ComponentData, components, hat_graph
from .parallel import parallel_map
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

    def out_neighbors(self, node: Node) -> list[Node]:
        return [dst for (src, dst) in self.edges if src == node]


@dataclass
class StabilityVerdict:
    """Uniqueness verdict with witnesses.

    ``unique`` holds exactly when the digraph condensation has one sink.  For
    a nonunique verdict, ``witnesses`` carries two disjoint nonempty node sets
    closed under out-edges.
    """

    unique: bool
    sink_scc_count: int
    sink_sccs: list[list[Node]]
    witnesses: tuple[list[Node], list[Node]] | None
    diagnostics: dict = field(default_factory=dict)


def orbit_span(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    seed,
    rank_tol: float = RANK_TOL,
    cache: OperatorCache | None = None,
) -> np.ndarray:
    """Orthonormal basis of the smallest subspace containing ``seed`` that is
    invariant under every cell operator.

    Closure loop: apply each cell operator to each basis vector and adjoin any
    direction whose residual against the current span exceeds the rank
    threshold; the dimension stabilizes within N rounds.
    """
    seed = np.asarray(seed, dtype=float)
    norm = np.linalg.norm(seed)
    if norm == 0.0:
        raise ValueError("orbit seed must be nonzero")
    cache = cache or OperatorCache(triple, form, weights)
    basis = [seed / norm]
    scale = max(1.0, norm)
    changed = True
    while changed and len(basis) < triple.N:
        changed = False
        for b in list(basis):
            for i in range(triple.k):
                w = cache.cell(i) @ b
                resid = w - sum((w @ e) * e for e in basis)
                if np.linalg.norm(resid) > rank_tol * max(scale, np.linalg.norm(w)):
                    basis.append(resid / np.linalg.norm(resid))
                    changed = True
                    if len(basis) == triple.N:
                        break
            if len(basis) == triple.N:
                break
    return np.array(basis)


def harmonicity_functional(
    form: DirichletForm, comp: ComponentData, s: int, u
) -> float:
    """Weighted difference operator at the pivot vertex of the shifted,
    component-masked data."""
    return float(laplacian(form, project_g(u, comp, s))[comp.j])


def _node_list(comp_by_j: Mapping[int, ComponentData]) -> list[Node]:
    return sorted((j, s) for j, comp in comp_by_j.items() for s in range(comp.m))


def stability_digraph(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    phi_tol: float = PHI_TOL,
    cache: OperatorCache | None = None,
) -> StabilityDigraph:
    """Build the reachability digraph for a verified eigenform.

    An edge from one node to another states that the harmonicity functional
    of the target is nonzero, beyond the relative threshold, somewhere on the
    invariant span generated by the source's eigenvector iterate.
    """
    r = check_weights(triple, weights)
    hat = hat_graph(triple)
    if support_graph(form) != hat:
        raise ValueError(
            "stability analysis requires a verified eigenform; the support "
            "graph does not match the stable boundary graph"
        )
    cache = cache or OperatorCache(triple, form, r)
    comp_by_j = dict(
        zip(range(triple.N), parallel_map(lambda j: components(triple, j, hat), range(triple.N)))
    )
    nodes = _node_list(comp_by_j)
    payload = {
        (j, s): perron_component(triple, form, r, j, s, comp_by_j[j], cache=cache)
        for (j, s) in nodes
    }
    max_coeff = form.max_coefficient()

    def edges_from(src: Node):
        span = orbit_span(triple, form, r, payload[src].u_tilde, cache=cache)
        found = {}
        for dst in nodes:
            jd, sd = dst
            best = 0.0
            for b in span:
                sup = float(np.max(np.abs(b)))
                if sup == 0.0:
                    continue
                value = abs(harmonicity_functional(form, comp_by_j[jd], sd, b))
                best = max(best, value / (max_coeff * sup))
            found[dst] = best
        return span, found

    results = parallel_map(edges_from, nodes)
    edges = set()
    spans = {}
    magnitudes = {}
    warnings = []
    for src, (span, found) in zip(nodes, results):
        spans[src] = span
        for dst, mag in found.items():
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


def _strongly_connected_components(
    nodes: Sequence[Node], edges: set[tuple[Node, Node]]
) -> list[list[Node]]:
    """Tarjan's algorithm, iterative."""
    succ = {n: [] for n in nodes}
    for a, b in edges:
        succ[a].append(b)
    for n in succ:
        succ[n].sort()
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(root):
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for offset in range(pi, len(succ[node])):
                nxt = succ[node][offset]
                if nxt not in index:
                    work[-1] = (node, offset + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for n in nodes:
        if n not in index:
            strongconnect(n)
    return sccs


def _sink_sccs(
    nodes: Sequence[Node], edges: set[tuple[Node, Node]]
) -> list[list[Node]]:
    sccs = _strongly_connected_components(nodes, edges)
    member = {n: i for i, scc in enumerate(sccs) for n in scc}
    out_deg = [0] * len(sccs)
    for a, b in edges:
        if member[a] != member[b]:
            out_deg[member[a]] += 1
    sinks = [scc for i, scc in enumerate(sccs) if out_deg[i] == 0]
    sinks.sort(key=lambda scc: scc[0])
    return sinks


def _positive_case_digraph(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    phi_tol: float,
    cache: OperatorCache,
) -> tuple[list[int], set[tuple[int, int]]]:
    """Single-vertex variant for positive eigenforms: seeds are the plain
    Perron vectors and the functional is the difference operator itself."""
    nodes = list(range(triple.N))
    max_coeff = form.max_coefficient()
    edges = set()
    for j in nodes:
        u_bar, _ = perron_positive(triple, form, weights, j, cache=cache)
        span = orbit_span(triple, form, weights, u_bar, cache=cache)
        for jd in nodes:
            best = 0.0
            for b in span:
                sup = float(np.max(np.abs(b)))
                if sup == 0.0:
                    continue
                best = max(best, abs(laplacian(form, b)[jd]) / (max_coeff * sup))
            if best > phi_tol:
                edges.add((j, jd))
    return nodes, edges


def decide_uniqueness(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    phi_tol: float = PHI_TOL,
    digraph: StabilityDigraph | None = None,
) -> StabilityVerdict:
    """Condense the digraph and count sinks.

    One sink means unique; two or more yield witnesses, namely two sink
    components themselves (each is closed under out-edges).  For a positive
    form the single-vertex variant runs as well, on the digraph's cell
    operators, and must agree.
    """
    r = check_weights(triple, weights)
    dg = digraph or stability_digraph(triple, form, r, phi_tol=phi_tol)
    sinks = _sink_sccs(dg.nodes, dg.edges)
    unique = len(sinks) == 1
    witnesses = None
    if not unique:
        witnesses = (list(sinks[0]), list(sinks[1]))

    vec = form.vector()
    if vec.min() > 1e-10 * vec.max():
        pos_nodes, pos_edges = _positive_case_digraph(triple, form, r, phi_tol, dg.cache)
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

    diagnostics = {
        "magnitudes": {f"{src}->{dst}": mag for (src, dst), mag in sorted(dg.magnitudes.items())},
        "warnings": list(dg.warnings),
    }
    return StabilityVerdict(
        unique=unique,
        sink_scc_count=len(sinks),
        sink_sccs=[list(s) for s in sinks],
        witnesses=witnesses,
        diagnostics=diagnostics,
    )


def penalty_form(
    triple: FractalTriple,
    form: DirichletForm,
    weights,
    j: int,
    s: int,
    comp: ComponentData | None = None,
    cache: OperatorCache | None = None,
    fit_tol: float = 1e-8,
) -> dict[tuple[int, int], float]:
    """Squared harmonicity functional of a node as a pair-difference table.

    The functional is linear and kills constants, so its square is a quadratic
    form representable by (possibly negative) coefficients supported on the
    stable graph's edges; the representation is checked and a residual beyond
    tolerance raises.
    """
    r = check_weights(triple, weights)
    comp = comp or components(triple, j, None)
    if comp.j != j:
        raise ValueError(f"component data is for j={comp.j}, not j={j}")
    cache = cache or OperatorCache(triple, form, r)
    power = cache.word((j,) * comp.periods[s])
    n = triple.N
    ell = np.zeros(n)
    for h in range(n):
        basis = np.zeros(n)
        basis[h] = 1.0
        ell[h] = laplacian(form, power @ project_g(basis, comp, s))[j]
    q = np.outer(ell, ell)

    hat = hat_graph(triple)
    table = {(a, b): -q[a, b] for a, b in hat.sorted_edges()}
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

    The combined penalty of the second witness set is subtracted from the
    form, shrinking ``delta`` as needed to keep every stable-graph coefficient
    positive, and the fixed-point search restarts from there.  Whether the
    limit is genuinely new is reported, not guaranteed.
    """
    r = check_weights(triple, weights)
    if verdict.witnesses is None:
        raise ValueError("exploration requires a nonunique verdict with witnesses")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    cache = OperatorCache(triple, form, r)
    combined: dict[tuple[int, int], float] = {}
    for (j, s) in verdict.witnesses[1]:
        comp = components(triple, j, None)
        for pair, d in penalty_form(triple, form, r, j, s, comp=comp, cache=cache).items():
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
