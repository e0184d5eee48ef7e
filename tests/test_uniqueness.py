import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    FractalTriple,
    components,
    decide_uniqueness,
    explore_nonuniqueness,
    find_eigenform,
    harmonicity_functional,
    hat_graph,
    laplacian,
    orbit_span,
    pair_energy,
    penalty_form,
    perron_component,
    stability_digraph,
    verify_eigenform,
)
from eigenform_lab.renorm import OperatorCache
from eigenform_lab.uniqueness import _magnitudes, _node_row, _sink_sccs

from oracles import (
    closed_subsets,
    digraph_by_word_enumeration,
    has_two_disjoint_closed_subsets,
    orbit_span_rounds,
)

R3 = np.ones(3)


@pytest.fixture(scope="module")
def analysed(gen, gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    """Digraphs over the corpus, over level-m composites with many more cells
    than boundary vertices, and over two wide-boundary triples."""
    cases = [
        (gasket, gasket_eigenform, R3),
        (tree_gasket, tree_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]
    for triple, weights in [
        gen.iterate(gasket, 3),
        gen.iterate(vicsek, 2),
        (gen.simplex_gasket(12), np.ones(12)),
        (gen.vicsek(9), np.ones(10)),
    ]:
        result = find_eigenform(triple, weights)
        assert result.converged
        cases.append((triple, result.form, np.asarray(weights)))
    return [(triple, form, r, stability_digraph(triple, form, r)) for triple, form, r in cases]


def in_span(vec, basis):
    resid = np.asarray(vec, float)
    for b in basis:
        resid = resid - (resid @ b) * b
    return np.linalg.norm(resid) <= 1e-10


def test_orbit_span_constants(gasket, gasket_eigenform):
    span = orbit_span(OperatorCache(gasket, gasket_eigenform, R3), np.ones(3))
    assert span.shape[0] == 1
    assert in_span(np.ones(3) / np.sqrt(3), span)


def test_orbit_span_tree_two_dimensional(tree_gasket, tree_eigenform):
    span = orbit_span(OperatorCache(tree_gasket, tree_eigenform, R3), np.array([0.0, 1.0, 0.0]))
    assert span.shape[0] == 2
    assert in_span([0.0, 1.0, 0.0], span)
    assert in_span([1.0, 0.0, 1.0], span)
    assert not in_span([1.0, 0.0, -1.0], span)


def test_orbit_span_gasket_full(gasket, gasket_eigenform):
    span = orbit_span(OperatorCache(gasket, gasket_eigenform, R3), np.array([0.0, 1.0, 1.0]))
    assert span.shape[0] == 3


def test_orbit_span_invariance(tree_gasket, tree_eigenform):
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    span = orbit_span(cache, np.array([0.0, 1.0, 0.0]))
    for i in range(3):
        for b in span:
            assert in_span(cache.cell(i) @ b, span)


class _StackedOps:
    """Bare operator stack, read the way ``OperatorCache`` is read."""

    def __init__(self, ops):
        self.ops = ops

    def cell(self, i):
        return self.ops[i]


def test_orbit_span_matches_round_oracle(analysed):
    cases = [
        (triple, dg.cache, dg.payload[node].u_tilde, dg.spans[node])
        for triple, form, r, dg in analysed
        for node in dg.nodes
    ]
    # sparse operators leave many directions reachable through one image only,
    # so an image skipped or taken out of order shows up as a missing direction
    rng = np.random.default_rng(46)
    shift = np.zeros((4, 5, 5))
    for i in range(4):
        shift[i, i + 1, 0] = 1.0
    sparse = [(shift, np.eye(5)[0])]
    for _ in range(60):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        ops = rng.normal(size=(k, n, n)) * (rng.random((k, n, n)) < rng.uniform(0.05, 0.3))
        seed = rng.normal(size=n) * (rng.random(n) < 0.5)
        seed[int(rng.integers(n))] = 1.0
        sparse.append((ops, seed))
    for ops, seed in sparse:
        triple = type("Ops", (), {"N": ops.shape[1], "k": ops.shape[0]})
        cache = _StackedOps(ops)
        cases.append((triple, cache, seed, orbit_span(cache, seed)))
    for triple, cache, seed, got in cases:
        want = orbit_span_rounds(triple, cache, seed)
        assert got.shape == want.shape
        assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-10


def test_node_rows_match_harmonicity_functional(analysed):
    rng = np.random.default_rng(44)
    for triple, form, r, dg in analysed:
        data = rng.normal(size=(triple.N, 8))
        max_coeff = form.max_coefficient()
        for (j, s) in dg.nodes:
            comp = dg.component_data[j]
            got = _node_row(form.matrix()[j], comp, s) @ data
            want = np.array([harmonicity_functional(form, comp, s, u) for u in data.T])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the stored magnitudes, recomputed one functional and one vector at a time
        for (src, dst), mag in dg.magnitudes.items():
            comp = dg.component_data[dst[0]]
            ref = max(
                abs(harmonicity_functional(form, comp, dst[1], b)) / (max_coeff * np.max(np.abs(b)))
                for b in dg.spans[src]
            )
            assert mag == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_magnitudes_skip_zero_vectors():
    span = np.array([[0.0, 0.0, 0.0], [0.6, -0.8, 0.0]])
    rows = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 2.0]])
    got = _magnitudes(span, rows, 2.0)
    assert got.tolist() == [0.6 / (2.0 * 0.8), 0.0]
    assert _magnitudes(span[:1], rows, 2.0).tolist() == [0.0, 0.0]


def test_harmonicity_functional_examples(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 1)
    assert harmonicity_functional(tree_eigenform, comp, 0, np.array([0.0, 1.0, 0.0])) == pytest.approx(-1.0)
    assert harmonicity_functional(tree_eigenform, comp, 0, np.full(3, 9.0)) == 0.0


def test_harmonicity_functional_single_component_is_laplacian(gasket, gasket_eigenform):
    rng = np.random.default_rng(41)
    for j in range(3):
        comp = components(gasket, j)
        for _ in range(20):
            u = rng.normal(size=3)
            assert harmonicity_functional(gasket_eigenform, comp, 0, u) == pytest.approx(
                laplacian(gasket_eigenform, u)[j]
            )


def test_digraph_gasket_complete(gasket, gasket_eigenform):
    dg = stability_digraph(gasket, gasket_eigenform, R3)
    nodes = [(0, 0), (1, 0), (2, 0)]
    assert dg.nodes == nodes
    assert dg.edges == {(a, b) for a in nodes for b in nodes}


def test_digraph_tree_two_branches(tree_gasket, tree_eigenform):
    dg = stability_digraph(tree_gasket, tree_eigenform, R3)
    assert dg.nodes == [(0, 0), (0, 1), (1, 0), (2, 0)]
    branch1 = {(0, 0), (1, 0)}
    branch2 = {(0, 1), (2, 0)}
    for src, dst in dg.edges:
        assert (src in branch1) == (dst in branch1)
    # each branch is mutually reachable
    assert ((0, 0), (1, 0)) in dg.edges and ((1, 0), (0, 0)) in dg.edges
    assert ((0, 1), (2, 0)) in dg.edges and ((2, 0), (0, 1)) in dg.edges


def test_digraph_requires_matching_support(tree_gasket):
    bad = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.5})
    with pytest.raises(ValueError, match="support"):
        stability_digraph(tree_gasket, bad, R3)


def test_decide_gasket_unique(gasket, gasket_eigenform):
    verdict = decide_uniqueness(gasket, gasket_eigenform, R3)
    assert verdict.unique
    assert len(verdict.sink_sccs) == 1
    assert verdict.witnesses is None


def test_decide_tree_nonunique_with_witnesses(tree_gasket, tree_eigenform):
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    assert not verdict.unique
    assert len(verdict.sink_sccs) == 2
    got = {frozenset(w) for w in verdict.witnesses}
    assert got == {frozenset({(0, 0), (1, 0)}), frozenset({(0, 1), (2, 0)})}


def test_decide_vicsek_nonunique(vicsek, vicsek_eigenform):
    verdict = decide_uniqueness(vicsek, vicsek_eigenform, np.ones(5))
    assert not verdict.unique
    # the two diagonals are the sinks
    got = {frozenset(s) for s in verdict.sink_sccs}
    assert got == {frozenset({(0, 0), (2, 0)}), frozenset({(1, 0), (3, 0)})}


def test_witnesses_are_closed_under_words(tree_gasket, tree_eigenform):
    # direct check of the stability definition on the emitted witnesses
    dg = stability_digraph(tree_gasket, tree_eigenform, R3)
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3, digraph=dg)
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    comp_by_j = {j: components(tree_gasket, j) for j in range(3)}
    from oracles import all_words

    max_coeff = tree_eigenform.max_coefficient()
    for witness in verdict.witnesses:
        inside = set(witness)
        for (j, s) in inside:
            seed = dg.payload[(j, s)].u_tilde
            for word in all_words(3, 2):
                vec = cache.word(word) @ seed
                sup = float(np.max(np.abs(vec)))
                if sup == 0.0:
                    continue
                for (jd, sd) in set(dg.nodes) - inside:
                    value = abs(
                        harmonicity_functional(tree_eigenform, comp_by_j[jd], sd, vec)
                    )
                    assert value <= 1e-8 * max_coeff * sup


def test_nonconstant_data_activates_some_node(gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    rng = np.random.default_rng(42)
    for triple, form in [(gasket, gasket_eigenform), (tree_gasket, tree_eigenform)]:
        comp_by_j = {j: components(triple, j) for j in range(triple.N)}
        for _ in range(40):
            u = rng.normal(size=triple.N)
            if np.ptp(u) < 1e-9:
                continue
            best = max(
                abs(harmonicity_functional(form, comp_by_j[j], s, u))
                for j in range(triple.N)
                for s in range(comp_by_j[j].m)
            )
            assert best > 1e-10 * np.ptp(u)


def test_digraph_matches_word_enumeration(gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (tree_gasket, tree_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        dg = stability_digraph(triple, form, r)
        comp_by_j = {j: components(triple, j) for j in range(triple.N)}
        brute = digraph_by_word_enumeration(triple, form, r, comp_by_j, dg.payload)
        assert dg.edges == brute


def test_sink_criterion_matches_subset_enumeration(gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    graphs = []
    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (tree_gasket, tree_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        dg = stability_digraph(triple, form, r)
        graphs.append((dg.nodes, dg.edges))
    rng = np.random.default_rng(45)
    for _ in range(40):
        nodes = [(int(a), int(b)) for a, b in rng.integers(0, 4, size=(int(rng.integers(1, 11)), 2))]
        nodes = sorted(set(nodes))
        density = rng.uniform(0.0, 0.35)
        edges = {(a, b) for a in nodes for b in nodes if rng.random() < density}
        graphs.append((nodes, edges))
    for nodes, edges in graphs:
        sinks = _sink_sccs(nodes, edges)
        assert (len(sinks) == 1) == (not has_two_disjoint_closed_subsets(nodes, edges))
        assert sinks == sorted(sinks, key=lambda scc: scc[0])
        assert all(scc == sorted(scc) for scc in sinks)
        # sinks are exactly the minimal closed sets: each is closed and has
        # no closed proper subset, and every closed set contains one
        subsets = closed_subsets(nodes, edges)
        for scc in sinks:
            assert frozenset(scc) in subsets
            assert not any(sub < frozenset(scc) for sub in subsets)
        for subset in subsets:
            assert any(frozenset(s) <= subset for s in sinks)


def test_penalty_form_values(tree_gasket, tree_eigenform):
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    p10 = penalty_form(cache, components(tree_gasket, 1), 0)
    assert set(p10) == {(0, 1)}
    assert p10[(0, 1)] == pytest.approx(0.25)
    p01 = penalty_form(cache, components(tree_gasket, 0), 1)
    assert set(p01) == {(0, 2)}
    assert p01[(0, 2)] == pytest.approx(0.25)


def test_penalty_form_properties(gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    rng = np.random.default_rng(43)
    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (tree_gasket, tree_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        hat_edges = set(hat_graph(triple).sorted_edges())
        cache = OperatorCache(triple, form, r)
        for j in range(triple.N):
            comp = components(triple, j)
            for s in range(comp.m):
                table = penalty_form(cache, comp, s)
                assert set(table) <= hat_edges
                assert pair_energy(table, np.full(triple.N, 3.3)) == pytest.approx(0.0)
                pd = perron_component(cache, comp, s)
                expected = (pd.eigenvalue * laplacian(form, pd.u_tilde)[j]) ** 2
                assert pair_energy(table, pd.u_tilde) == pytest.approx(expected, rel=1e-10)
                assert expected > 0
                # the table reproduces the squared functional on random data
                from eigenform_lab import project_g

                power = cache.word([j] * pd.period)
                for _ in range(5):
                    u = rng.normal(size=triple.N)
                    direct = laplacian(form, power @ project_g(u, comp, s))[j] ** 2
                    assert pair_energy(table, u) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_cell_operators_built_once_per_context(monkeypatch, gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    builds = []
    original = OperatorCache.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(OperatorCache, "__init__", counting)

    def count(call):
        builds.clear()
        out = call()
        return out, len(builds)

    # gasket's eigenform is positive, so decide_uniqueness also runs the
    # single-vertex cross-check, on the digraph's operators
    for triple, form in [(gasket, gasket_eigenform), (tree_gasket, tree_eigenform)]:
        dg, n = count(lambda: stability_digraph(triple, form, R3))
        assert n == 1
        verdict, n = count(lambda: decide_uniqueness(triple, form, R3, digraph=dg))
        assert n == 0
        _, n = count(lambda: decide_uniqueness(triple, form, R3))
        assert n == 1
    assert verdict.witnesses is not None
    _, n = count(lambda: explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict))
    assert n == 0


def test_verdict_carries_its_digraph(tree_gasket, tree_eigenform):
    dg = stability_digraph(tree_gasket, tree_eigenform, R3)
    assert decide_uniqueness(tree_gasket, tree_eigenform, R3, digraph=dg).digraph is dg
    built = decide_uniqueness(tree_gasket, tree_eigenform, R3).digraph
    assert (built.nodes, built.edges) == (dg.nodes, dg.edges)


def test_explore_refuses_a_verdict_for_another_context(tree_gasket, tree_eigenform):
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    other_form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 2.0})
    t = tree_gasket
    renamed = FractalTriple("renamed", t.N, t.k, t.num_vertices, t.cells)
    for triple, form, weights in [
        (tree_gasket, other_form, R3),
        (tree_gasket, tree_eigenform.scaled(2.0), R3),
        (tree_gasket, tree_eigenform, np.array([5.0, 2.0, 2.0])),
        (renamed, tree_eigenform, R3),
    ]:
        with pytest.raises(ValueError, match="another triple, form or weights"):
            explore_nonuniqueness(triple, form, weights, verdict)


def test_decide_refuses_a_digraph_for_another_context(tree_gasket, tree_eigenform):
    w = np.array([5.0, 2.0, 2.0])
    dg = stability_digraph(tree_gasket, tree_eigenform, w)
    other_form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 2.0})
    t = tree_gasket
    renamed = FractalTriple("renamed", t.N, t.k, t.num_vertices, t.cells)
    for triple, form, weights in [
        (tree_gasket, other_form, w),
        (tree_gasket, tree_eigenform, R3),
        (renamed, tree_eigenform, w),
    ]:
        with pytest.raises(ValueError, match="another triple, form or weights"):
            decide_uniqueness(triple, form, weights, digraph=dg)
    # the same context compares by value: a rebuilt form and a weight list pass
    same = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0})
    assert decide_uniqueness(tree_gasket, same, [5, 2, 2], digraph=dg).digraph is dg


def test_explore_tree_finds_new_eigenform(tree_gasket, tree_eigenform):
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    out = explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict, delta=0.1)
    assert out.result.converged
    assert not out.proportional
    ver = verify_eigenform(tree_gasket, R3, out.result.form)
    assert ver.converged


def test_explore_delta_zero_returns_multiple(tree_gasket, tree_eigenform):
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    out = explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict, delta=0.0)
    assert out.result.converged
    assert out.proportional


def test_explore_requires_witnesses(gasket, gasket_eigenform):
    verdict = decide_uniqueness(gasket, gasket_eigenform, R3)
    with pytest.raises(ValueError, match="witnesses"):
        explore_nonuniqueness(gasket, gasket_eigenform, R3, verdict)


def test_unique_case_perturbation_returns_to_multiple(gasket, gasket_eigenform):
    # perturbing a unique eigenform by any penalty drifts back to a multiple
    table = penalty_form(OperatorCache(gasket, gasket_eigenform, R3), components(gasket, 0), 0)
    coeffs = {
        pair: gasket_eigenform.coefficient(*pair) - 0.05 * table.get(pair, 0.0)
        for pair in [(0, 1), (0, 2), (1, 2)]
    }
    assert min(coeffs.values()) > 0
    res = find_eigenform(gasket, R3, init=DirichletForm(3, coeffs))
    assert res.converged
    vec = res.form.vector()
    assert np.max(np.abs(vec - vec[0])) <= 1e-9 * vec[0]
