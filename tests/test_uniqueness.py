import dataclasses
import itertools
import random

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    FractalTriple,
    InternalConsistencyError,
    builtin,
    components,
    decide_uniqueness,
    explore_nonuniqueness,
    find_eigenform,
    hat_graph,
    laplacian,
    orbit_span,
    penalty_form,
    perron_component,
    stability_digraph,
    verify_eigenform,
)
from eigenform_lab import renorm, uniqueness
from eigenform_lab.forms import _support_mask
from eigenform_lab.renorm import OperatorCache
from eigenform_lab.uniqueness import _node_row, _sink_sccs

from oracles import (
    closed_subsets,
    digraph_by_word_enumeration,
    digraph_readout_by_span,
    harmonicity_functional,
    has_two_disjoint_closed_subsets,
    magnitudes_by_span,
    orbit_span_frozen,
    orbit_span_rounds,
    pair_energy,
    positive_case_edges_by_span,
    project_g,
    random_valid_triples,
    round_verdict,
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
    span = orbit_span(OperatorCache(gasket, gasket_eigenform, R3), [np.ones(3)])[0]
    assert span.shape[0] == 1
    assert in_span(np.ones(3) / np.sqrt(3), span)


def test_orbit_span_tree_two_dimensional(tree_gasket, tree_eigenform):
    span = orbit_span(OperatorCache(tree_gasket, tree_eigenform, R3), [[0.0, 1.0, 0.0]])[0]
    assert span.shape[0] == 2
    assert in_span([0.0, 1.0, 0.0], span)
    assert in_span([1.0, 0.0, 1.0], span)
    assert not in_span([1.0, 0.0, -1.0], span)


def test_orbit_span_gasket_full(gasket, gasket_eigenform):
    span = orbit_span(OperatorCache(gasket, gasket_eigenform, R3), [[0.0, 1.0, 1.0]])[0]
    assert span.shape[0] == 3


def test_orbit_span_invariance(tree_gasket, tree_eigenform):
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    span = orbit_span(cache, [[0.0, 1.0, 0.0]])[0]
    for i in range(3):
        for b in span:
            assert in_span(cache.ops[i] @ b, span)


class _StackedOps:
    """Bare operator stack, read the way ``OperatorCache`` is read."""

    def __init__(self, ops):
        self.ops = ops


def _sparse_draws():
    """Bare operator stacks, each with a seed: sparse operators leave many
    directions reachable through one image only, so an image skipped or taken
    out of order shows up as a missing direction."""
    rng = np.random.default_rng(46)
    shift = np.zeros((4, 5, 5))
    for i in range(4):
        shift[i, i + 1, 0] = 1.0
    draws = [(shift, np.eye(5)[0])]
    for _ in range(60):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        ops = rng.normal(size=(k, n, n)) * (rng.random((k, n, n)) < rng.uniform(0.05, 0.3))
        seed = rng.normal(size=n) * (rng.random(n) < 0.5)
        seed[int(rng.integers(n))] = 1.0
        draws.append((ops, seed))
    return draws


def test_orbit_span_matches_round_oracle(analysed):
    cases = [
        (triple, dg.cache, dg.payload[node].u_tilde, dg.spans[node])
        for triple, form, r, dg in analysed
        for node in dg.nodes
    ]
    for ops, seed in _sparse_draws():
        triple = type("Ops", (), {"N": ops.shape[1], "k": ops.shape[0]})
        cache = _StackedOps(ops)
        cases.append((triple, cache, seed, orbit_span(cache, [seed])[0]))
    for triple, cache, seed, got in cases:
        want = orbit_span_rounds(triple, cache, seed)
        assert got.shape == want.shape
        assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-10


def test_orbit_span_of_a_seed_ignores_the_rest_of_its_stack(gen, tree_gasket):
    # each stack is closed at once and seed by seed; g8 and vicsek8 share one
    # width, so each of their caches gets both node-seed sets, beside the
    # constants (an invariant line) and random seeds
    digraphs = []
    for triple in [gen.simplex_gasket(8), gen.vicsek(8), tree_gasket]:
        weights = np.ones(triple.k)
        digraphs.append(stability_digraph(triple, find_eigenform(triple, weights).form, weights))
    by_width = {}
    for dg in digraphs:
        by_width.setdefault(dg.cache.triple.N, []).extend(dg.payload[n].u_tilde for n in dg.nodes)
    rng = np.random.default_rng(47)
    stacks = []
    for dg in digraphs:
        n = dg.cache.triple.N
        stacks.append((dg.cache, np.vstack([by_width[n], np.ones(n), rng.normal(size=(2, n))])))
    for ops, seed in _sparse_draws():
        n = len(seed)
        seeds = np.vstack([seed, np.ones(n), np.eye(n)[0], rng.normal(size=n)])
        stacks.append((_StackedOps(ops), seeds))
    dims = []
    for cache, seeds in stacks:
        spans = orbit_span(cache, seeds)
        for seed, got in zip(seeds, spans):
            alone = orbit_span(cache, seed[None])[0]
            assert got.shape == alone.shape
            assert np.max(np.abs(got - alone)) <= 1e-14
        dims.append({len(got) for got in spans})
    # full spans beside 2- and 1-dimensional ones within one stack
    assert dims[:3] == [{1, 8}, {1, 2, 6}, {1, 2, 3}]


@pytest.mark.parametrize("eps", [3e-10, 1e-9, 1e-8, 1e-6])
def test_orbit_span_of_a_near_identity_stays_orthonormal(eps):
    # A = Q (I + eps e1 e0^T) Q^T takes q0 to q0 + eps q1 and fixes q1, so the
    # orbit of q0 spans q0 and q1.  The residual of A q0 is eps of its norm,
    # so one projection leaves it a rounding error along q0 far above
    # RANK_TOL of its length, which a later image would adjoin as a third
    # direction
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    shear = np.eye(3)
    shear[1, 0] = eps
    cache = _StackedOps((q @ shear @ q.T)[None])
    other = np.random.default_rng(1).standard_normal(3)
    alone = orbit_span(cache, q[:, 0][None])[0]
    assert alone.shape == (2, 3)
    assert np.max(np.abs(alone @ alone.T - np.eye(2))) <= 1e-14
    assert in_span(q[:, 0], alone)
    assert all(in_span(cache.ops[0] @ b, alone) for b in alone)
    stacked = orbit_span(cache, np.vstack([q[:, 0], other]))
    assert np.max(np.abs(stacked[0] - alone)) <= 1e-14
    other_alone = orbit_span(cache, other[None])[0]
    assert stacked[1].shape == other_alone.shape
    assert np.max(np.abs(stacked[1] - other_alone)) <= 1e-14


@pytest.mark.parametrize(
    "seeds, message",
    [
        (np.ones(3), r"orbit seeds must be an \(S, 3\) stack, got shape \(3,\)"),
        (np.ones((2, 4)), r"orbit seeds must be an \(S, 3\) stack, got shape \(2, 4\)"),
        (np.ones((1, 2, 3)), r"orbit seeds must be an \(S, 3\) stack"),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "orbit seed must be nonzero"),
    ],
)
def test_orbit_span_refuses_what_is_no_seed_stack(gasket, gasket_eigenform, seeds, message):
    with pytest.raises(ValueError, match=message):
        orbit_span(OperatorCache(gasket, gasket_eigenform, R3), seeds)


@pytest.fixture(scope="module")
def verified(analysed, gen, tree_gasket):
    """Verified eigenforms: the ``analysed`` cases, tree_gasket at weights
    (5, 2, 2), g4-g12, vicsek5-9 and the converged ones of 300 seeded draws."""
    cases = [(triple, form, r) for triple, form, r, _ in analysed]
    cases.append((tree_gasket, None, np.array([5.0, 2.0, 2.0])))
    for triple in [gen.simplex_gasket(d) for d in range(4, 13)] + [gen.vicsek(n) for n in range(5, 10)]:
        cases.append((triple, None, np.ones(triple.k)))
    # the first 300 valid draws bound the run time: draw 527 spends the
    # solver's whole iteration budget
    drawn = itertools.islice(random_valid_triples(1, n_max=5, k_max=6), 300)
    cases += [(triple, None, np.array(weights)) for triple, weights in drawn]
    out = []
    for triple, form, r in cases:
        if form is None:
            result = find_eigenform(triple, r)
            if not result.converged:
                continue
            form = result.form
        out.append((triple, form, r))
    assert len(out) == len(analysed) + 1 + 9 + 5 + 152
    return out


def test_digraph_matches_round_oracle_spans(verified):
    for triple, form, r in verified:
        verdict = decide_uniqueness(triple, form, r)
        want = round_verdict(triple, form, verdict.digraph)
        assert (verdict.digraph.edges, verdict.sink_sccs, verdict.witnesses) == want


def _bits(magnitudes):
    return list(magnitudes), np.array(list(magnitudes.values())).tobytes()


@pytest.mark.parametrize("phi_tol", [uniqueness.PHI_TOL, 1e-2])
def test_reach_matches_the_per_span_oracle(verified, phi_tol, monkeypatch):
    # the stacked table against one product per span: every magnitude bit
    # for bit and in order, and the edges, sinks, witnesses, warnings and
    # cross-check edges the digraph carries; at PHI_TOL = 1e-2 most edges
    # are borderline, so the warnings' text and order are compared in bulk
    monkeypatch.setattr(uniqueness, "PHI_TOL", phi_tol)
    warned = positive = 0
    for triple, form, r in verified:
        verdict = decide_uniqueness(triple, form, r)
        dg = verdict.digraph
        magnitudes, edges, warnings = digraph_readout_by_span(dg)
        assert _bits(dg.magnitudes) == _bits(magnitudes)
        assert (dg.edges, dg.warnings) == (edges, warnings)
        sinks = _sink_sccs(dg.nodes, edges)
        assert verdict.sink_sccs == sinks
        assert verdict.witnesses == ((sinks[0], sinks[1]) if len(sinks) > 1 else None)
        if _support_mask(form).all():
            assert dg.cross_check_edges == positive_case_edges_by_span(dg.cache)
            positive += 1
        else:
            assert dg.cross_check_edges is None
        warned += len(warnings)
    assert positive > 150
    assert (warned > 1000) == (phi_tol == 1e-2)


class _SpanSpy:
    """Stand-in for ``uniqueness.orbit_span`` that records every call's
    cache, seed stack and spans."""

    def __init__(self, monkeypatch):
        self.calls = []
        monkeypatch.setattr(uniqueness, "orbit_span", self)

    def __call__(self, cache, seeds):
        spans = orbit_span(cache, seeds)
        self.calls.append((cache, np.asarray(seeds, dtype=float), spans))
        return spans


def _benchmark_inputs(harness, rng):
    """Every benchmark input, relabelled once, with its weights and start;
    the built-ins named by the CLI corpus get unit weights."""
    out = []
    for cases in harness.CASES.values():
        for case in cases():
            if case.triple is None:
                triple = builtin(case.label)
                case = dataclasses.replace(case, triple=triple, weights=(1.0,) * triple.k)
            out.append(harness.prepare(case, rng))
    return out


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_stacked_spans_match_the_frozen_closure(verified, harness, monkeypatch):
    # every span the digraph closes, node seeds and the positive-form
    # cross-check's seeds in one stack, has the bits of the frozen closure
    # run on each seed set alone
    spy = _SpanSpy(monkeypatch)
    cases = list(verified)
    for triple, weights, init in _benchmark_inputs(harness, random.Random(48)):
        result = find_eigenform(triple, weights, init=init)
        if result.converged:
            cases.append((triple, result.form, np.asarray(weights)))
    # tree_gasket at weights (1, 2, 3) has no eigenform
    assert len(cases) == len(verified) + 16
    stacked = 0
    for triple, form, r in cases:
        spy.calls.clear()
        dg = stability_digraph(triple, form, r)
        [(cache, seeds, spans)] = spy.calls
        nodes = len(dg.nodes)
        node_seeds = np.array([dg.payload[node].u_tilde for node in dg.nodes])
        assert seeds[:nodes].tobytes() == node_seeds.tobytes()
        assert len(seeds) == nodes + (triple.N if _support_mask(form).all() else 0)
        _same_bits(spans[:nodes], orbit_span_frozen(cache, seeds[:nodes]))
        _same_bits(spans[:nodes], list(dg.spans.values()))
        if len(seeds) > nodes:
            _same_bits(spans[nodes:], orbit_span_frozen(cache, seeds[nodes:]))
            stacked += 1
    assert stacked > 150
    rng = np.random.default_rng(49)
    for ops, seed in _sparse_draws():
        n = len(seed)
        cache = _StackedOps(ops)
        first, second = np.vstack([seed, np.ones(n)]), np.vstack([np.eye(n)[0], rng.normal(size=n)])
        spans = orbit_span(cache, np.vstack([first, second]))
        _same_bits(spans[:2], orbit_span_frozen(cache, first))
        _same_bits(spans[2:], orbit_span_frozen(cache, second))


def test_one_span_closure_per_digraph(monkeypatch, gen, gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    # the digraph closes its spans, and a positive form's cross-check spans,
    # in one orbit_span call and finds the nodes' Perron data and the
    # cross-check's seeds in one Perron pass; deciding on that digraph makes
    # neither call
    spy = _SpanSpy(monkeypatch)
    perron = []
    real = uniqueness._perron_pass

    def counting(cache, nodes, js):
        perron.append((cache, len(nodes), list(js)))
        return real(cache, nodes, js)

    monkeypatch.setattr(uniqueness, "_perron_pass", counting)
    g8 = gen.simplex_gasket(8)
    r8 = np.ones(g8.k)
    cases = [
        (gasket, gasket_eigenform, R3, True),
        (g8, find_eigenform(g8, r8).form, r8, True),
        (tree_gasket, tree_eigenform, R3, False),
    ]
    for triple, form, r, positive in cases:
        spy.calls.clear()
        perron.clear()
        dg = stability_digraph(triple, form, r)
        assert [cache for cache, _, _ in spy.calls] == [dg.cache]
        js = list(range(triple.N)) if positive else []
        assert perron == [(dg.cache, len(dg.nodes), js)]
        assert (dg.cross_check_edges is None) == (not positive)
        spy.calls.clear()
        perron.clear()
        verdict = decide_uniqueness(triple, form, r, digraph=dg)
        assert (spy.calls, perron) == ([], [])
        assert verdict.unique == positive
        if positive:
            assert dg.cross_check_edges == dg.edges
            # a carried edge set that differs from the digraph's is refused
            kept = set(sorted(dg.edges)[1:])
            with pytest.raises(InternalConsistencyError, match="digraphs differ"):
                decide_uniqueness(
                    triple, form, r, digraph=dataclasses.replace(dg, cross_check_edges=kept)
                )


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
    # the per-span oracle skips a zero vector; orbit spans never hold one
    span = np.array([[0.0, 0.0, 0.0], [0.6, -0.8, 0.0]])
    rows = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 2.0]])
    got = magnitudes_by_span(span, rows, 2.0)
    assert got.tolist() == [0.6 / (2.0 * 0.8), 0.0]
    assert magnitudes_by_span(span[:1], rows, 2.0).tolist() == [0.0, 0.0]


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


def test_edge_threshold_has_one_source(monkeypatch, gasket, gasket_eigenform):
    # the gasket's edge magnitudes are 2.0, 2.667 and 3.333: the digraph and
    # the positive-form cross-check both read PHI_TOL when called, so they
    # keep the same three edges and agree
    monkeypatch.setattr(uniqueness, "PHI_TOL", 3.0)
    verdict = decide_uniqueness(gasket, gasket_eigenform, R3)
    assert verdict.unique
    assert verdict.digraph.edges == {((0, 0), (1, 0)), ((1, 0), (0, 0)), ((2, 0), (0, 0))}


def test_digraph_requires_matching_support(tree_gasket, tree_eigenform):
    # both forms have the complete support; the stable graph is (0,1), (0,2)
    message = "requires a verified eigenform; the support graph does not match"
    for bad in [DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.5}), DirichletForm.ones(3)]:
        with pytest.raises(ValueError, match=message):
            stability_digraph(tree_gasket, bad, R3)
        with pytest.raises(ValueError, match=message):
            decide_uniqueness(tree_gasket, bad, R3)
    assert verify_eigenform(tree_gasket, R3, tree_eigenform).converged
    assert stability_digraph(tree_gasket, tree_eigenform, R3).nodes


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


def test_node_powers_are_words_of_one_cell(
    gen, tree_gasket, vicsek, twisted_tree_gasket, tree_eigenform, vicsek_eigenform
):
    # every node's power, as perron_component, penalty_form and pi_limit read
    # it, has the bits of the word of ``period`` copies of its cell; both
    # components at the twisted tree gasket's vertex 0 have period 2
    cases = [(tree_gasket, tree_eigenform, R3), (vicsek, vicsek_eigenform, np.ones(5))]
    triple, r = gen.vicsek(8), np.ones(9)
    cases.append((triple, find_eigenform(triple, r).form, r))
    cases.append((twisted_tree_gasket, DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0}), R3))
    periods = set()
    for triple, form, r in cases:
        dg = stability_digraph(triple, form, r)
        for (j, _), pdata in dg.payload.items():
            periods.add(pdata.period)
            power = dg.cache.power(j, pdata.period)
            assert power.tobytes() == dg.cache.word((j,) * pdata.period).tobytes()
            if pdata.period == 1:
                assert power.tobytes() == dg.cache.ops[j].tobytes()
    assert periods == {1, 2}


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
                pd = perron_component(cache, [(comp, s)])[0]
                expected = (pd.eigenvalue * laplacian(form, pd.u_tilde)[j]) ** 2
                assert pair_energy(table, pd.u_tilde) == pytest.approx(expected, rel=1e-10)
                assert expected > 0
                # the table reproduces the squared functional on random data
                power = cache.word([j] * pd.period)
                for _ in range(5):
                    u = rng.normal(size=triple.N)
                    direct = laplacian(form, power @ project_g(u, comp, s))[j] ** 2
                    assert pair_energy(table, u) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_cell_operators_built_once_per_context(
    monkeypatch, gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform
):
    # every build, keyed by value; the context slot may only save builds, so
    # no (triple, form, weights) is built twice within one measurement
    builds = []
    original = OperatorCache.__init__

    def counting(self, triple, form, weights):
        builds.append((triple, form.matrix().tobytes(), np.asarray(weights, float).tobytes()))
        original(self, triple, form, weights)

    monkeypatch.setattr(OperatorCache, "__init__", counting)

    def count(key, *calls):
        """Run ``calls`` in turn from an empty slot; builds of ``key``."""
        monkeypatch.setattr(renorm, "_last", None)
        builds.clear()
        out = [call() for call in calls]
        assert len(builds) == len(set(builds))
        return out[-1], builds.count(key)

    # gasket's eigenform is positive, so decide_uniqueness also runs the
    # single-vertex cross-check, on the digraph's operators
    for triple, form in [(gasket, gasket_eigenform), (tree_gasket, tree_eigenform)]:
        key = (triple, form.matrix().tobytes(), R3.tobytes())
        dg, n = count(key, lambda: stability_digraph(triple, form, R3))
        assert n == len(builds) == 1
        verdict, n = count(key, lambda: decide_uniqueness(triple, form, R3, digraph=dg))
        assert n == len(builds) == 0
        _, n = count(key, lambda: decide_uniqueness(triple, form, R3))
        assert n == len(builds) == 1
        _, n = count(
            key,
            lambda: stability_digraph(triple, form, R3),
            lambda: decide_uniqueness(triple, form, R3, digraph=dg),
            lambda: decide_uniqueness(triple, form, R3),
        )
        assert n == len(builds) == 1
    assert verdict.witnesses is not None
    # the exploration's own search builds one context per iterate, none of
    # them the verdict's
    _, n = count(key, lambda: explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict))
    assert n == 0
    # the search builds one context per step and leaves the last in the
    # slot, so verifying and analysing the form it returns builds none
    for triple in (gasket, tree_gasket, vicsek):
        weights = [1.0] * triple.k
        res, _ = count(None, lambda: find_eigenform(triple, weights))
        assert res.converged
        assert len(builds) == res.iterations
        builds.clear()
        verify_eigenform(triple, weights, res.form)
        dg = stability_digraph(triple, res.form, weights)
        decide_uniqueness(triple, res.form, weights, digraph=dg)
        decide_uniqueness(triple, res.form, weights)
        assert builds == []


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


def test_explore_tiny_form_is_proportional(tree_gasket, tree_eigenform):
    # the form's squared norm underflows to zero at this scale
    tiny = tree_eigenform.scaled(1e-170)
    verdict = decide_uniqueness(tree_gasket, tiny, R3)
    out = explore_nonuniqueness(tree_gasket, tiny, R3, verdict, delta=0.0)
    assert out.proportional


def test_cross_check_refuses_a_digraph_with_dropped_edges(gasket, gasket_eigenform):
    dg = stability_digraph(gasket, gasket_eigenform, R3)
    kept = set(sorted(dg.edges)[::2])
    assert kept != dg.edges
    with pytest.raises(
        InternalConsistencyError,
        match="single-vertex and component-based digraphs differ for a positive form",
    ):
        decide_uniqueness(
            gasket, gasket_eigenform, R3, digraph=dataclasses.replace(dg, edges=kept)
        )


@pytest.mark.parametrize("delta", [1e19, 1e30, 1.7e308])
@pytest.mark.parametrize("name", ["tree_gasket", "vicsek"])
def test_explore_halves_any_finite_delta_into_the_cone(name, delta, request):
    # halving stops by delta = 0, where the start is the verified form
    triple = request.getfixturevalue(name)
    weights = np.ones(triple.k)
    form = find_eigenform(triple, weights).form
    verdict = decide_uniqueness(triple, form, weights)
    out = explore_nonuniqueness(triple, form, weights, verdict, delta=delta)
    assert out.result.converged
    assert 0.0 < out.delta < delta


def test_explore_halves_a_start_that_overflows(monkeypatch, tree_gasket, tree_eigenform):
    # a negative penalty raises a coefficient; at the largest delta it
    # overflows to inf, which is no form, so the start is halved once
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    # both nodes of the second witness set read this table: -2 in all
    monkeypatch.setattr(uniqueness, "penalty_form", lambda *args: {(0, 1): -1.0})
    starts = []
    real = uniqueness.find_eigenform

    def spy(triple, weights, init):
        starts.append(init.vector())
        return real(triple, weights)

    monkeypatch.setattr(uniqueness, "find_eigenform", spy)
    out = explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict, delta=1.7e308)
    assert out.delta == 1.7e308 / 2
    assert starts[0].tolist() == [1.0 + 1.7e308, 1.0, 0.0]


def test_explore_refuses_a_form_outside_the_cone(monkeypatch, tree_gasket, tree_eigenform):
    # only a hand-built verdict can carry a form with a zero stable-graph
    # coefficient; halving down to delta = 0 cannot admit it
    form = DirichletForm(3, {(0, 1): 1.0, (1, 2): 1.0})
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    digraph = dataclasses.replace(verdict.digraph, cache=OperatorCache(tree_gasket, form, R3))
    verdict = dataclasses.replace(verdict, digraph=digraph)
    monkeypatch.setattr(uniqueness, "penalty_form", lambda *args: {(0, 1): 1.0})
    with pytest.raises(ValueError, match="outside the admissible cone"):
        explore_nonuniqueness(tree_gasket, form, R3, verdict)


@pytest.mark.parametrize("delta", [-0.1, np.nan, np.inf])
def test_explore_rejects_a_negative_or_nan_delta(tree_gasket, tree_eigenform, delta):
    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict, delta=delta)


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
