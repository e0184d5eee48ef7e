import dataclasses
import itertools
import random
import re
import types

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    builtin,
    components,
    find_eigenform,
    laplacian,
    perron_component,
    perron_positive,
)
from eigenform_lab import InternalConsistencyError, spectral
from eigenform_lab.forms import _support_mask
from eigenform_lab.renorm import OperatorCache
from oracles import (
    perron_component_by_node,
    perron_positive_by_vertex,
    pi_limit,
    pi_limit_by_iteration,
    project_g,
    project_g_tilde,
    random_valid_triples,
)

R3 = np.ones(3)


def test_dense_fallback_when_power_iteration_stalls(monkeypatch):
    # eigenvalues 1 +- sqrt(2)*1e-5 are too close for the power-iteration
    # budget; the fast block beside it leaves the lockstep after a few steps
    calls = []
    real = spectral._perron_dense

    def spy(matrix):
        calls.append(matrix.copy())
        return real(matrix)

    monkeypatch.setattr(spectral, "_perron_dense", spy)
    slow = np.array([[1.0, 1e-5], [2e-5, 1.0]])
    mats = np.array([[[2.0, 1.0], [1.0, 3.0]], slow])
    which, cuts = [0, 1, 0], [[0, 1], [0, 1], [1, 0]]
    vecs, values, errors = spectral._perron_blocks(mats[which], cuts, str)
    assert errors == [None, None, None]
    assert len(calls) == 1 and np.array_equal(calls[0], slow)
    assert values[1] == pytest.approx(1.0 + np.sqrt(2.0) * 1e-5, rel=1e-14)
    assert vecs[1, 0] > 0
    assert vecs[1, 1] / vecs[1, 0] == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert values[[0, 2]] == pytest.approx([(5.0 + np.sqrt(5.0)) / 2.0] * 2, rel=1e-14)
    assert vecs[2] == pytest.approx(vecs[0], rel=1e-14)
    for i, (w, cut) in enumerate(zip(which, cuts)):
        alone_vecs, alone_values, _ = spectral._perron_blocks(mats[[w]], [cut], str)
        assert np.array_equal(alone_vecs[0], vecs[i]) and alone_values[0] == values[i]
    assert len(calls) == 2


def _perron_cases(gen, fz1_doc, fz1_plain_limit_doc):
    """(cache, comp_by_j) over the built-ins, the simplex gaskets g4-g12, the
    Vicsek sets with 5-9 arms, matched tree-gasket weights, two composites,
    fz1's plain-limit eigenform, seeded relabellings of all of these, and
    seeded drawn triples with random weights."""
    from eigenform_lab.jsonio import parse_form, parse_fractal

    plain = [builtin(name) for name in ("gasket", "tree_gasket", "vicsek")]
    plain += [gen.simplex_gasket(d) for d in range(4, 13)] + [gen.vicsek(n) for n in range(5, 10)]
    inputs = [(t, [1.0] * t.k) for t in plain]
    inputs += [
        (builtin("tree_gasket"), [5.0, 2.0, 2.0]),
        gen.iterate(builtin("gasket"), 3),
        gen.iterate(builtin("vicsek"), 2),
    ]
    rng = random.Random(19)
    inputs += [gen.relabel(t, w, rng) for t, w in inputs]
    # the first 40 valid draws each converge or stop within a second
    inputs += list(itertools.islice(random_valid_triples(19, n_max=5, k_max=6), 40))
    forms = [None] * len(inputs)
    fz1, fz1_weights = parse_fractal(fz1_doc)
    inputs.append((fz1, fz1_weights))
    forms.append(parse_form(fz1_plain_limit_doc))
    out = []
    for (triple, weights), form in zip(inputs, forms):
        if form is None:
            result = find_eigenform(triple, weights)
            if not result.converged:
                continue
            form = result.form
        cache = OperatorCache(triple, form, np.asarray(weights, dtype=float))
        out.append((cache, {j: components(triple, j) for j in range(triple.N)}))
    return out


def _same_perron_data(got, want):
    return (
        (got.j, got.s, got.period) == (want.j, want.s, want.period)
        and np.array_equal(got.u_bar, want.u_bar)
        and np.array_equal(got.u_tilde, want.u_tilde)
        and got.eigenvalue == want.eigenvalue
    )


def test_stacked_perron_pairs_match_the_per_node_oracle(gen, fz1_doc, fz1_plain_limit_doc):
    # every node of a digraph in one call, against one power iteration per
    # node and against the node in a stack of its own, bit for bit
    nodes_checked = positive_checked = 0
    for cache, comp_by_j in _perron_cases(gen, fz1_doc, fz1_plain_limit_doc):
        nodes = [(comp, s) for comp in comp_by_j.values() for s in range(comp.m)]
        for (comp, s), got in zip(nodes, perron_component(cache, nodes), strict=True):
            assert _same_perron_data(got, perron_component_by_node(cache, comp, s))
            assert _same_perron_data(got, perron_component(cache, [(comp, s)])[0])
            nodes_checked += 1
        if _support_mask(cache.form).all():
            js = range(cache.triple.N)
            for j, (u_bar, value) in zip(js, perron_positive(cache, js), strict=True):
                want_bar, want_value = perron_positive_by_vertex(cache, j)
                alone_bar, alone_value = perron_positive(cache, [j])[0]
                assert np.array_equal(u_bar, want_bar) and value == want_value
                assert np.array_equal(u_bar, alone_bar) and value == alone_value
                positive_checked += 1
    assert (nodes_checked, positive_checked) == (324, 291)


def test_one_perron_pass_matches_the_separate_calls(gen, fz1_doc, fz1_plain_limit_doc):
    # the digraph's one pass, every node and for a positive form every
    # vertex, against perron_component and perron_positive called apart
    nodes_checked = positive_checked = 0
    for cache, comp_by_j in _perron_cases(gen, fz1_doc, fz1_plain_limit_doc):
        nodes = [(comp, s) for comp in comp_by_j.values() for s in range(comp.m)]
        positive = _support_mask(cache.form).all()
        js = range(cache.triple.N) if positive else []
        perron, pairs = spectral._perron_pass(cache, nodes, js)
        for got, want in zip(perron, perron_component(cache, nodes), strict=True):
            assert _same_perron_data(got, want)
            nodes_checked += 1
        for (u_bar, value), (want_bar, want_value) in zip(
            pairs, perron_positive(cache, js) if positive else [], strict=True
        ):
            assert np.array_equal(u_bar, want_bar) and value == want_value
            positive_checked += 1
    assert (nodes_checked, positive_checked) == (324, 291)


def test_one_perron_pass_raises_a_node_failure_before_a_vertex_failure(gasket, gasket_eigenform):
    # a zero in the cell-2 operator breaks the block of the node at j = 2 and
    # of the vertex 2; at j = 1 a component shrunk to vertex 0 leaks the
    # iterate, a failure found only after every block is checked
    ops = OperatorCache(gasket, gasket_eigenform, R3).ops.copy()
    ops[2, 0, 1] = 0.0
    stub = types.SimpleNamespace(
        triple=gasket,
        form=gasket_eigenform,
        ops=ops,
        power=lambda j, period: np.linalg.matrix_power(ops[j], period),
    )
    comp = {j: components(gasket, j) for j in range(3)}
    block = (comp[2], 0)
    leak = (dataclasses.replace(comp[1], components=((0,),)), 0)
    vertex_text = "restricted cell operator at j=2 is not entrywise positive"
    for nodes, js, text in [
        ([(comp[0], 0)], [2, 0], vertex_text),
        ([(comp[0], 0), block], [2, 0], "component-restricted operator at (j=2, s=0) is not entrywise positive"),
        ([leak, (comp[0], 0)], [2], None),
        ([(comp[0], 0), leak], [0, 2], None),
    ]:
        with pytest.raises(InternalConsistencyError) as caught:
            spectral._perron_pass(stub, nodes, js)
        if text is None:
            assert re.fullmatch(r"iterate at \(j=1, s=0\) leaks outside its component by .*", str(caught.value))
        else:
            assert str(caught.value) == text


def test_perron_positive_gasket(gasket, gasket_eigenform):
    u_bar, value = perron_positive(OperatorCache(gasket, gasket_eigenform, R3), [0])[0]
    assert np.allclose(u_bar, [0.0, 1.0, 1.0])
    assert value == pytest.approx(0.6)


def test_perron_positive_symmetry(gasket, gasket_eigenform):
    cache = OperatorCache(gasket, gasket_eigenform, R3)
    for j in range(3):
        u_bar, _ = perron_positive(cache, [j])[0]
        others = [p for p in range(3) if p != j]
        assert u_bar[others[0]] == pytest.approx(u_bar[others[1]])
        assert u_bar[j] == 0.0


def test_perron_positive_eigenvalue_relation(gasket, vicsek, gasket_eigenform, vicsek_eigenform):
    # for a verified eigenform the eigenvalue is rho over the cell weight
    from eigenform_lab import verify_eigenform

    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        rho = verify_eigenform(triple, r, form).rho
        cache = OperatorCache(triple, form, r)
        for j in range(triple.N):
            _, value = perron_positive(cache, [j])[0]
            assert value == pytest.approx(rho / r[j], rel=1e-10)
            assert 0.0 < value < 1.0


def test_perron_positive_requires_positive_form(tree_gasket, tree_eigenform):
    with pytest.raises(ValueError, match="positive"):
        perron_positive(OperatorCache(tree_gasket, tree_eigenform, R3), [0])


def test_perron_component_tree_j1(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 1)
    pd = perron_component(OperatorCache(tree_gasket, tree_eigenform, R3), [(comp, 0)])[0]
    assert np.allclose(pd.u_bar, [1.0, 0.0, 0.0])
    assert np.allclose(pd.u_tilde, [0.5, 0.0, 0.5])
    assert pd.eigenvalue == pytest.approx(0.5)
    assert pd.period == 1


def test_perron_component_refuses_a_vanishing_vertex(tree_gasket, tree_eigenform):
    # at j = 1 vertex 2 vanishes; counting it as surviving puts a zero row
    # in the restricted block
    comp = dataclasses.replace(components(tree_gasket, 1), c_prime=((0, 2),), c_second=((),))
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    with pytest.raises(
        InternalConsistencyError,
        match=r"component-restricted operator at \(j=1, s=0\) is not entrywise positive",
    ):
        perron_component(cache, [(comp, 0)])


def test_perron_positive_refuses_a_zero_in_its_block(gasket, gasket_eigenform):
    ops = OperatorCache(gasket, gasket_eigenform, R3).ops.copy()
    ops[0, 1, 2] = 0.0
    stub = types.SimpleNamespace(triple=gasket, form=gasket_eigenform, ops=ops)
    with pytest.raises(
        InternalConsistencyError, match=r"restricted cell operator at j=0 is not entrywise positive"
    ):
        perron_positive(stub, [0])


def _first_oracle_error(oracle, items):
    """Text of the error the per-node oracle raises first, item by item."""
    for item in items:
        try:
            oracle(*item)
        except InternalConsistencyError as exc:
            return str(exc)
    raise AssertionError("no item fails")


def test_perron_component_errors_name_the_first_failing_node(tree_gasket, tree_eigenform):
    # at j = 1 a component shrunk to its surviving vertex leaves part of the
    # iterate outside it, and one grown by the pivot vertex holds a zero of
    # it; at j = 2 counting the vanishing vertex 1 as surviving puts a zero
    # row in the block
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    comp = {j: components(tree_gasket, j) for j in range(3)}
    leak = (dataclasses.replace(comp[1], components=((0,),)), 0)
    low = (dataclasses.replace(comp[1], components=((0, 1, 2),)), 0)
    block = (dataclasses.replace(comp[2], c_prime=((0, 1),), c_second=((),)), 0)
    good = [(comp[0], 0), (comp[0], 1), (comp[2], 0)]
    texts = {
        leak: r"iterate at \(j=1, s=0\) leaks outside its component by 0\.49+",
        low: r"iterate at \(j=1, s=0\) is not positive on its component",
        block: r"component-restricted operator at \(j=2, s=0\) is not entrywise positive",
    }
    for nodes in [
        [good[0], leak, good[1]],
        [low, good[2]],
        [good[2], block],
        [good[0], leak, block],
        [block, good[1], leak],
        [low, block],
    ]:
        first = next(node for node in nodes if node in texts)
        want = _first_oracle_error(lambda c, s: perron_component_by_node(cache, c, s), nodes)
        assert re.fullmatch(texts[first], want)
        with pytest.raises(InternalConsistencyError) as caught:
            perron_component(cache, nodes)
        assert str(caught.value) == want


def test_perron_positive_errors_name_the_first_failing_vertex(gasket, gasket_eigenform):
    # a zero in the blocks at j = 1 and j = 2, and at j = 0 a positive block
    # whose Perron vector has an entry of about 1e-15
    ops = OperatorCache(gasket, gasket_eigenform, R3).ops.copy()
    ops[1, 0, 2] = ops[2, 1, 0] = 0.0
    ops[0, 1:, 1:] = [[1.0, 1e-15], [1e-15, 1e-15]]
    stub = types.SimpleNamespace(triple=gasket, form=gasket_eigenform, ops=ops)
    for js, text in [
        ([0], r"Perron vector is not strictly positive: \[1\.e\+00 1\.e-15\]"),
        ([1, 2], r"restricted cell operator at j=1 is not entrywise positive"),
        ([2, 1], r"restricted cell operator at j=2 is not entrywise positive"),
        ([2, 0, 1], r"restricted cell operator at j=2 is not entrywise positive"),
        ([0, 2], r"Perron vector is not strictly positive: .*"),
    ]:
        want = _first_oracle_error(lambda j: perron_positive_by_vertex(stub, j), [(j,) for j in js])
        assert re.fullmatch(text, want)
        with pytest.raises(InternalConsistencyError) as caught:
            perron_positive(stub, js)
        assert str(caught.value) == want


def test_perron_component_tree_j0(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 0)
    pd = perron_component(OperatorCache(tree_gasket, tree_eigenform, R3), [(comp, 0)])[0]
    assert np.allclose(pd.u_bar, [0.0, 1.0, 0.0])
    assert np.allclose(pd.u_tilde, [0.0, 0.5, 0.0])
    assert pd.eigenvalue == pytest.approx(0.5)


def test_perron_component_reduces_to_positive_case(gasket, gasket_eigenform):
    comp = components(gasket, 0)
    cache = OperatorCache(gasket, gasket_eigenform, R3)
    pd = perron_component(cache, [(comp, 0)])[0]
    u_bar, value = perron_positive(cache, [0])[0]
    assert np.allclose(pd.u_bar, u_bar)
    assert pd.eigenvalue == pytest.approx(value)
    assert np.allclose(pd.u_tilde, value * u_bar)


def test_perron_component_is_eigenvector(gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (tree_gasket, tree_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        cache = OperatorCache(triple, form, r)
        for j in range(triple.N):
            comp = components(triple, j)
            for s in range(comp.m):
                pd = perron_component(cache, [(comp, s)])[0]
                power = cache.word([j] * pd.period)
                assert np.allclose(power @ pd.u_tilde, pd.eigenvalue * pd.u_tilde, atol=1e-12)
                inside = list(comp.components[s])
                assert pd.u_tilde[inside].min() > 0
                assert np.max(np.abs(pd.u_bar)) == pytest.approx(1.0)
                # the pivot vertex feels the iterate from below
                assert laplacian(form, pd.u_tilde)[j] > 0


def test_project_g(tree_gasket):
    comp = components(tree_gasket, 1)
    g = project_g([0.0, 1.0, 0.0], comp, 0)
    assert np.allclose(g, [-1.0, 0.0, -1.0])
    assert np.allclose(project_g([5.0, 5.0, 5.0], comp, 0), 0.0)


def test_project_g_tilde(tree_gasket):
    comp = components(tree_gasket, 1)
    assert np.allclose(project_g_tilde([3.0, 4.0, 5.0], comp, 0), [3.0, 0.0, 0.0])


def test_pi_limit_on_eigenvector(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 1)
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    pd = perron_component(cache, [(comp, 0)])[0]
    assert pi_limit(cache, pd, pd.u_tilde) == pytest.approx(1.0)
    assert pi_limit(cache, pd, 2.0 * pd.u_tilde) == pytest.approx(2.0)


def test_pi_limit_nonharmonic_seed_is_nonzero(gasket, gasket_eigenform):
    rng = np.random.default_rng(31)
    comp = components(gasket, 0)
    cache = OperatorCache(gasket, gasket_eigenform, R3)
    pd = perron_component(cache, [(comp, 0)])[0]
    for _ in range(20):
        u = np.zeros(3)
        u[[1, 2]] = rng.normal(size=2)
        if abs(laplacian(gasket_eigenform, u)[0]) < 1e-6:
            continue
        assert abs(pi_limit(cache, pd, u)) > 1e-12


def test_pi_limit_rejects_data_off_component(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 0)
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    pd = perron_component(cache, [(comp, 0)])[0]
    with pytest.raises(ValueError, match="supported"):
        pi_limit(cache, pd, np.array([0.0, 1.0, 1.0]))


def test_rescaling_identity(gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    # the pivot-vertex response scales by (weight/rho)^n under operator powers
    rng = np.random.default_rng(32)
    for triple, form, rho in [
        (gasket, gasket_eigenform, 0.6),
        (tree_gasket, tree_eigenform, 0.5),
    ]:
        cache = OperatorCache(triple, form, R3)
        for _ in range(25):
            u = rng.normal(size=3)
            j = int(rng.integers(0, 3))
            n = int(rng.integers(1, 5))
            lhs = laplacian(form, u)[j]
            rhs = (1.0 / rho) ** n * laplacian(form, cache.word([j] * n) @ u)[j]
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_classification_matches_operator_positivity(tree_gasket, tree_eigenform):
    # members of the surviving part spread over the whole component; members of
    # the vanishing part die out
    cache = OperatorCache(tree_gasket, tree_eigenform, R3)
    for j in range(3):
        comp = components(tree_gasket, j)
        for s in range(comp.m):
            power = cache.word([j] * comp.periods[s])
            for jp in comp.c_prime[s]:
                col = power[:, jp]
                inside = list(comp.components[s])
                outside = [x for x in range(3) if x not in comp.components[s]]
                assert col[inside].min() > 0
                assert np.allclose(col[outside], 0.0)
            for jp in comp.c_second[s]:
                assert np.allclose(power[:, jp], 0.0)


def _pi_limit_cases(gen, twisted):
    tg, vk = builtin("tree_gasket"), builtin("vicsek")
    plain = [builtin("gasket"), tg, vk, twisted, gen.vicsek(6), gen.vicsek(8), gen.vicsek(9)]
    plain += [gen.simplex_gasket(4), gen.simplex_gasket(8)]
    cases = [(t, [1.0] * t.k) for t in plain]
    return cases + [(tg, [5.0, 2.0, 2.0]), gen.iterate(tg, 3), gen.iterate(vk, 2)]


def test_pi_limit_matches_iteration(gen, twisted_tree_gasket):
    # the left-eigenvector functional against the limit of the iteration it
    # replaces, on every node and on random data supported on the component.
    # The left Perron vector is nonnegative, so the limit of |u| bounds the
    # terms that cancel in the limit of u, and the error is relative to it.
    rng = np.random.default_rng(12)
    worst, compared = 0.0, 0
    for triple, weights in _pi_limit_cases(gen, twisted_tree_gasket):
        form = find_eigenform(triple, weights).form
        cache = OperatorCache(triple, form, weights)
        for j in range(triple.N):
            comp = components(triple, j)
            for s in range(comp.m):
                pd = perron_component(cache, [(comp, s)])[0]
                for _ in range(5):
                    u = np.zeros(triple.N)
                    u[list(comp.components[s])] = rng.normal(size=len(comp.components[s]))
                    want = pi_limit_by_iteration(cache, pd, u)
                    scale = pi_limit_by_iteration(cache, pd, np.abs(u))
                    assert want is not None and scale > 0.0
                    got = pi_limit(cache, pd, u)
                    worst = max(worst, abs(got - want) / scale)
                    compared += 1
    assert compared == 310
    assert worst <= 1e-12
