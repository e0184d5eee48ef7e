"""Acceptance suite: one test per criterion, each at its stated tolerance.

The uniqueness witness labels here are 0-indexed (boundary vertex id, component
index); the equivalent 1-indexed labeling shifts both entries up by one.
"""

import time

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    builtin,
    components,
    decide_uniqueness,
    energy,
    explore_nonuniqueness,
    find_eigenform,
    hat_graph,
    laplacian,
    pair_list,
    perron_component,
    perron_positive,
    renormalize,
    stability_digraph,
    support_graph,
    validate,
    verify_eigenform,
)
from eigenform_lab._graphutil import adjacency
from eigenform_lab.cli import run
from eigenform_lab.jsonio import dumps, triple_to_dict
from eigenform_lab.renorm import OperatorCache
from eigenform_lab.uniqueness import _sink_sccs

from oracles import (
    constrained_extension,
    digraph_by_word_enumeration,
    harmonic_extension,
    harmonicity_functional,
    has_two_disjoint_closed_subsets,
    l_j_image,
    lift_edges_loop,
    project_g,
    two_level_form,
)

R3 = np.ones(3)
R5 = np.ones(5)


@pytest.fixture(scope="module")
def corpus(gasket, tree_gasket, vicsek, gasket_eigenform, tree_eigenform, vicsek_eigenform):
    return [
        (gasket, gasket_eigenform, R3, 0.6),
        (tree_gasket, tree_eigenform, R3, 0.5),
        (vicsek, vicsek_eigenform, R5, 1.0 / 3.0),
    ]


@pytest.mark.acceptance("1: gasket solves, rho=3/5, unique, < 1 s")
def test_criterion_1_gasket(gasket):
    start = time.perf_counter()
    res = find_eigenform(gasket, R3)
    verdict = decide_uniqueness(gasket, res.form, R3)
    elapsed = time.perf_counter() - start

    assert res.converged
    vec = res.form.vector()
    assert np.max(np.abs(vec - vec[0])) <= 1e-10 * vec[0]
    assert abs(res.rho - 0.6) <= 1e-9
    assert verdict.unique
    assert elapsed < 1.0


@pytest.mark.acceptance("2: tree-gasket family verified, witnesses, exploration")
def test_criterion_2_tree_gasket(tree_gasket, tree_eigenform):
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 1.0, 2.0, 5.0):
            form = DirichletForm(3, {(0, 1): a, (0, 2): b})
            res = verify_eigenform(tree_gasket, R3, form)
            assert res.converged, (a, b)
            assert abs(res.rho - 0.5) <= 1e-12, (a, b)

    verdict = decide_uniqueness(tree_gasket, tree_eigenform, R3)
    assert not verdict.unique
    got = {frozenset(w) for w in verdict.witnesses}
    assert got == {frozenset({(0, 0), (1, 0)}), frozenset({(0, 1), (2, 0)})}

    out = explore_nonuniqueness(tree_gasket, tree_eigenform, R3, verdict, delta=0.1)
    assert out.result.converged
    assert not out.proportional
    assert verify_eigenform(tree_gasket, R3, out.result.form).converged


@pytest.mark.acceptance("3: tree-gasket with weights (1,2,3) has no eigenform")
def test_criterion_3_mismatched_weights(tree_gasket):
    weights = np.array([1.0, 2.0, 3.0])
    res = find_eigenform(tree_gasket, weights)
    assert (not res.converged) or res.residual >= 1e-2

    candidates = [
        DirichletForm(3, {(0, 1): a, (0, 2): b})
        for a, b in [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]
    ]
    candidates.append(DirichletForm.ones(3))
    try:
        candidates.append(res.form)
    except ValueError:
        pass
    for form in candidates:
        try:
            ver = verify_eigenform(tree_gasket, weights, form, tol=1e-8)
        except ValueError:
            continue  # not even irreducible: certainly not accepted
        assert not ver.converged


@pytest.mark.acceptance("4: vicsek solves to a verified eigenform, nonunique")
def test_criterion_4_vicsek(vicsek):
    res = find_eigenform(vicsek, R5)
    assert res.converged
    assert verify_eigenform(vicsek, R5, res.form).converged
    verdict = decide_uniqueness(vicsek, res.form, R5)
    assert not verdict.unique


@pytest.mark.acceptance("5: every verified eigenform has the stable support graph")
def test_criterion_5_support_equals_hat(corpus, tree_gasket):
    checked = list(corpus)
    # include the exploration output from the tree family
    verdict = decide_uniqueness(tree_gasket, checked[1][1], R3)
    out = explore_nonuniqueness(tree_gasket, checked[1][1], R3, verdict, delta=0.1)
    checked.append((tree_gasket, out.result.form, R3, 0.5))
    for triple, form, weights, _ in checked:
        assert verify_eigenform(triple, weights, form).converged
        assert support_graph(form) == hat_graph(triple)


def _random_connected_cell_subset(triple, rng):
    adj = adjacency(
        triple.k,
        [
            (i1, i2)
            for i1 in range(triple.k)
            for i2 in range(i1 + 1, triple.k)
            if set(triple.cells[i1]) & set(triple.cells[i2])
        ],
    )
    size = int(rng.integers(1, triple.k + 1))
    subset = {int(rng.integers(0, triple.k))}
    while len(subset) < size:
        frontier = [y for x in subset for y in adj[x] if y not in subset]
        if not frontier:
            break
        subset.add(frontier[int(rng.integers(0, len(frontier)))])
    return sorted(subset)


def _interior_reach_sets(triple, hat):
    """Boundary vertices visible from each interior vertex through interior
    paths of the lifted stable graph."""
    adj = adjacency(triple.num_vertices, lift_edges_loop(triple, hat.edges))
    reach = {}
    for q in range(triple.N, triple.num_vertices):
        seen = {q}
        stack = [q]
        found = set()
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                if y < triple.N:
                    found.add(y)
                else:
                    stack.append(y)
        reach[q] = sorted(found)
    return reach


@pytest.mark.acceptance("6: identity suites at 1e-8 over 100+ draws per triple")
def test_criterion_6_identity_suites(corpus):
    rng = np.random.default_rng(2024)
    for triple, form, weights, rho in corpus:
        n = triple.N
        cache = OperatorCache(triple, form, weights)
        hat = hat_graph(triple)
        comp_by_j = {j: components(triple, j, hat) for j in range(n)}
        reach = _interior_reach_sets(triple, hat)

        # rescaling identity, extension bounds and positivity: 120 draws each
        for _ in range(120):
            u = rng.normal(size=n)
            j = int(rng.integers(0, n))
            m = int(rng.integers(1, 4))
            lhs = laplacian(form, u)[j]
            rhs = (weights[j] / rho) ** m * laplacian(form, cache.word([j] * m) @ u)[j]
            scale = max(abs(lhs), abs(rhs), form.max_coefficient() * np.ptp(u))
            assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-300)

            ext = harmonic_extension(triple, form, weights, u)
            for q in range(n, triple.num_vertices):
                vals = u[reach[q]]
                assert vals.min() - 1e-10 <= ext.values[q] <= vals.max() + 1e-10

            shifted = u - u.min()
            assert np.all(cache.ops[j] @ shifted >= -1e-12)

            # maximum principle over a random connected cell subset
            subset = _random_connected_cell_subset(triple, rng)
            vset = sorted({v for i in subset for v in triple.cells[i]})
            outside = {
                v
                for i in range(triple.k)
                if i not in subset
                for v in triple.cells[i]
            }
            border = [v for v in vset if v < n or v in outside]
            inner_vals = ext.values[vset]
            border_vals = ext.values[border]
            assert border_vals.max() >= inner_vals.max() - 1e-10
            assert border_vals.min() <= inner_vals.min() + 1e-10

        # eigenvalue formulas
        for j in range(n):
            comp = comp_by_j[j]
            for s in range(comp.m):
                pd = perron_component(cache, [(comp, s)])[0]
                expected = (rho / weights[j]) ** pd.period
                assert abs(pd.eigenvalue - expected) <= 1e-8 * expected
                assert 0.0 < pd.eigenvalue < 1.0
        vec = form.vector()
        if vec.min() > 1e-10 * vec.max():
            for j in range(n):
                _, value = perron_positive(cache, [j])[0]
                assert abs(value - rho / weights[j]) <= 1e-8 * value

        # two-level composition against the brute-force minimizer
        for _ in range(12):
            coeff = rng.uniform(0.2, 2.0, size=len(pair_list(n)))
            rand_form = DirichletForm(n, dict(zip(pair_list(n), coeff)))
            rand_w = rng.uniform(0.5, 2.0, size=triple.k)
            twice = renormalize(triple, renormalize(triple, rand_form, rand_w), rand_w)
            oracle = two_level_form(triple, rand_form, rand_w)
            scale = oracle.vector().max()
            assert np.max(np.abs(twice.vector() - oracle.vector())) <= 1e-8 * scale

        # pinned-boundary value equals the renormalized coefficient ratio
        lam = renormalize(triple, form, weights)
        for _ in range(30):
            j1 = int(rng.integers(0, n))
            j2 = int(rng.integers(0, n))
            if j1 == j2:
                continue
            fixed = {v: (1.0 if v == j2 else 0.0) for v in range(n) if v != j1}
            ext = constrained_extension(triple, form, weights, fixed)
            total = sum(lam.coefficient(j1, h) for h in range(n) if h != j1)
            expected = lam.coefficient(j1, j2) / total
            assert abs(ext.values[j1] - expected) <= 1e-8 * max(expected, 1e-300)

        # combinatorial images match operator positivity patterns exactly
        for j in range(n):
            for jp in range(n):
                if jp == j:
                    continue
                for m in range(1, 4):
                    basis = np.zeros(n)
                    basis[jp] = 1.0
                    numeric = cache.word([j] * m) @ basis
                    pattern = frozenset(np.flatnonzero(numeric > 1e-12 * max(numeric.max(), 1e-300)).tolist())
                    assert pattern == l_j_image(triple, j, [jp], m)
            # set version with random nonnegative data
            for _ in range(6):
                rest = [x for x in range(n) if x != j]
                mask = rng.random(size=len(rest)) < 0.5
                base = frozenset(np.array(rest)[mask].tolist())
                u = np.zeros(n)
                for x in base:
                    u[x] = rng.uniform(0.5, 2.0)
                for m in range(1, 4):
                    numeric = cache.word([j] * m) @ u
                    top = max(float(numeric.max()), 1e-300)
                    pattern = frozenset(np.flatnonzero(numeric > 1e-12 * top).tolist())
                    assert pattern == l_j_image(triple, j, base, m)

        # energy splits over components, and nonconstant data activates a node
        for _ in range(110):
            u = rng.normal(size=n)
            j = int(rng.integers(0, n))
            comp = comp_by_j[j]
            total = sum(energy(form, project_g(u, comp, s)) for s in range(comp.m))
            assert abs(total - energy(form, u)) <= 1e-8 * max(energy(form, u), 1e-300)
            if np.ptp(u) > 1e-9:
                best = max(
                    abs(harmonicity_functional(form, comp_by_j[jj], s, u))
                    for jj in range(n)
                    for s in range(comp_by_j[jj].m)
                )
                assert best > 1e-10 * form.max_coefficient() * np.ptp(u)


@pytest.mark.acceptance("7: span-based digraph equals word enumeration; sink criterion exhaustive")
def test_criterion_7_oracle_equivalence(corpus):
    for triple, form, weights, _ in corpus:
        dg = stability_digraph(triple, form, weights)
        comp_by_j = {j: components(triple, j) for j in range(triple.N)}
        brute = digraph_by_word_enumeration(triple, form, weights, comp_by_j, dg.payload)
        assert dg.edges == brute

        assert len(dg.nodes) <= 12
        sinks = _sink_sccs(dg.nodes, dg.edges)
        assert (len(sinks) == 1) == (
            not has_two_disjoint_closed_subsets(dg.nodes, dg.edges)
        )


@pytest.mark.acceptance("8: full corpus pipeline under 10 s")
def test_criterion_8_pipeline_wall_time(tmp_path, capsys):
    start = time.perf_counter()
    for name in ("gasket", "tree_gasket", "vicsek"):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(triple_to_dict(builtin(name))))
        for command in ("validate", "graphs", "solve", "check-uniqueness", "report"):
            assert run([command, str(path)]) == 0, (command, name)
            capsys.readouterr()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
