import random

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    InternalConsistencyError,
    SingularInteriorError,
    builtin,
    builtin_names,
    constrained_extension,
    find_eigenform,
    harmonic_extension,
    lambda_graph,
    one_step_energy,
    pair_list,
    renormalize,
    support_graph,
)
from eigenform_lab.renorm import (
    OperatorCache,
    _component_labels,
    _pair_images,
    conductance_laplacian,
)

from oracles import check_reachable_bfs, conductance_laplacian_loop, two_level_form

R3 = np.ones(3)


def random_irreducible_form(rng, n):
    vec = rng.uniform(0.2, 2.0, size=len(pair_list(n)))
    # knock out some pairs while keeping a spanning path
    for idx, (a, b) in enumerate(pair_list(n)):
        if b != a + 1 and rng.random() < 0.5:
            vec[idx] = 0.0
    return DirichletForm(n, {p: v for p, v in zip(pair_list(n), vec)})


def test_one_step_energy_constant(gasket, gasket_eigenform):
    assert one_step_energy(gasket, gasket_eigenform, R3, np.full(6, 2.5)) == 0.0


def test_one_step_energy_gasket_value(gasket, gasket_eigenform):
    v = np.array([1.0, 0.0, 0.0, 0.4, 0.4, 0.2])
    assert one_step_energy(gasket, gasket_eigenform, R3, v) == pytest.approx(1.2)


def test_one_step_energy_dominates_renormalized(gasket, gasket_eigenform):
    lam = renormalize(gasket, gasket_eigenform, R3)
    rng = np.random.default_rng(11)
    from eigenform_lab import energy

    for _ in range(25):
        v = rng.normal(size=6)
        assert one_step_energy(gasket, gasket_eigenform, R3, v) >= energy(lam, v[:3]) - 1e-12


def test_harmonic_extension_constant(gasket, gasket_eigenform):
    ext = harmonic_extension(gasket, gasket_eigenform, R3, [4.0, 4.0, 4.0])
    assert np.allclose(ext.values, 4.0)
    assert ext.achieved_energy == pytest.approx(0.0, abs=1e-15)


def test_harmonic_extension_gasket(gasket, gasket_eigenform):
    ext = harmonic_extension(gasket, gasket_eigenform, R3, [1.0, 0.0, 0.0])
    assert np.allclose(ext.values[:3], [1.0, 0.0, 0.0])
    assert np.allclose(ext.values[3:], [0.4, 0.4, 0.2])
    assert ext.achieved_energy == pytest.approx(1.2)


def test_harmonic_extension_tree(tree_gasket):
    # dangling vertices copy their neighbor, chain midpoints average endpoints
    for a, b in [(1.0, 1.0), (2.0, 0.5)]:
        form = DirichletForm(3, {(0, 1): a, (0, 2): b})
        ext = harmonic_extension(tree_gasket, form, R3, [1.0, 0.0, 0.0])
        assert np.allclose(ext.values[3:], [0.5, 0.5, 0.5, 0.5])


def test_constrained_extension_full_boundary_matches(gasket, gasket_eigenform):
    u = np.array([0.3, -1.2, 0.9])
    free = harmonic_extension(gasket, gasket_eigenform, R3, u)
    fixed = constrained_extension(gasket, gasket_eigenform, R3, {0: u[0], 1: u[1], 2: u[2]})
    assert np.allclose(free.values, fixed.values)
    assert free.achieved_energy == pytest.approx(fixed.achieved_energy)


def test_constrained_extension_constant(gasket, gasket_eigenform):
    ext = constrained_extension(gasket, gasket_eigenform, R3, {1: 2.0, 5: 2.0})
    assert np.allclose(ext.values, 2.0)


def test_constrained_extension_coefficient_ratio(gasket, gasket_eigenform):
    # pin data on all boundary vertices but one; the free boundary value is the
    # coefficient ratio of the renormalized form
    lam = renormalize(gasket, gasket_eigenform, R3)
    ext = constrained_extension(gasket, gasket_eigenform, R3, {1: 1.0, 2: 0.0})
    expected = lam.coefficient(0, 1) / (lam.coefficient(0, 1) + lam.coefficient(0, 2))
    assert ext.values[0] == pytest.approx(expected, rel=1e-12)


def test_renormalize_gasket(gasket, gasket_eigenform):
    lam = renormalize(gasket, gasket_eigenform, R3)
    assert np.allclose(lam.vector(), 0.6)


def test_renormalize_tree_family(tree_gasket):
    for a, b in [(1.0, 1.0), (2.0, 1.0), (0.5, 5.0)]:
        lam = renormalize(tree_gasket, DirichletForm(3, {(0, 1): a, (0, 2): b}), R3)
        assert np.allclose(lam.vector(), [a / 2, b / 2, 0.0])
        assert lam.coefficient(1, 2) == 0.0


def test_renormalize_homogeneous(gasket):
    rng = np.random.default_rng(12)
    form = random_irreducible_form(rng, 3)
    c = 3.7
    lam = renormalize(gasket, form, R3)
    lam_scaled = renormalize(gasket, form.scaled(c), R3)
    assert np.allclose(lam_scaled.vector(), c * lam.vector(), rtol=1e-12)


def test_cell_operator_gasket_rows(gasket, gasket_eigenform):
    m = OperatorCache(gasket, gasket_eigenform, R3).cell(0)
    assert np.allclose(m, [[1, 0, 0], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4]])


def test_cell_operator_tree(tree_gasket, tree_eigenform):
    m = OperatorCache(tree_gasket, tree_eigenform, R3).cell(1)
    u = np.array([1.0, 0.0, 0.0])
    assert np.allclose(m @ u, [0.5, 0.0, 0.5])


def test_cell_operator_rows(gasket, vicsek, gasket_eigenform, vicsek_eigenform):
    # constants extend to constants; boundary rows are standard basis rows
    for triple, form, r in [
        (gasket, gasket_eigenform, R3),
        (vicsek, vicsek_eigenform, np.ones(5)),
    ]:
        cache = OperatorCache(triple, form, r)
        for i in range(triple.k):
            m = cache.cell(i)
            assert np.allclose(m.sum(axis=1), 1.0)
            for p in range(triple.N):
                v = triple.cells[i][p]
                if v < triple.N:
                    expected = np.zeros(triple.N)
                    expected[v] = 1.0
                    assert np.allclose(m[p], expected)


def test_word_operator_identity_and_products(gasket, gasket_eigenform):
    cache = OperatorCache(gasket, gasket_eigenform, R3)
    assert np.allclose(cache.word([]), np.eye(3))
    manual = cache.cell(0) @ cache.cell(2) @ cache.cell(1)
    assert np.allclose(cache.word([0, 2, 1]), manual)
    assert np.allclose(manual.sum(axis=1), 1.0)


def test_extension_positivity(gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    rng = np.random.default_rng(13)
    for triple, form in [(gasket, gasket_eigenform), (tree_gasket, tree_eigenform)]:
        cache = OperatorCache(triple, form, R3)
        for _ in range(40):
            u = rng.uniform(0.0, 3.0, size=triple.N)
            for i in range(triple.k):
                assert np.all(cache.cell(i) @ u >= -1e-14)


def test_extension_bounds_through_interior(gasket, gasket_eigenform):
    # each interior value stays inside the range of the boundary data it can
    # reach through interior support-graph paths; on the gasket that is all of it
    rng = np.random.default_rng(14)
    for _ in range(30):
        u = rng.normal(size=3)
        ext = harmonic_extension(gasket, gasket_eigenform, R3, u)
        assert np.all(ext.values[3:] >= u.min() - 1e-12)
        assert np.all(ext.values[3:] <= u.max() + 1e-12)


def test_singular_interior_reports_vertex(gasket):
    # support {0,1} only: the cell-2 copy hangs off the boundary with no path back
    lonely = DirichletForm(3, {(0, 1): 1.0})
    for solve in (
        lambda: harmonic_extension(gasket, lonely, R3, [1.0, 0.0, 0.0]),
        lambda: constrained_extension(gasket, lonely, R3, {0: 1.0, 1: 0.0, 2: 0.0}),
        lambda: renormalize(gasket, lonely, R3),
        lambda: OperatorCache(gasket, lonely, R3),
    ):
        with pytest.raises(SingularInteriorError) as err:
            solve()
        assert err.value.vertex in (4, 5)


def test_conductance_laplacian_matches_loop_oracle(gen):
    # same additions in the same order as the entry-by-entry loop, so the
    # result must agree to the last bit, not just within round-off
    triples = [builtin(name) for name in builtin_names()]
    triples += [gen.iterate(builtin(name), 3)[0] for name in builtin_names()]
    triples.append(gen.iterate(gen.simplex_gasket(4), 2)[0])
    rng = np.random.default_rng(18)
    for triple in triples:
        n_pairs = len(pair_list(triple.N))
        forms = [DirichletForm(triple.N, {})]
        for _ in range(3):
            vec = 10.0 ** rng.uniform(-8, 8, size=n_pairs)
            vec[rng.random(n_pairs) < 0.3] = 0.0
            forms.append(DirichletForm(triple.N, dict(zip(pair_list(triple.N), vec))))
        for form in forms:
            weights = 10.0 ** rng.uniform(-8, 8, size=triple.k)
            got = conductance_laplacian(triple, form, weights)
            want = conductance_laplacian_loop(triple, form, weights)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_semigroup_against_two_level_oracle(gasket, tree_gasket, vicsek):
    rng = np.random.default_rng(15)
    for triple in (gasket, tree_gasket, vicsek):
        for _ in range(5):
            form = random_irreducible_form(rng, triple.N)
            weights = rng.uniform(0.5, 2.0, size=triple.k)
            twice = renormalize(triple, renormalize(triple, form, weights), weights)
            oracle = two_level_form(triple, form, weights)
            scale = oracle.vector().max()
            assert np.max(np.abs(twice.vector() - oracle.vector())) <= 1e-10 * scale


def test_support_functoriality(gasket, tree_gasket, vicsek):
    # the support of the renormalized form is the propagated support graph
    rng = np.random.default_rng(16)
    for triple in (gasket, tree_gasket, vicsek):
        for _ in range(8):
            form = random_irreducible_form(rng, triple.N)
            lam = renormalize(triple, form, np.ones(triple.k))
            assert support_graph(lam) == lambda_graph(triple, support_graph(form))


def _reach_outcome(call):
    """``(vertex, message)`` of the reachability failure ``call`` raises, or
    ``None`` when it gets past the check.  Failures after the check (a
    numerically singular block, a negative renormalized coefficient when
    conductances span many decades) count as getting past it."""
    try:
        call()
    except SingularInteriorError as exc:
        if str(exc) != "interior block is numerically singular":
            return exc.vertex, str(exc)
    except InternalConsistencyError:
        pass
    return None


def _oracle_outcome(triple, form, weights, free, fixed):
    lap = conductance_laplacian_loop(triple, form, weights)
    return _reach_outcome(lambda: check_reachable_bfs(triple, lap, free, fixed))


def _boundary_fixed_outcomes(triple, form, weights):
    """Reachability outcome of every consumer that fixes the boundary."""
    u = np.linspace(1.0, 0.0, triple.N)
    return [
        _reach_outcome(solve)
        for solve in (
            lambda: harmonic_extension(triple, form, weights, u),
            lambda: renormalize(triple, form, weights),
            lambda: OperatorCache(triple, form, weights),
        )
    ]


def test_reachability_matches_bfs_oracle(gen, twisted_tree_gasket):
    # seeded forms with exact zeros (the empty form and gasket's lonely
    # (0,1)-only form among them) and weights over sixteen decades; every
    # consumer must raise exactly where, at the vertex and with the message
    # the per-solve search does
    triples = [builtin(name) for name in builtin_names()] + [twisted_tree_gasket]
    triples += [gen.iterate(builtin(name), 3)[0] for name in builtin_names()]
    triples += [gen.simplex_gasket(d) for d in range(4, 9)]
    rng = np.random.default_rng(19)
    seen = set()
    for triple in triples:
        n, nv = triple.N, triple.num_vertices
        pairs = pair_list(n)
        forms = [DirichletForm(n, {}), DirichletForm(n, {(0, 1): 1.0})]
        for _ in range(4):
            vec = 10.0 ** rng.uniform(-8, 8, size=len(pairs))
            vec[rng.random(len(pairs)) < 0.4] = 0.0
            forms.append(DirichletForm(n, dict(zip(pairs, vec))))
        for form in forms:
            weights = 10.0 ** rng.uniform(-8, 8, size=triple.k)
            want = _oracle_outcome(triple, form, weights, range(n, nv), range(n))
            assert _boundary_fixed_outcomes(triple, form, weights) == [want] * 3
            seen.add(want is None)
            for size in (rng.integers(1, n + 1), rng.integers(1, nv + 1)):
                fixed = sorted(rng.choice(nv, size=size, replace=False).tolist())
                free = [v for v in range(nv) if v not in fixed]
                values = {v: float(rng.normal()) for v in fixed}
                got = _reach_outcome(lambda: constrained_extension(triple, form, weights, values))
                assert got == _oracle_outcome(triple, form, weights, free, fixed)
    assert seen == {True, False}


def test_reachability_reads_underflowed_conductances(tree_gasket):
    # every pair carries a coefficient, but in cell 2 the products 1e-200 *
    # 1e-200 underflow to zero: the check reads the Laplacian's live slots,
    # not the form's support, and finds vertex 6 cut off
    form = DirichletForm(3, {(0, 1): 1e-200, (0, 2): 1.0, (1, 2): 1e-200})
    weights = np.array([1.0, 1.0, 1e-200])
    want = (6, "interior vertex 6 has no conductance path to the boundary")
    assert _oracle_outcome(tree_gasket, form, weights, range(3, 7), range(3)) == want
    assert _boundary_fixed_outcomes(tree_gasket, form, weights) == [want] * 3
    boundary = {0: 1.0, 1: 0.0, 2: 0.0}
    got = _reach_outcome(lambda: constrained_extension(tree_gasket, form, weights, boundary))
    assert got == want


def test_component_labels_key_on_cells(gen):
    # relabellings share name, N, k and vertex count with the original, and
    # uniform weights give them the same live-slot pattern, so only the cells
    # tell the cache entries apart
    for triple in (gen.simplex_gasket(8), gen.vicsek(6), gen.iterate(builtin("tree_gasket"), 3)[0]):
        ones = np.ones(triple.k)
        for s in range(3):
            other = gen.relabel(triple, list(ones), random.Random(s))[0]
            assert (other.name, other.N, other.k, other.num_vertices) == (
                triple.name, triple.N, triple.k, triple.num_vertices
            )
            assert other.cells != triple.cells
            for form in (DirichletForm(triple.N, {(0, 1): 1.0}), DirichletForm.ones(triple.N)):
                for t in (triple, other, triple, other):
                    pq = _pair_images(t)
                    lap = conductance_laplacian(t, form, ones)
                    live = (lap[pq[:, 0], pq[:, 1]] != 0.0).tobytes()
                    assert _component_labels(t, live) == _component_labels.__wrapped__(t, live)
                    got = _reach_outcome(lambda: constrained_extension(t, form, ones, {0: 1.0}))
                    assert got == _oracle_outcome(t, form, ones, range(1, t.num_vertices), [0])


def test_component_labels_built_once_per_search():
    # the conductance pattern stays put while the solver iterates (here 217
    # times, to a form off the stable support), so one search labels the
    # network once or twice however many solves it makes
    _component_labels.cache_clear()
    find_eigenform(builtin("tree_gasket"), [1.0, 2.0, 3.0])
    info = _component_labels.cache_info()
    assert info.hits + info.misses >= 200
    assert info.misses <= 2
