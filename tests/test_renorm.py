import random
import sys
import threading

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    InternalConsistencyError,
    SingularInteriorError,
    builtin,
    builtin_names,
    decide_uniqueness,
    find_eigenform,
    hat_graph,
    lambda_graph,
    pair_list,
    renormalize,
    stability_digraph,
    support_graph,
    verify_eigenform,
)
from eigenform_lab import renorm
from eigenform_lab.forms import COEFF_EPS
from eigenform_lab.renorm import OperatorCache, _schedule, conductance_laplacian

from oracles import (
    check_reachable_bfs,
    conductance_laplacian_loop,
    constrained_extension,
    extension_by_lu,
    harmonic_extension,
    one_step_energy,
    operators_by_lu,
    two_level_form,
)

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
    m = OperatorCache(gasket, gasket_eigenform, R3).ops[0]
    assert np.allclose(m, [[1, 0, 0], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4]])


def test_cell_operator_tree(tree_gasket, tree_eigenform):
    m = OperatorCache(tree_gasket, tree_eigenform, R3).ops[1]
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
            m = cache.ops[i]
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
    manual = cache.ops[0] @ cache.ops[2] @ cache.ops[1]
    assert np.allclose(cache.word([0, 2, 1]), manual)
    assert np.allclose(manual.sum(axis=1), 1.0)


def test_extension_positivity(gasket, tree_gasket, gasket_eigenform, tree_eigenform):
    rng = np.random.default_rng(13)
    for triple, form in [(gasket, gasket_eigenform), (tree_gasket, tree_eigenform)]:
        cache = OperatorCache(triple, form, R3)
        for _ in range(40):
            u = rng.uniform(0.0, 3.0, size=triple.N)
            for i in range(triple.k):
                assert np.all(cache.ops[i] @ u >= -1e-14)


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


def _live(triple, form, weights):
    """The live-slot mask ``OperatorCache`` keys its schedule on."""
    return (np.asarray(weights)[:, None] * form.vector() != 0.0).ravel().tobytes()


def _schedule_outcome(build):
    """Every field of the schedule ``build`` returns, or the vertex and
    message of the reachability failure it raises."""
    try:
        sched = build()
    except SingularInteriorError as exc:
        return exc.vertex, str(exc)
    out = []
    for field in (*sched, *[a for rnd in sched.rounds for a in rnd]):
        if isinstance(field, np.ndarray):
            out.append((field.dtype, field.shape, field.tobytes()))
        elif not isinstance(field, tuple):
            out.append(field)
    return out


def test_schedule_keys_on_cells(gen):
    # relabellings share name, N, k and vertex count with the original, and
    # uniform weights give them the same live-slot pattern, so only the cells
    # tell the cache entries apart; tree_gasket^4 is large enough for rounds
    triples = [gen.simplex_gasket(8), gen.vicsek(6)]
    triples += [gen.iterate(builtin("tree_gasket"), m)[0] for m in (3, 4)]
    for triple in triples:
        ones = np.ones(triple.k)
        for s in range(3):
            other = gen.relabel(triple, list(ones), random.Random(s))[0]
            assert (other.name, other.N, other.k, other.num_vertices) == (
                triple.name, triple.N, triple.k, triple.num_vertices
            )
            assert other.cells != triple.cells
            for form in (DirichletForm(triple.N, {(0, 1): 1.0}), DirichletForm.ones(triple.N)):
                live = _live(triple, form, ones)
                for t in (triple, other, triple, other):
                    for fixed in ((0,), tuple(range(t.N))):
                        got = _schedule_outcome(lambda: _schedule(t, live, fixed))
                        assert got == _schedule_outcome(lambda: _schedule.__wrapped__(t, live, fixed))
                    got = _reach_outcome(lambda: constrained_extension(t, form, ones, {0: 1.0}))
                    assert got == _oracle_outcome(t, form, ones, range(1, t.num_vertices), [0])


def test_schedule_reachability_matches_bfs_oracle(harness, gen):
    # arbitrary live-slot masks, denser and sparser, with random fixed sets:
    # the schedule raises where the per-solve search does, and otherwise
    # keeps the live slots and the fixed ids and eliminates every free vertex
    cases = harness.solve_large_cases() + harness.wide_boundary_cases()
    rng = np.random.default_rng(43)
    relabel_rng = random.Random(43)
    seen = set()
    for base in [case.triple for case in cases]:
        for triple in (base, gen.relabel(base, np.ones(base.k), relabel_rng)[0]):
            nv = triple.num_vertices
            ends = renorm._pair_images(triple)
            for _ in range(3):
                live = rng.random(len(ends)) >= 10.0 ** rng.uniform(-3, -0.5)
                mask = np.zeros((nv, nv))
                mask[ends[live, 0], ends[live, 1]] = mask[ends[live, 1], ends[live, 0]] = 1.0
                picks = [rng.choice(nv, size=size, replace=False) for size in rng.integers(1, 30, 2)]
                for fixed in [tuple(range(triple.N))] + [tuple(sorted(p.tolist())) for p in picks]:
                    free = [v for v in range(nv) if v not in fixed]
                    want = _reach_outcome(lambda: check_reachable_bfs(triple, mask, free, fixed))
                    got = _reach_outcome(lambda: _schedule.__wrapped__(triple, live.tobytes(), fixed))
                    assert got == want, triple.name
                    seen.add(want is None)
                    if want is None:
                        sched = _schedule.__wrapped__(triple, live.tobytes(), fixed)
                        assert sched.slots.tolist() == np.flatnonzero(live).tolist()
                        assert sched.fixed.tolist() == list(fixed)
                        out = [v for rnd in sched.rounds for v in rnd.vertices.tolist()]
                        assert sorted(out + sched.core.tolist()) == free
                        assert sched.core.tolist() == sorted(sched.core.tolist())
    assert seen == {True, False}


def test_component_labels_built_once_per_search():
    # the conductance pattern stays put while the solver iterates (here a
    # dozen times, heading out of the cone), so one search schedules the
    # network once or twice however many solves it makes: one per iteration
    _schedule.cache_clear()
    res = find_eigenform(builtin("tree_gasket"), [1.0, 2.0, 3.0])
    info = _schedule.cache_info()
    assert info.hits + info.misses == res.iterations
    assert info.misses <= 2


def test_operators_match_dense_lu(harness, gen, twisted_tree_gasket):
    # the built-ins and every benchmark library input, plain and relabelled,
    # under seeded forms with exact zeros; the weights take one scale from
    # 10^U(-4, 4) and spread over two decades between cells, where dense LU
    # on the whole interior block still keeps the digits compared here
    triples = [builtin(name) for name in builtin_names()] + [twisted_tree_gasket]
    cases = harness.solve_large_cases() + harness.wide_boundary_cases()
    triples += [case.triple for case in cases]
    rng = np.random.default_rng(22)
    relabel_rng = random.Random(22)
    compared = eliminated = 0
    for base in triples:
        for triple in (base, gen.relabel(base, np.ones(base.k), relabel_rng)[0]):
            n, pairs = triple.N, pair_list(triple.N)
            for _ in range(2):
                vec = rng.uniform(0.5, 2.0, size=len(pairs))
                vec[rng.random(len(pairs)) < 0.3] = 0.0
                form = DirichletForm(n, dict(zip(pairs, vec)))
                weights = 10.0 ** (rng.uniform(-4, 4) + rng.uniform(-1, 1, size=triple.k))
                try:
                    cache = OperatorCache(triple, form, weights)
                except SingularInteriorError:
                    continue
                ops, schur = operators_by_lu(triple, form, weights)
                assert np.max(np.abs(cache.ops - ops)) <= 1e-12
                assert np.max(np.abs(cache.schur - schur)) <= 1e-12 * np.max(np.abs(schur))
                assert np.max(np.abs(cache.ops.sum(axis=2) - 1.0)) <= 1e-13
                # the rows the rounds eliminated are convex combinations
                w = (weights[:, None] * form.vector()).ravel()
                sched = _schedule(triple, _live(triple, form, weights), tuple(range(n)))
                x, _ = renorm._reduce(sched, w)
                assert x[np.array(triple.cells)].tobytes() == cache.ops.tobytes()
                for rnd in sched.rounds:
                    assert np.all(x[rnd.vertices] >= 0.0)
                    eliminated += rnd.vertices.size
                compared += 1
    assert compared >= 40
    assert eliminated > 0


def test_rounds_run_on_large_interiors_only(gen, tree_eigenform):
    # tree_gasket^4 has 160 free vertices, g8 28; on the composite the
    # rounds also bring rho to the closed form from a random start
    tree4 = gen.iterate(builtin("tree_gasket"), 4)[0]
    g8 = gen.simplex_gasket(8)
    for triple, form, rounds in [(tree4, tree_eigenform, True), (g8, DirichletForm.ones(8), False)]:
        sched = _schedule(triple, _live(triple, form, np.ones(triple.k)), tuple(range(triple.N)))
        assert bool(sched.rounds) == rounds
    rng = random.Random(23)
    for m in (4, 5):
        triple, weights = gen.relabel(*gen.iterate(builtin("tree_gasket"), m), rng)
        res = find_eigenform(triple, weights, init=gen.random_form(3, rng))
        assert res.converged
        assert abs(res.rho / 0.5**m - 1.0) <= 2e-15


def test_extensions_match_dense_lu(gen):
    # harmonic and constrained extensions share the schedule; on these
    # composites any fixed set leaves enough free vertices for rounds
    rng = np.random.default_rng(24)
    for base in ("gasket", "vicsek"):
        triple, weights = gen.iterate(builtin(base), 3 if base == "vicsek" else 5)
        form = DirichletForm.ones(triple.N)
        nv = triple.num_vertices
        u = rng.normal(size=triple.N)
        want = extension_by_lu(triple, form, weights, list(range(triple.N)), u)
        got = harmonic_extension(triple, form, weights, u).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(u))
        for size in (1, 5, 40):
            fixed = sorted(rng.choice(nv, size=size, replace=False).tolist())
            values = rng.normal(size=size)
            want = extension_by_lu(triple, form, weights, fixed, values)
            got = constrained_extension(triple, form, weights, dict(zip(fixed, values))).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(values))


def test_zero_pivot_names_its_vertex(gen, tree_eigenform):
    # a pivot is zero only when the conductances at its vertex underflowed;
    # zeroing the first eliminated vertex's edges behind the schedule's back
    # shows which vertex the error names
    triple = gen.iterate(builtin("tree_gasket"), 4)[0]
    w = np.tile(tree_eigenform.vector(), triple.k)
    sched = _schedule(triple, (w != 0.0).tobytes(), (0, 1, 2))
    first = sched.rounds[0]
    w[sched.slots[np.isin(sched.slot_edge, first.edges[first.owner == 0])]] = 0.0
    with pytest.raises(SingularInteriorError) as err:
        renorm._reduce(sched, w)
    assert err.value.vertex == first.vertices[0]
    assert str(err.value) == "interior block is numerically singular"


def _schur_form_by_pairs(triple, schur):
    """``renormalize``'s result built pair by pair through the validating
    ``DirichletForm`` constructor from the Schur block ``schur``, and the
    Schur off-diagonals it read."""
    n = triple.N
    off = [-schur[a, b] for a, b in pair_list(n)]
    scale = max(abs(c) for c in off)
    coeffs = {}
    for (a, b), c in zip(pair_list(n), off):
        if c < -COEFF_EPS * scale:
            raise InternalConsistencyError(
                f"renormalized coefficient for pair ({a},{b}) is negative: {c}"
            )
        coeffs[(a, b)] = max(c, 0.0)
    return DirichletForm(n, coeffs), np.array(off)


def test_renormalize_matches_the_validating_constructor_bit_for_bit(
    gen, twisted_tree_gasket, monkeypatch
):
    # stable-graph forms leave signed zeros where the stable graph has no
    # edge; round-off never went negative on these inputs, so a nudged Schur
    # block (a small positive boundary off-diagonal) makes clamped zeros
    real = renorm._reduce
    nudge, blocks = [], []

    def nudged(sched, w):
        x, schur = real(sched, w)
        schur = schur.copy()
        for a, b in nudge:
            schur[a, b] += 1e-13
            schur[b, a] += 1e-13
        blocks.append(schur)
        return x, schur

    monkeypatch.setattr(renorm, "_reduce", nudged)
    triples = [builtin(name) for name in builtin_names()] + [twisted_tree_gasket]
    triples += [gen.simplex_gasket(4), gen.vicsek(6), gen.iterate(builtin("tree_gasket"), 2)[0]]
    rng = np.random.default_rng(21)
    clamped = signed_zeros = 0
    for triple in triples:
        hat = hat_graph(triple)
        for _ in range(12):
            r = rng.uniform(0.5, 2.0, size=triple.k)
            form = random_irreducible_form(rng, triple.N)
            if rng.random() < 0.5:
                form = DirichletForm(
                    triple.N,
                    {e: rng.uniform(0.5, 2.0) for e in pair_list(triple.N) if hat.has_edge(*e)},
                )
            for pairs in ([], [pair_list(triple.N)[rng.integers(triple.N)]]):
                nudge[:] = pairs
                # the nudge changed, the (triple, form, weights) key did not
                monkeypatch.setattr(renorm, "_last", None)
                got = renormalize(triple, form, r)
                want, off = _schur_form_by_pairs(triple, blocks[-1])
                clamped += int(np.sum(off < 0.0))
                signed_zeros += int(np.sum((off == 0.0) & np.signbit(off)))
                assert got.matrix().tobytes() == want.matrix().tobytes()
    assert clamped > 0
    assert signed_zeros > 0


@pytest.mark.parametrize(
    "entry, error, pair",
    [(3.0, InternalConsistencyError, "(0,2)"), (-np.inf, ValueError, "(0, 2)")],
)
def test_renormalize_names_the_first_bad_pair(gasket, monkeypatch, entry, error, pair):
    # a positive boundary off-diagonal is a negative coefficient; an infinite
    # one is refused as DirichletForm's constructor refuses it
    real = renorm._reduce

    def patched(sched, w):
        x, schur = real(sched, w)
        schur = schur.copy()
        for a, b in ((0, 2), (1, 2)):
            schur[a, b] = schur[b, a] = entry
        return x, schur

    monkeypatch.setattr(renorm, "_reduce", patched)
    monkeypatch.setattr(renorm, "_last", None)
    with pytest.raises(error) as by_pairs:
        _schur_form_by_pairs(gasket, OperatorCache(gasket, DirichletForm.ones(3), R3).schur)
    with pytest.raises(error) as got:
        renormalize(gasket, DirichletForm.ones(3), R3)
    assert f"pair {pair}" in str(got.value)
    assert str(got.value) == str(by_pairs.value)


def test_one_interior_solve_per_iteration_through_the_pipeline(gen, twisted_tree_gasket, monkeypatch):
    # verifying the returned form and building its stability digraph reuse
    # the solver's last interior solve, and the verdict reuses the digraph's
    real = renorm._reduce
    calls = []

    def counting(sched, w):
        calls.append(sched)
        return real(sched, w)

    monkeypatch.setattr(renorm, "_reduce", counting)
    monkeypatch.setattr(renorm, "_last", None)
    tree = builtin("tree_gasket")
    for triple, weights in [
        (builtin("gasket"), R3),
        (tree, R3),
        (builtin("vicsek"), np.ones(5)),
        (twisted_tree_gasket, R3),
        (tree, np.array([5.0, 2.0, 2.0])),
        gen.iterate(builtin("gasket"), 3),
    ]:
        calls.clear()
        res = find_eigenform(triple, weights)
        assert verify_eigenform(triple, weights, res.form).converged
        dg = stability_digraph(triple, res.form, weights)
        decide_uniqueness(triple, res.form, weights, digraph=dg)
        assert len(calls) == res.iterations


def test_a_search_never_reads_the_context_slot(gen, monkeypatch):
    # from an empty slot, right after the identical search, and after an
    # unrelated renormalize, a search returns the same bits and builds one
    # context per iteration
    builds = []
    original = OperatorCache.__init__

    def counting(self, triple, form, weights):
        builds.append(triple)
        original(self, triple, form, weights)

    monkeypatch.setattr(OperatorCache, "__init__", counting)
    g8, w8 = gen.relabel(gen.simplex_gasket(8), np.ones(8), random.Random(3))
    cases = [
        (builtin("gasket"), R3, None),
        (builtin("tree_gasket"), R3, None),
        (builtin("vicsek"), np.ones(5), None),
        (g8, np.array(w8), gen.random_form(8, random.Random(3))),
    ]
    for triple, weights, init in cases:
        results = []
        for before in (
            lambda: monkeypatch.setattr(renorm, "_last", None),
            lambda: None,
            lambda: renormalize(builtin("gasket"), DirichletForm.ones(3), R3),
        ):
            before()
            builds.clear()
            res = find_eigenform(triple, weights, init=init)
            assert len(builds) == res.iterations
            results.append(res)
        first = results[0]
        assert first.converged
        if init is None:
            assert first.iterations == 1
        for res in results[1:]:
            assert np.float64(res.rho).tobytes() == np.float64(first.rho).tobytes()
            assert np.float64(res.residual).tobytes() == np.float64(first.residual).tobytes()
            assert res.iterations == first.iterations
            assert res.form.matrix().tobytes() == first.form.matrix().tobytes()


def _assert_same_context(got, want):
    assert got.triple == want.triple
    for a, b in [
        (got.form.matrix(), want.form.matrix()),
        (got.weights, want.weights),
        (got.ops, want.ops),
        (got.schur, want.schur),
        (got.image.matrix(), want.image.matrix()),
    ]:
        assert a.tobytes() == b.tobytes()


def test_context_lookup_keys_on_value(gen, monkeypatch):
    # relabellings share name, N, k and vertex count with the original; the
    # scaled form and the reversed weights share everything but the one key
    monkeypatch.setattr(renorm, "_last", None)
    rng = random.Random(5)
    for triple in (builtin("tree_gasket"), gen.iterate(builtin("vicsek"), 2)[0], gen.simplex_gasket(5)):
        others = [gen.relabel(triple, np.ones(triple.k), rng)[0] for _ in range(2)]
        form = gen.random_form(triple.N, rng)
        weights = np.array([rng.uniform(0.5, 2.0) for _ in range(triple.k)])
        for t in (triple, *others, triple, others[0]):
            for f in (form, form.scaled(2.0), form):
                for w in (weights, weights[::-1].copy(), list(weights)):
                    got = renorm._context(t, f, w)
                    _assert_same_context(got, OperatorCache(t, f, w))
                    assert renorm._context(t, f, w) is got
        # a caller that edits its weight array after the call
        mutable = weights.copy()
        first = renorm._context(triple, form, mutable)
        mutable[-1] *= 3.0
        assert first.weights.tobytes() == weights.tobytes()
        assert not first.weights.flags.writeable
        _assert_same_context(renorm._context(triple, form, mutable), OperatorCache(triple, form, mutable))


def test_a_form_of_another_size_is_refused(monkeypatch, gasket, vicsek):
    # on the gasket a four-vertex form once indexed past the cell table, and
    # on vicsek a three-vertex one put its coefficients on the wrong pairs
    for triple, form in [(gasket, DirichletForm.ones(4)), (vicsek, DirichletForm.ones(3))]:
        weights = np.ones(triple.k)
        message = f"form has N={form.N}, triple has N={triple.N}"
        with pytest.raises(ValueError, match=message):
            renormalize(triple, form, weights)
        with pytest.raises(ValueError, match=message):
            OperatorCache(triple, form, weights)
    # refused before its matrix is read, also while the slot holds the
    # triple's own context
    renormalize(gasket, DirichletForm.ones(3), R3)
    huge = DirichletForm(10**6)
    matrix = DirichletForm.matrix

    def guarded(form):
        assert form is not huge, "the matrix of a form of another size was read"
        return matrix(form)

    monkeypatch.setattr(DirichletForm, "matrix", guarded)
    for build in (renormalize, OperatorCache):
        with pytest.raises(ValueError, match=f"form has N={10**6}, triple has N=3"):
            build(gasket, huge, R3)


def _pipeline_bits(triple, weights):
    """Search, verify, digraph and verdict, as bytes and plain values."""
    res = find_eigenform(triple, weights)
    ver = verify_eigenform(triple, weights, res.form)
    dg = stability_digraph(triple, res.form, weights)
    verdict = decide_uniqueness(triple, res.form, weights, digraph=dg)
    return (
        res.form.matrix().tobytes(),
        np.float64(ver.rho).tobytes(),
        sorted(dg.edges),
        (verdict.unique, verdict.sink_sccs, verdict.witnesses),
        {node: pd.u_tilde.tobytes() for node, pd in dg.payload.items()},
    )


def test_concurrent_pipelines_match_a_serial_run():
    # four threads share the context slot; a one-microsecond switch interval
    # interleaves them inside every stage.  A slot that held a half-built
    # context, or a lookup that read the slot twice, crashed or answered for
    # another thread's input here
    cases = [
        (builtin("gasket"), R3),
        (builtin("tree_gasket"), R3),
        (builtin("vicsek"), np.ones(5)),
        (builtin("tree_gasket"), np.array([5.0, 2.0, 2.0])),
    ]
    runs = 50
    serial = [_pipeline_bits(triple, weights) for triple, weights in cases]
    got = [[] for _ in cases]
    errors = [[] for _ in cases]

    def worker(i):
        try:
            for _ in range(runs):
                got[i].append(_pipeline_bits(*cases[i]))
        except Exception as exc:
            errors[i].append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [[] for _ in cases]
    for want, bits in zip(serial, got):
        assert len(bits) == runs
        assert all(b == want for b in bits)


@pytest.mark.parametrize("nv", [2, 255, 256, 487, 65535, 65536, 70000])
def test_stable_order_is_the_int64_stable_argsort(nv):
    # the narrow key of the elimination rounds' CSR sort keeps the order
    rng = np.random.default_rng(nv)
    ids = rng.integers(0, nv, size=1500)
    want = np.argsort(ids.astype(np.int64), kind="stable")
    assert np.array_equal(renorm._stable_order(ids, nv), want)


@pytest.mark.parametrize(
    "off, error, message",
    [
        ([1.0, -0.99e-10, 0.5], None, None),
        ([1.0, -1.01e-10, 0.5], InternalConsistencyError, r"pair \(0,2\) is negative: -1\.01e-10"),
        ([-3.0, 1.0, -2.0], InternalConsistencyError, r"pair \(0,1\) is negative: -3\.0"),
        ([1.0, np.nan, -2.0], ValueError, r"pair \(0, 2\) must be finite and >= 0, got nan"),
        ([1.0, -5.0, np.inf], ValueError, r"pair \(1, 2\) must be finite and >= 0, got inf"),
        ([-np.inf, 1.0, 1.0], ValueError, r"pair \(0, 1\) must be finite and >= 0, got -inf"),
    ],
)
def test_image_read_names_the_first_bad_coefficient(gasket, gasket_eigenform, off, error, message):
    # the one-pass read off the Schur block and the image form refuse the
    # same blocks, with the message of the pairwise checks
    cache = OperatorCache(gasket, gasket_eigenform, R3)
    schur = np.zeros((3, 3))
    schur[[0, 0, 1], [1, 2, 2]] = -np.array(off)
    cache.schur = schur
    if error is None:
        assert cache._coefficients().tolist() == [1.0, 0.0, 0.5]
        assert cache.image.vector().tolist() == [1.0, 0.0, 0.5]
        return
    for read in (cache._coefficients, lambda: cache.image):
        with pytest.raises(error, match=message):
            read()
