import itertools
import json
import random

import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    OperatorCache,
    builtin,
    decide_uniqueness,
    find_eigenform,
    hat_graph,
    pair_list,
    renormalize,
    verify_eigenform,
)
from eigenform_lab import cli, solver
from eigenform_lab.jsonio import dumps, form_to_dict, parse_form, parse_fractal
from eigenform_lab.solver import _hat_index, _jacobian, _relative_residual, _unit_sum
from oracles import find_eigenform_frozen, random_valid_triples

R3 = np.ones(3)
FZ1_RHO = 0.11832864782596758


def test_find_gasket(gasket):
    res = find_eigenform(gasket, R3)
    assert res.converged
    vec = res.form.vector()
    assert np.max(np.abs(vec - vec[0])) <= 1e-10 * vec[0]
    assert res.rho == pytest.approx(0.6, abs=1e-9)
    assert res.residual <= 1e-12


def test_find_tree_fixed_direction(tree_gasket):
    init = DirichletForm(3, {(0, 1): 2.0, (0, 2): 1.0})
    res = find_eigenform(tree_gasket, R3, init=init)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.form.vector(), [2.0 / 3.0, 1.0 / 3.0, 0.0])
    assert res.rho == pytest.approx(0.5)


def test_find_tree_mismatched_weights_rejected(tree_gasket):
    # the two branch scale factors disagree, so no eigenform exists; the
    # iterate drifts toward a degenerate direction and must not be accepted
    res = find_eigenform(tree_gasket, np.array([1.0, 2.0, 3.0]))
    assert not res.converged or res.residual >= 1e-2
    assert not res.checks["support_matches_hat_graph"]


def test_find_requires_irreducible_init(gasket):
    with pytest.raises(ValueError, match="irreducible"):
        find_eigenform(gasket, R3, init=DirichletForm(3, {(0, 1): 1.0}))


def test_find_rejects_bad_budgets(gasket):
    with pytest.raises(ValueError, match="max_iter"):
        find_eigenform(gasket, R3, max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        find_eigenform(gasket, R3, tol=0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerances_must_be_positive_and_finite(gasket, gasket_eigenform, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        find_eigenform(gasket, R3, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify_eigenform(gasket, R3, gasket_eigenform, tol=tol)


@pytest.mark.parametrize(
    "name, weights, coeffs, max_iter",
    [
        ("gasket", R3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, 1),
        ("gasket", R3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, 2),
        ("gasket", R3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, 3),
        ("tree_gasket", np.array([1.0, 2.0, 3.0]), None, 5),
    ],
)
def test_exhausted_budget_reports_the_measured_iterate(name, weights, coeffs, max_iter):
    # the reported rho and residual belong to the returned form itself
    triple = builtin(name)
    init = None if coeffs is None else DirichletForm(3, coeffs)
    res = find_eigenform(triple, weights, init=init, max_iter=max_iter)
    assert res.iterations == max_iter
    assert not res.converged
    image = renormalize(triple, res.form, weights)
    assert res.rho == image.l1_norm()
    assert res.residual == _relative_residual(res.form.vector(), image.vector(), res.rho)


def test_verify_scale_invariance(gasket, gasket_eigenform):
    res = verify_eigenform(gasket, R3, gasket_eigenform.scaled(7.0))
    assert res.converged
    assert res.rho == pytest.approx(0.6, abs=1e-12)
    base = verify_eigenform(gasket, R3, gasket_eigenform)
    assert res.residual == pytest.approx(base.residual, abs=1e-14)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300, 1e-320, 1e-310, 2.0**1023, 1e308])
def test_verify_fits_rho_at_any_scale(
    scale, tmp_path, capsys, gasket_eigenform, tree_eigenform, vicsek_eigenform
):
    # beyond about 1e±154, v @ v leaves the float range: the fit once divided
    # by zero on small forms and returned NaN on large ones; near 1e308 the
    # network Laplacian and the digraph's rows once overflowed, and subnormal
    # forms once renormalized to NaN; a subnormal form itself carries fewer
    # bits, 40 or more at 1e-310 and 8 to 11 at 1e-320
    rel = {1e-310: 1e-12, 1e-320: 1e-2}.get(scale, 2e-15)
    for name, form in [
        ("gasket", gasket_eigenform),
        ("tree_gasket", tree_eigenform),
        ("vicsek", vicsek_eigenform),
    ]:
        triple = builtin(name)
        weights = np.ones(triple.k)
        base = verify_eigenform(triple, weights, form)
        verdict = decide_uniqueness(triple, form, weights)
        edges = sorted(verdict.digraph.edges)
        scaled = form.scaled(scale)
        res = verify_eigenform(triple, weights, scaled)
        assert res.converged
        assert res.rho == pytest.approx(base.rho, rel=rel, abs=0.0)
        got = decide_uniqueness(triple, scaled, weights)
        assert got.unique == verdict.unique
        assert sorted(got.digraph.edges) == edges
        path = tmp_path / f"{name}_form.json"
        path.write_text(dumps(form_to_dict(scaled)))
        assert cli.run(["check-uniqueness", name, str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unique"] == verdict.unique
        assert [tuple(map(tuple, e)) for e in doc["digraph"]["edges"]] == edges
        assert doc["rho"] == pytest.approx(base.rho, rel=rel, abs=0.0)


def test_verify_rejects_extra_support_edge(tree_gasket):
    bad = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.1})
    res = verify_eigenform(tree_gasket, R3, bad)
    assert not res.converged
    assert not res.checks["support_matches_hat_graph"]
    assert res.residual > 1e-8


def test_verify_shared_eigenvalue(tree_gasket):
    rhos = []
    for a, b in [(1.0, 1.0), (2.0, 0.5), (5.0, 1.0)]:
        res = verify_eigenform(tree_gasket, R3, DirichletForm(3, {(0, 1): a, (0, 2): b}))
        assert res.converged
        rhos.append(res.rho)
    assert np.allclose(rhos, rhos[0], rtol=1e-12)


def test_verify_requires_irreducible(gasket):
    with pytest.raises(ValueError, match="irreducible"):
        verify_eigenform(gasket, R3, DirichletForm(3, {(0, 1): 1.0}))


def test_fz1_plain_limit_verifies(fz1_doc, fz1_plain_limit_doc):
    triple, weights = parse_fractal(fz1_doc)
    res = verify_eigenform(triple, weights, parse_form(fz1_plain_limit_doc))
    assert res.converged
    assert res.rho == pytest.approx(FZ1_RHO, rel=1e-14)
    assert res.residual <= 1e-15


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_fz1_search_reaches_the_plain_limit(fz1_doc):
    # Newton from all-ones stops after 11 iterations at rho = 9.1995e-4
    triple, weights = parse_fractal(fz1_doc)
    res = find_eigenform(triple, weights)
    assert res.converged
    assert res.rho == pytest.approx(FZ1_RHO, abs=1e-12)


def test_converged_results_satisfy_two_level_relation(gasket, tree_gasket, vicsek):
    for triple in (gasket, tree_gasket, vicsek):
        r = np.ones(triple.k)
        res = find_eigenform(triple, r)
        assert res.converged
        twice = renormalize(triple, renormalize(triple, res.form, r), r)
        expected = res.rho**2 * res.form.vector()
        assert np.max(np.abs(twice.vector() - expected)) <= 1e-11 * res.form.max_coefficient()


def test_eigenresult_invariant(gasket, tree_gasket, vicsek):
    # converged implies residual within tolerance and eigenvalue below weights
    for triple in (gasket, tree_gasket, vicsek):
        r = np.ones(triple.k)
        res = find_eigenform(triple, r)
        if res.converged:
            assert res.residual <= 1e-12
            assert all(r[j] > res.rho for j in range(triple.N))


def test_degenerate_two_vertex_triple():
    # two half-cells glued at one midpoint: the smallest valid structure
    from eigenform_lab import FractalTriple, decide_uniqueness, validate

    interval = FractalTriple("interval", 2, 2, 3, ((0, 2), (2, 1)))
    assert validate(interval) == []
    res = find_eigenform(interval, np.ones(2))
    assert res.converged
    assert res.rho == pytest.approx(0.5)
    assert decide_uniqueness(interval, res.form, np.ones(2)).unique


def test_eigenvalue_bound_check_fires(gasket, gasket_eigenform):
    # a junk candidate whose fitted eigenvalue exceeds a boundary weight must
    # fail the bound check
    res = verify_eigenform(gasket, np.array([0.5, 5.0, 5.0]), gasket_eigenform)
    assert not res.checks["eigenvalue_below_boundary_weights"]
    assert not res.converged


def _hat_form(triple, rng):
    hat = hat_graph(triple)
    return DirichletForm(
        triple.N, {p: rng.uniform(0.5, 2.0) for p in pair_list(triple.N) if hat.has_edge(*p)}
    )


def _jacobian_triples(gen, twisted_tree_gasket):
    out = [builtin(name) for name in ("gasket", "tree_gasket", "vicsek")]
    return out + [twisted_tree_gasket, gen.iterate(builtin("vicsek"), 2)[0]]


def test_jacobian_matches_central_differences(gen, twisted_tree_gasket):
    rng = random.Random(3)
    for triple in _jacobian_triples(gen, twisted_tree_gasket):
        r = np.array([rng.uniform(0.5, 2.0) for _ in range(triple.k)])
        form = _hat_form(triple, rng)
        pos = _hat_index(triple)[0]
        jac = _jacobian(triple, r, OperatorCache(triple, form, r).ops)
        x = form.vector()[pos]
        h = 1e-5 * x.max()
        fd = np.empty_like(jac)
        for j in range(x.size):
            images = []
            for sign in (1.0, -1.0):
                vec = form.vector()
                vec[pos[j]] += sign * h
                bumped = DirichletForm(triple.N, dict(zip(pair_list(triple.N), vec)))
                images.append(renormalize(triple, bumped, r).vector()[pos])
            fd[:, j] = (images[0] - images[1]) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac)), triple.name


def test_jacobian_applied_to_the_form_is_its_image(gen, twisted_tree_gasket):
    # the renormalization map is homogeneous of degree one (Euler)
    rng = random.Random(4)
    for triple in _jacobian_triples(gen, twisted_tree_gasket):
        r = np.array([rng.uniform(0.5, 2.0) for _ in range(triple.k)])
        form = _hat_form(triple, rng)
        pos = _hat_index(triple)[0]
        jac = _jacobian(triple, r, OperatorCache(triple, form, r).ops)
        image = renormalize(triple, form, r).vector()[pos]
        assert np.max(np.abs(jac @ form.vector()[pos] - image)) <= 1e-13 * image.max()


def _seeded_inputs(gen):
    """The benchmark's inputs that have an eigenform, with its closed form."""
    gasket, tree, vicsek = (builtin(n) for n in ("gasket", "tree_gasket", "vicsek"))
    return [
        ("gasket^5", *gen.iterate(gasket, 5), (3 / 5) ** 5),
        ("g4_3", *gen.iterate(gen.simplex_gasket(4), 3), (4 / 6) ** 3),
        ("tree_gasket^4", *gen.iterate(tree, 4), 0.5**4),
        ("tree_gasket^5", *gen.iterate(tree, 5), 0.5**5),
        ("vicsek^3", *gen.iterate(vicsek, 3), (1 / 3) ** 3),
        ("gasket", gasket, [1.0] * 3, 3 / 5),
        ("tree_gasket", tree, [1.0] * 3, 1 / 2),
        ("vicsek", vicsek, [1.0] * 5, 1 / 3),
        ("g4_1", gen.simplex_gasket(4), [1.0] * 4, 4 / 6),
        ("vicsek6", gen.vicsek(6), [1.0] * 7, 1 / 3),
        ("tree_gasket_522", tree, [5.0, 2.0, 2.0], 10 / 7),
    ]


def test_newton_converges_in_eight_renormalizations(gen):
    rng = random.Random(8)
    for label, triple, weights, rho in _seeded_inputs(gen):
        for _ in range(4):
            t, w = gen.relabel(triple, weights, rng)
            res = find_eigenform(t, w, init=gen.random_form(t.N, rng))
            assert res.converged, label
            assert res.iterations <= 8, label
            assert abs(res.rho - rho) <= 1e-12 * rho, label


@pytest.mark.parametrize("seed, relabel", [(None, None), (0, None), (1, None), (None, 7), (2, 7)])
def test_no_eigenform_stops_at_the_cone_boundary(tree_gasket, gen, seed, relabel):
    # the map is diag(2/3, 3/4) on the stable graph, so the bordered system is
    # singular at (1/2, 1/2) and the iterate heads for a coefficient of zero.
    # Relabelled with seed 7, a full Newton step from 4.7e-10 landed on 2e-18,
    # whose interior solve was singular.
    triple, weights = tree_gasket, [1.0, 2.0, 3.0]
    if relabel is not None:
        triple, weights = gen.relabel(triple, weights, random.Random(relabel))
    init = None if seed is None else gen.random_form(3, random.Random(seed))
    res = find_eigenform(triple, weights, init=init)  # raises no SingularInteriorError
    assert not res.converged
    assert res.iterations <= 20
    assert not res.checks["support_matches_hat_graph"]


@pytest.mark.parametrize(
    "name, coeffs, rho",
    [
        ("tree_gasket", {(0, 1): 1.0, (1, 2): 1.0}, 0.5),
        ("gasket", {(0, 1): 1.0, (1, 2): 1.0}, 0.6),
        ("gasket", {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1e-12}, 0.6),
    ],
)
def test_start_missing_a_stable_edge_takes_plain_steps_first(name, coeffs, rho):
    # Newton needs every stable-graph coefficient positive; plain steps fill
    # the missing edge in first, and count as iterations
    res = find_eigenform(builtin(name), R3, init=DirichletForm(3, coeffs))
    assert res.converged
    assert res.iterations >= 2
    assert res.rho == pytest.approx(rho, rel=1e-12)


@pytest.mark.parametrize(
    "name, coeffs, scale, rho",
    [
        ("gasket", {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 8e307, 0.6),
        ("gasket", {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 1.7e308, 0.6),
        ("tree_gasket", {(0, 1): 1.0, (1, 2): 1.0}, 1.7e308, 0.5),
    ],
)
def test_start_whose_coefficient_sum_overflows(name, coeffs, scale, rho):
    # the first on the stable graph, the last off it
    res = find_eigenform(builtin(name), R3, init=DirichletForm(3, coeffs).scaled(scale))
    assert res.converged
    assert res.rho == pytest.approx(rho, rel=1e-12)


def test_unit_sum_keeps_the_bits_of_the_plain_formula():
    # the power-of-two prescaling is exact while the sum and its reciprocal
    # are normal
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = 10.0 ** rng.uniform(-4, 4, size=rng.integers(1, 12))
        x *= 10.0 ** rng.uniform(-290, 290)
        assert np.array_equal(_unit_sum(x), x * (1.0 / x.sum()))


def test_boundary_heading_vicsek3_start_converges(gen, pipeline):
    # the 116th vicsek^3 pipeline the benchmark draws from random.Random(22),
    # in solve-large order: the first Newton step is cut short at the cone's
    # boundary and two Newton steps fail to halve the residual, so it needs
    # the plain fallback step
    gasket, tree, vicsek = (builtin(n) for n in ("gasket", "tree_gasket", "vicsek"))
    order = [
        gen.iterate(gasket, 5),
        gen.iterate(gen.simplex_gasket(4), 3),
        gen.iterate(tree, 4),
        gen.iterate(tree, 5),
        gen.iterate(vicsek, 3),
    ]
    rng = random.Random(22)
    for _ in range(116):
        for triple, weights in order:
            t, w = gen.relabel(triple, weights, rng)
            init = gen.random_form(t.N, rng)
    outcome = pipeline.run_pipeline(t, w, init)
    assert pipeline.check(outcome, pipeline.Expected((1 / 3) ** 3, False)) == (
        None,
        pytest.approx(0.0, abs=1e-12),
    )
    assert find_eigenform(t, w, init=init).iterations <= 8


def _frozen_loop_inputs(gen, fz1_doc):
    """Seeded inputs that reach every exit of the search: converged Newton
    runs from random starts on relabelled solve-large-style composites and
    wide-boundary-style triples, plain steps before Newton, the cone stop on
    tree_gasket (1, 2, 3) plain and relabelled, the ``max_iter`` stop, fz1
    and draw 527 capped at 300 steps."""
    gasket, tree, vicsek = (builtin(n) for n in ("gasket", "tree_gasket", "vicsek"))
    rng = random.Random(29)
    out = []
    for triple, weights in [
        gen.iterate(gasket, 4),
        gen.iterate(gen.simplex_gasket(4), 2),
        gen.iterate(tree, 4),
        gen.iterate(vicsek, 2),
    ]:
        for _ in range(2):
            t, w = gen.relabel(triple, weights, rng)
            out.append((t, w, gen.random_form(t.N, rng), {}))
    for triple in (gen.simplex_gasket(8), gen.vicsek(8), gen.vicsek(9)):
        out.append((*gen.relabel(triple, [1.0] * triple.k, rng), None, {}))
    for relabel in (None, 7):
        triple, weights = tree, [1.0, 2.0, 3.0]
        if relabel is not None:
            triple, weights = gen.relabel(triple, weights, random.Random(relabel))
        for seed in (None, 0):
            init = None if seed is None else gen.random_form(3, random.Random(seed))
            out.append((triple, weights, init, {}))
    out.append((tree, R3, DirichletForm(3, {(0, 1): 1.0, (1, 2): 1.0}), {}))
    out.append((gasket, R3, DirichletForm(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1e-12}), {}))
    for max_iter in (1, 2):
        out.append((gasket, R3, DirichletForm(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}), {"max_iter": max_iter}))
    out.append((*parse_fractal(fz1_doc), None, {}))
    triple, weights = next(itertools.islice(random_valid_triples(1, 5, 6), 527, None))
    out.append((triple, weights, None, {"max_iter": 300}))
    return out


def test_search_matches_the_frozen_loop_bit_for_bit(monkeypatch, gen, fz1_doc):
    shortened = []
    into_cone = solver._into_cone

    def recording(x, d):
        out = into_cone(x, d)
        shortened.append(not np.array_equal(out, x + d))
        return out

    monkeypatch.setattr(solver, "_into_cone", recording)
    exits = set()
    for triple, weights, init, options in _frozen_loop_inputs(gen, fz1_doc):
        got = find_eigenform(triple, weights, init=init, **options)
        want = find_eigenform_frozen(triple, weights, init=init, **options)
        assert got.rho.hex() == want.rho.hex()
        assert got.residual.hex() == want.residual.hex()
        assert (got.iterations, got.converged, got.checks) == (want.iterations, want.converged, want.checks)
        assert got.form.matrix().tobytes() == want.form.matrix().tobytes()
        if init is not None and solver._hat_start(triple, init.vector()) is None:
            exits.add("plain steps first")
        if got.iterations == options.get("max_iter"):
            exits.add("max_iter")
        elif got.converged:
            exits.add("converged")
        elif not got.checks["direction_stabilized"]:
            exits.add("cone")
    assert exits == {"plain steps first", "converged", "cone", "max_iter"}
    assert any(shortened) and not all(shortened)
