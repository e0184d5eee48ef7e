import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    builtin,
    find_eigenform,
    renormalize,
    verify_eigenform,
)
from eigenform_lab.solver import _relative_residual

R3 = np.ones(3)


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
    assert res.residual == _relative_residual(res.form, image, res.rho)


def test_verify_scale_invariance(gasket, gasket_eigenform):
    res = verify_eigenform(gasket, R3, gasket_eigenform.scaled(7.0))
    assert res.converged
    assert res.rho == pytest.approx(0.6, abs=1e-12)
    base = verify_eigenform(gasket, R3, gasket_eigenform)
    assert res.residual == pytest.approx(base.residual, abs=1e-14)


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
