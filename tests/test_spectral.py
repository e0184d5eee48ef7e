import numpy as np
import pytest

from eigenform_lab import (
    DirichletForm,
    components,
    laplacian,
    perron_component,
    perron_positive,
    pi_limit,
    project_g,
    project_g_tilde,
)
from eigenform_lab.renorm import OperatorCache

R3 = np.ones(3)


def test_perron_positive_gasket(gasket, gasket_eigenform):
    u_bar, value = perron_positive(gasket, gasket_eigenform, R3, 0)
    assert np.allclose(u_bar, [0.0, 1.0, 1.0])
    assert value == pytest.approx(0.6)


def test_perron_positive_symmetry(gasket, gasket_eigenform):
    for j in range(3):
        u_bar, _ = perron_positive(gasket, gasket_eigenform, R3, j)
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
        for j in range(triple.N):
            _, value = perron_positive(triple, form, r, j)
            assert value == pytest.approx(rho / r[j], rel=1e-10)
            assert 0.0 < value < 1.0


def test_perron_positive_requires_positive_form(tree_gasket, tree_eigenform):
    with pytest.raises(ValueError, match="positive"):
        perron_positive(tree_gasket, tree_eigenform, R3, 0)


def test_perron_component_tree_j1(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 1)
    pd = perron_component(tree_gasket, tree_eigenform, R3, 1, 0, comp)
    assert np.allclose(pd.u_bar, [1.0, 0.0, 0.0])
    assert np.allclose(pd.u_tilde, [0.5, 0.0, 0.5])
    assert pd.eigenvalue == pytest.approx(0.5)
    assert pd.period == 1


def test_perron_component_tree_j0(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 0)
    pd = perron_component(tree_gasket, tree_eigenform, R3, 0, 0, comp)
    assert np.allclose(pd.u_bar, [0.0, 1.0, 0.0])
    assert np.allclose(pd.u_tilde, [0.0, 0.5, 0.0])
    assert pd.eigenvalue == pytest.approx(0.5)


def test_perron_component_reduces_to_positive_case(gasket, gasket_eigenform):
    comp = components(gasket, 0)
    pd = perron_component(gasket, gasket_eigenform, R3, 0, 0, comp)
    u_bar, value = perron_positive(gasket, gasket_eigenform, R3, 0)
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
                pd = perron_component(triple, form, r, j, s, comp)
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
    pd = perron_component(tree_gasket, tree_eigenform, R3, 1, 0, comp)
    assert pi_limit(tree_gasket, tree_eigenform, R3, pd, pd.u_tilde) == pytest.approx(1.0)
    assert pi_limit(tree_gasket, tree_eigenform, R3, pd, 2.0 * pd.u_tilde) == pytest.approx(2.0)


def test_pi_limit_nonharmonic_seed_is_nonzero(gasket, gasket_eigenform):
    rng = np.random.default_rng(31)
    comp = components(gasket, 0)
    pd = perron_component(gasket, gasket_eigenform, R3, 0, 0, comp)
    for _ in range(20):
        u = np.zeros(3)
        u[[1, 2]] = rng.normal(size=2)
        if abs(laplacian(gasket_eigenform, u)[0]) < 1e-6:
            continue
        assert abs(pi_limit(gasket, gasket_eigenform, R3, pd, u)) > 1e-12


def test_pi_limit_rejects_data_off_component(tree_gasket, tree_eigenform):
    comp = components(tree_gasket, 0)
    pd = perron_component(tree_gasket, tree_eigenform, R3, 0, 0, comp)
    with pytest.raises(ValueError, match="supported"):
        pi_limit(tree_gasket, tree_eigenform, R3, pd, np.array([0.0, 1.0, 1.0]))


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
