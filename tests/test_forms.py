import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenform_lab import (
    DirichletForm,
    builtin,
    energy,
    is_irreducible,
    laplacian,
    pair_list,
    support_graph,
)
from eigenform_lab import forms, solver
from eigenform_lab.renorm import OperatorCache
from eigenform_lab.spectral import perron_positive

from oracles import is_harmonic_at

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_energy_constant_is_zero(gasket_eigenform):
    assert energy(gasket_eigenform, [3.7, 3.7, 3.7]) == 0.0


def test_energy_gasket_unit(gasket_eigenform):
    assert energy(gasket_eigenform, [1.0, 0.0, 0.0]) == pytest.approx(2.0)


@given(u=st.lists(finite, min_size=3, max_size=3), c=finite)
def test_energy_additive_constant_invariance(u, c):
    form = DirichletForm(3, {(0, 1): 0.5, (0, 2): 2.0, (1, 2): 1.5})
    u = np.array(u)
    assert energy(form, u + c) == pytest.approx(energy(form, u), abs=1e-9)


@given(u=st.lists(finite, min_size=3, max_size=3), c=st.floats(min_value=0, max_value=10))
def test_energy_homogeneous_in_coefficients(u, c):
    form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 0.25})
    assert energy(form.scaled(c), u) == pytest.approx(c * energy(form, u), rel=1e-12, abs=1e-12)


def test_laplacian_constant(gasket_eigenform):
    assert np.allclose(laplacian(gasket_eigenform, [2.0, 2.0, 2.0]), 0.0)


def test_laplacian_gasket_unit(gasket_eigenform):
    assert np.allclose(laplacian(gasket_eigenform, [1.0, 0.0, 0.0]), [-2.0, 1.0, 1.0])


def test_laplacian_row_sums_vanish():
    rng = np.random.default_rng(2)
    form = DirichletForm(4, {(0, 1): 1.2, (1, 2): 0.4, (2, 3): 2.0, (0, 3): 0.7})
    for _ in range(20):
        u = rng.normal(size=4)
        assert laplacian(form, u).sum() == pytest.approx(0.0, abs=1e-12)


def test_laplacian_sign_pattern_irreducible():
    # nonconstant data must push in both directions somewhere
    rng = np.random.default_rng(3)
    form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 2.0})
    for _ in range(50):
        u = rng.normal(size=3)
        if np.ptp(u) < 1e-9:
            continue
        lap = laplacian(form, u)
        assert lap.max() > 0 and lap.min() < 0


def test_laplacian_extrema_signs_positive_form():
    rng = np.random.default_rng(4)
    form = DirichletForm.ones(4)
    for _ in range(50):
        u = rng.normal(size=4)
        if np.ptp(u) < 1e-9:
            continue
        lap = laplacian(form, u)
        assert lap[np.argmin(u)] > 0
        assert lap[np.argmax(u)] < 0


@pytest.mark.parametrize(
    "evaluate", [energy, laplacian, lambda form, u: is_harmonic_at(form, u, 0)]
)
@pytest.mark.parametrize("u", [[5.0], [1.0, 2.0, 3.0, 4.0], np.ones((3, 1))])
def test_data_of_the_wrong_length_is_refused(evaluate, u):
    # [5.0] and the column would broadcast against the 3x3 matrix
    with pytest.raises(ValueError, match=r"expected data on 3 vertices, got shape"):
        evaluate(DirichletForm.ones(3), u)


def test_support_graph_and_irreducibility(gasket_eigenform, tree_eigenform):
    assert support_graph(gasket_eigenform).sorted_edges() == [(0, 1), (0, 2), (1, 2)]
    assert is_irreducible(gasket_eigenform)

    single = DirichletForm(3, {(0, 1): 1.0})
    assert support_graph(single).sorted_edges() == [(0, 1)]
    assert not is_irreducible(single)

    assert support_graph(tree_eigenform).sorted_edges() == [(0, 1), (0, 2)]
    assert is_irreducible(tree_eigenform)


def test_support_graph_clamps_roundoff():
    form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1e-14})
    assert support_graph(form).sorted_edges() == [(0, 1), (0, 2)]


def test_every_zero_test_reads_the_forms_threshold(monkeypatch, gasket):
    # support, positivity and the solver's start all follow forms.COEFF_EPS
    monkeypatch.setattr(forms, "COEFF_EPS", 0.5)
    form = DirichletForm(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.4})
    assert support_graph(form).sorted_edges() == [(0, 1), (0, 2)]
    with pytest.raises(ValueError, match="positive form"):
        perron_positive(OperatorCache(gasket, form, np.ones(3)), [0])
    assert solver._hat_start(gasket, form.vector()) is None


def test_is_harmonic_at(gasket_eigenform):
    assert is_harmonic_at(gasket_eigenform, [5.0, 5.0, 5.0], 1)
    assert not is_harmonic_at(gasket_eigenform, [1.0, 0.0, 0.0], 0)


def test_minimum_not_harmonic_under_positive_form():
    rng = np.random.default_rng(5)
    form = DirichletForm.ones(3)
    for _ in range(30):
        u = rng.normal(size=3)
        if np.ptp(u) < 1e-6:
            continue
        assert not is_harmonic_at(form, u, int(np.argmin(u)))


def test_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        DirichletForm(3, {(0, 1): -1.0})


def test_rejects_duplicate_pair():
    with pytest.raises(ValueError, match="duplicate"):
        DirichletForm(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_entries_are_checked_before_the_matrix_is_built():
    # a form on 10^9 vertices (an 8e18-byte matrix) is checked and compared
    # by N without its matrix; its entries are refused as eagerly as ever
    big = DirichletForm(10**9, {(0, 1): 1.0})
    assert big.N == 10**9
    with pytest.raises(ValueError, match=r"form has N=1000000000, triple has N=3"):
        solver.verify_eigenform(builtin("gasket"), np.ones(3), big)
    with pytest.raises(ValueError, match="invalid vertex pair"):
        DirichletForm(10**9, {(0, 10**9): 1.0})
    with pytest.raises(ValueError, match="duplicate"):
        DirichletForm(10**9, [(0, 1, 1.0), (1, 0, 2.0)])
    # the matrix read later holds the bits the vector route gives
    rng = np.random.default_rng(19)
    for n in range(2, 9):
        vec = rng.uniform(0.0, 2.0, n * (n - 1) // 2) * (rng.random(n * (n - 1) // 2) < 0.7)
        form = DirichletForm(n, [(a, b, c) for (a, b), c in zip(pair_list(n), vec.tolist())])
        want = DirichletForm._from_vector(n, vec).matrix()
        assert form.matrix().tobytes() == want.tobytes()
        assert form.matrix() is form.matrix() and not form.matrix().flags.writeable
        # ones() fills its matrix directly, with the validated route's bits
        ones = DirichletForm(n, {pair: 1.0 for pair in pair_list(n)}).matrix()
        assert DirichletForm.ones(n).matrix().tobytes() == ones.tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DirichletForm(1), "a form needs at least 2 vertices, got N=1"),
        (lambda: DirichletForm.ones(1), "a form needs at least 2 vertices, got N=1"),
        (
            lambda: DirichletForm.from_matrix([[0.0, 1.0], [2.0, 0.0]]),
            "coefficient matrix must be square and symmetric",
        ),
        (
            lambda: DirichletForm.ones(3).coefficient(1, 1),
            "coefficients live on distinct vertex pairs",
        ),
    ],
    ids=["one-vertex", "ones-one-vertex", "asymmetric", "diagonal-pair"],
)
def test_degenerate_forms_and_pairs_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_from_matrix_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        DirichletForm.from_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))


def test_scaled_matches_validated_route():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 8, 12):
        for _ in range(4):
            upper = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
            form = DirichletForm.from_matrix(upper + upper.T)
            for factor in (0.0, 1e-8, 1.0, 1e8, rng.uniform(0.1, 10.0)):
                got = form.scaled(factor)
                want = DirichletForm.from_matrix(form.matrix() * factor)
                assert got.N == want.N
                assert got.matrix().tobytes() == want.matrix().tobytes()
                assert not got.matrix().flags.writeable
    form = DirichletForm.ones(3)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            form.scaled(bad)


def test_scaling_past_the_largest_float_is_refused_without_a_warning():
    # pytest turns warnings into errors, so a numpy overflow warning fails here
    with pytest.raises(ValueError, match=r"^scaling by 1e\+308 overflows a coefficient$"):
        DirichletForm(2, {(0, 1): 10.0}).scaled(1e308)


def test_vector_order_and_roundtrip():
    form = DirichletForm(3, {(0, 1): 1.0, (1, 2): 3.0})
    assert np.allclose(form.vector(), [1.0, 0.0, 3.0])
    again = DirichletForm.from_matrix(form.matrix())
    assert np.allclose(again.vector(), form.vector())
    assert form.coefficient_items() == [(0, 1, 1.0), (1, 2, 3.0)]


def test_vector_matches_pair_list_route():
    rng = np.random.default_rng(18)
    for n in range(2, 13):
        for _ in range(3):
            upper = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
            form = DirichletForm.from_matrix(upper + upper.T)
            for f in (form, form.scaled(0.0), form.scaled(rng.uniform(1e-8, 1e8))):
                want = np.array([f.matrix()[a, b] for a, b in pair_list(n)])
                got = f.vector()
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                # callers own the result: writing to it leaves the form alone
                got[:] = -1.0
                assert f.vector().tobytes() == want.tobytes()
