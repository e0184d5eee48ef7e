"""Newton search for eigenforms and residual-based verification.

Every eigenform is supported on the stable boundary graph, so the search runs
Newton's method for ``R(f) = rho f`` on the positive cone of stable-graph
coefficients at unit coefficient sum; the eigenvalue estimate is the
coefficient sum of the image.  Plain iteration of the renormalization map
converges only linearly, at the ratio of the two largest eigenvalues of its
Jacobian (0.8 on the gasket), so it is kept only for single steps: to fill in
a stable-graph edge the start lacks, and when a Newton step stalls.

One step costs one interior solve: the iterate's ``OperatorCache`` gives the
Schur block, off which the image's coefficients, the eigenvalue estimate,
the residual and the support test are read as vectors in pair order, and the
cell operators, from which the Jacobian of a Newton step is built.

No convergence guarantee exists, so a run that fails to stabilize is a
reported outcome rather than an exception.  A candidate counts as verified
only when the eigen-residual is small, the eigenvalue sits below every
boundary weight, and the support equals the stable boundary graph; structural
support mismatch rules a candidate out no matter how small its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import renorm
from .forms import DirichletForm, _exponent, _scaled, _support_mask, _support_of, is_irreducible
from .fractal import FractalTriple, check_weights
from .graphs import _hat_index

__all__ = ["EigenResult", "find_eigenform", "verify_eigenform"]

DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
# relative singular-value cutoff of the Newton step's least-squares solve
LSTSQ_RCOND = 1e-9


@dataclass(frozen=True)
class EigenResult:
    """Outcome of a search or verification.

    ``residual`` is the largest coefficientwise deviation of the renormalized
    form from ``rho`` times the form, relative to the largest coefficient.
    ``converged`` requires the residual bound and both structural checks;
    ``checks`` records each one separately.
    """

    form: DirichletForm
    rho: float
    residual: float
    iterations: int
    converged: bool
    checks: dict


def _relative_residual(coeffs: np.ndarray, image: np.ndarray, rho: float) -> float:
    """Largest deviation of the ``image`` coefficients from ``rho`` times the
    nonnegative ``coeffs``, relative to the largest of them."""
    return float(np.abs(image - rho * coeffs).max() / coeffs.max())


def _on_hat_support(triple: FractalTriple, form: DirichletForm) -> bool:
    """Whether the support of ``form`` is the stable boundary graph, as every
    eigenform's is."""
    return np.array_equal(np.flatnonzero(_support_mask(form)), _hat_index(triple)[0])


def _result(
    triple: FractalTriple,
    weights: np.ndarray,
    form: DirichletForm,
    rho: float,
    residual: float,
    iterations: int,
    checks: dict,
) -> EigenResult:
    """The result for ``form``: the structural checks join the caller's
    ``checks``, and it converged when every check holds."""
    checks["eigenvalue_below_boundary_weights"] = all(weights[j] > rho for j in range(triple.N))
    checks["support_matches_hat_graph"] = _on_hat_support(triple, form)
    return EigenResult(
        form=form,
        rho=rho,
        residual=residual,
        iterations=iterations,
        converged=all(checks.values()),
        checks=checks,
    )


def verify_eigenform(
    triple: FractalTriple,
    weights,
    form: DirichletForm,
    tol: float = DEFAULT_VERIFY_TOL,
) -> EigenResult:
    """Measure how far a form is from reproducing itself under renormalization.

    The eigenvalue is fitted by least squares over the coefficient vector.
    Requires an irreducible form.
    """
    r = check_weights(triple, weights)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if form.N != triple.N:
        raise ValueError(f"form has N={form.N}, triple has N={triple.N}")
    if not is_irreducible(form):
        raise ValueError("verification requires an irreducible form")
    image = renorm.renormalize(triple, form, r).vector()
    v = form.vector()  # nonzero: the form is irreducible
    # both scaled by one power of two, exactly, so ``v @ v`` stays in range
    e = _exponent(v)
    image, v = np.ldexp(image, e), np.ldexp(v, e)
    rho = float(image @ v) / float(v @ v)
    residual = _relative_residual(v, image, rho)
    checks = {"residual_within_tol": bool(residual <= tol)}
    return _result(triple, r, form, rho, residual, 0, checks)


def _on_hat(triple: FractalTriple, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients in pair order: the positive ``coeffs`` on the
    stable-graph edges and exact zeros elsewhere."""
    vec = np.zeros(triple.N * (triple.N - 1) // 2)
    vec[_hat_index(triple)[0]] = coeffs
    return vec


def _unit_sum(x: np.ndarray) -> np.ndarray:
    """Nonnegative ``x`` at unit sum.  Prescaling by a power of two keeps the sum
    finite and changes no bit wherever the sum and its reciprocal are normal."""
    x = np.ldexp(x, _exponent(x))
    return x * (1.0 / x.sum())


def _fills_hat(triple: FractalTriple, vec: np.ndarray) -> bool:
    """Whether every stable-graph edge is in the support of the
    coefficients ``vec``."""
    return bool(_support_of(vec)[_hat_index(triple)[0]].all())


def _hat_start(triple: FractalTriple, vec: np.ndarray) -> np.ndarray | None:
    """The restriction of the coefficients ``vec`` to the stable graph,
    scaled to unit sum; None while some stable-graph edge is missing from
    their support."""
    if not _fills_hat(triple, vec):
        return None
    return _on_hat(triple, _unit_sum(vec[_hat_index(triple)[0]]))


def _jacobian(triple: FractalTriple, r: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Derivative of the renormalized stable-graph coefficients with respect
    to the form's, at the form whose cell operators are ``ops``.

    The image is the minimum energy, so by the envelope theorem only the
    explicit dependence on the form counts:
    dc'_ab / df_pq = -sum_i r_i (A_i[p,a] - A_i[q,a]) (A_i[p,b] - A_i[q,b]).
    The map is homogeneous of degree one, so ``J @ f`` is the image itself.
    """
    _, p, q = _hat_index(triple)
    diff = ops[:, p, :] - ops[:, q, :]  # (cell, column pair pq, boundary vertex)
    return -np.einsum("i,ijh,ijh->hj", r, diff[:, :, p], diff[:, :, q])


def _newton_step(jac: np.ndarray, x: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """Newton direction for ``R(f) = rho f`` at the unit-sum iterate ``x``
    with image ``c``, keeping the coefficient sum: the bordered system
    ``[[J - rho I, -x], [1, 0]] [d; drho] = [rho x - c; 0]``.

    It is singular at every eigenform of a family that is not unique up to
    scale, so it is solved by least squares, with singular values below
    ``LSTSQ_RCOND`` of the largest cut off: at the default cutoff round-off
    in those directions became steps of order 1e-3.
    """
    m = x.size
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = jac - rho * np.eye(m)
    bordered[:m, m] = -x
    bordered[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[:m] = rho * x - c
    return np.linalg.lstsq(bordered, rhs, rcond=LSTSQ_RCOND)[0][:m]


def _into_cone(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``x + d``, unless that leaves some coefficient below a tenth of its
    value; then ``x + t d``, going 0.9 of the way to zero on the first
    coefficient to fall that far.

    A step that would leave the open cone stops short of its boundary, and a
    coefficient heading to zero (no eigenform exists) shrinks tenfold per
    step, so the search stops at one between ``COEFF_EPS / 10`` and
    ``COEFF_EPS`` of the largest.  A full step can overshoot far below that
    (to 2e-18 on a relabelled tree_gasket (1, 2, 3)), where the interior
    solve is numerically singular.
    """
    shrink = d < -0.9 * x
    if not shrink.any():
        return x + d
    return x + (0.9 * (x[shrink] / -d[shrink]).min()) * d


def find_eigenform(
    triple: FractalTriple,
    weights,
    init: DirichletForm | None = None,
    tol: float = DEFAULT_SOLVE_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EigenResult:
    """Newton's method for ``R(f) = rho f`` on the stable-graph cone.

    Every eigenform is supported on the stable boundary graph, so the
    unknowns are its edge coefficients, at unit sum.  The search starts from
    the restriction of ``init`` (all-ones by default) to the stable graph;
    while that graph has an edge outside the support of ``init``, it first
    takes plain renormalization steps ``R(f) / sum R(f)`` on the whole form.

    The arguments are checked on entry, and the iterate is carried as its
    coefficient vector in pair order.  One step is one interior solve, for
    the iterate's new ``OperatorCache`` (the only form a step builds is the
    iterate's, which that cache keeps), and the algebra on its
    Schur block and cell operators: the image's coefficients, the
    coefficient-sum ratio as the eigenvalue estimate, the eigen-residual
    and, for a Newton step, the Jacobian.  The search stops when the
    iterate's direction and eigen-residual both settle below ``tol``, or
    after ``max_iter`` steps; either way the result reports the last iterate
    renormalized, with its own ``rho`` and ``residual``, and no step reads
    ``renorm``'s slot: the search puts that iterate's cache there once, after
    its last step, for the verification and stability analysis.
    Otherwise it takes a Newton step, shortened to stay inside the open
    cone, or, when the previous Newton step did not halve the residual, one
    plain step.  Once a coefficient falls below ``COEFF_EPS`` of the largest
    the iterate is heading out of the cone, and the search stops there.  The
    returned flag additionally demands the structural checks, so such a run
    reports non-convergence.
    """
    r = check_weights(triple, weights)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    init = init if init is not None else DirichletForm.ones(triple.N)
    if init.N != triple.N:
        raise ValueError(f"init form has N={init.N}, triple has N={triple.N}")
    if not is_irreducible(init):
        raise ValueError("initial form must be irreducible")
    vec = init.vector()
    start = _hat_start(triple, vec)
    on_hat = start is not None
    vec = start if on_hat else _unit_sum(vec)
    hat = _hat_index(triple)[0]
    newton_from = None  # residual where the last step, if a Newton step, began

    for iterations in range(1, max_iter + 1):
        form = DirichletForm._from_vector(triple.N, vec)
        cache = renorm.OperatorCache(triple, form, r)
        image = cache._coefficients()
        # the iterate has unit coefficient sum, so this is the pre-normalization ratio
        rho = float(image.sum())
        residual = _relative_residual(vec, image, rho)
        # the plain step moves the iterate's direction by residual / rho
        stabilized = residual < tol * rho and residual <= tol
        # the returned form is the last one measured, never the unmeasured step
        if stabilized or iterations == max_iter:
            break
        if not on_hat:
            step = _scaled(image, 1.0 / rho)
            start = _hat_start(triple, step)
            on_hat = start is not None
            vec = start if on_hat else step
            continue
        if not _fills_hat(triple, vec):
            break
        x = vec[hat]
        c = image[hat]
        if newton_from is not None and residual > 0.5 * newton_from:
            x_next, newton_from = c / rho, None
        else:
            jac = _jacobian(triple, r, cache.ops)
            x_next = _into_cone(x, _newton_step(jac, x, c, rho))
            newton_from = residual
        vec = _on_hat(triple, x_next)

    renorm._last = cache
    checks = {"direction_stabilized": stabilized, "residual_within_tol": bool(residual <= tol)}
    return _result(triple, r, form, rho, residual, iterations, checks)
