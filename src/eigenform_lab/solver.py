"""Fixed-point search for eigenforms and residual-based verification.

The search iterates the renormalization map, rescaling each image to unit
coefficient sum; the eigenvalue estimate is the pre-normalization sum ratio.
No convergence guarantee exists, so a run that fails to stabilize is a
reported outcome rather than an exception.  A candidate counts as verified
only when the eigen-residual is small, the eigenvalue sits below every
boundary weight, and the support equals the stable boundary graph; structural
support mismatch rules a candidate out no matter how small its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import DirichletForm, is_irreducible, support_graph
from .fractal import FractalTriple, check_weights
from .graphs import hat_graph
from .renorm import renormalize

__all__ = ["EigenResult", "find_eigenform", "verify_eigenform"]

DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000


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
    checks: dict = field(default_factory=dict)


def _fit_rho(form: DirichletForm, image: DirichletForm) -> float:
    v, w = form.vector(), image.vector()
    denom = float(v @ v)
    if denom == 0.0:
        raise ValueError("cannot fit an eigenvalue to the zero form")
    return float(w @ v) / denom


def _relative_residual(form: DirichletForm, image: DirichletForm, rho: float) -> float:
    dev = np.max(np.abs(image.vector() - rho * form.vector()))
    return float(dev / form.max_coefficient())


def _structural_checks(
    triple: FractalTriple, weights: np.ndarray, form: DirichletForm, rho: float
) -> dict:
    return {
        "eigenvalue_below_boundary_weights": bool(
            all(weights[j] > rho for j in range(triple.N))
        ),
        "support_matches_hat_graph": support_graph(form) == hat_graph(triple),
    }


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
    if form.N != triple.N:
        raise ValueError(f"form has N={form.N}, triple has N={triple.N}")
    if not is_irreducible(form):
        raise ValueError("verification requires an irreducible form")
    image = renormalize(triple, form, r)
    rho = _fit_rho(form, image)
    residual = _relative_residual(form, image, rho)
    checks = {"residual_within_tol": bool(residual <= tol)}
    checks.update(_structural_checks(triple, r, form, rho))
    return EigenResult(
        form=form,
        rho=rho,
        residual=residual,
        iterations=0,
        converged=all(checks.values()),
        checks=checks,
    )


def find_eigenform(
    triple: FractalTriple,
    weights,
    init: DirichletForm | None = None,
    tol: float = DEFAULT_SOLVE_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EigenResult:
    """Normalized fixed-point iteration of the renormalization map.

    Starting from ``init`` (all-ones by default), each round renormalizes,
    records the coefficient-sum ratio as the eigenvalue estimate and rescales
    to unit coefficient sum.  The loop stops when the iterate's direction and
    eigen-residual both settle below ``tol``, or after ``max_iter`` rounds;
    either way the result reports the last iterate renormalized, with its own
    ``rho`` and ``residual``.  The returned flag additionally demands the
    structural checks, so a run that drifts toward a degenerate direction
    reports non-convergence.
    """
    r = check_weights(triple, weights)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    current = init if init is not None else DirichletForm.ones(triple.N)
    if current.N != triple.N:
        raise ValueError(f"init form has N={current.N}, triple has N={triple.N}")
    if not is_irreducible(current):
        raise ValueError("initial form must be irreducible")
    current = current.scaled(1.0 / current.l1_norm())

    for iterations in range(1, max_iter + 1):
        image = renormalize(triple, current, r)
        # the iterate has unit coefficient sum, so this is the pre-normalization ratio
        rho = image.l1_norm()
        residual = _relative_residual(current, image, rho)
        step = image.scaled(1.0 / rho)
        delta = float(
            np.max(np.abs(step.vector() - current.vector())) / current.max_coefficient()
        )
        stabilized = delta < tol and residual <= tol
        # the returned form is the last one measured, never the unmeasured step
        if stabilized or iterations == max_iter:
            break
        current = step

    checks = {
        "direction_stabilized": stabilized,
        "residual_within_tol": bool(residual <= tol),
    }
    checks.update(_structural_checks(triple, r, current, rho))
    return EigenResult(
        form=current,
        rho=rho,
        residual=residual,
        iterations=iterations,
        converged=all(checks.values()),
        checks=checks,
    )
