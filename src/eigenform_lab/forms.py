"""Dirichlet forms on the boundary vertex set.

A form is a nonnegative quadratic expression in pairwise differences of
boundary values, stored by its coefficient on each unordered vertex pair.
Forms are immutable; all operations here are pure.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ._graphutil import pair_index, pair_list
from .graphs import BoundaryGraph

__all__ = [
    "COEFF_EPS",
    "DirichletForm",
    "energy",
    "is_irreducible",
    "laplacian",
    "pair_list",
    "support_graph",
]

# Relative threshold below which a stored coefficient counts as zero.  The
# renormalization map produces round-off residue exactly where the stable
# support graph predicts structural zeros, and that residue must not create
# support edges.
COEFF_EPS = 1e-10


class DirichletForm:
    """Coefficient table of a boundary Dirichlet form.

    ``coefficients`` may be a mapping ``{(j1, j2): c}`` or an iterable of
    ``(j1, j2, c)`` entries; missing pairs carry coefficient zero.  All
    coefficients must be nonnegative and finite.  The entries are checked
    here and the matrix is built on first read, so a form declared on more
    vertices than memory holds can still be compared by ``N`` and refused.
    """

    __slots__ = ("N", "_m", "_pairs")

    def __init__(self, N: int, coefficients: Mapping | Iterable = ()):
        if N < 2:
            raise ValueError(f"a form needs at least 2 vertices, got N={N}")
        if isinstance(coefficients, Mapping):
            entries = [(a, b, c) for (a, b), c in coefficients.items()]
        else:
            entries = [tuple(e) for e in coefficients]
        pairs = {}
        for a, b, c in entries:
            a, b, c = int(a), int(b), float(c)
            if a == b or not (0 <= a < N and 0 <= b < N):
                raise ValueError(f"invalid vertex pair ({a}, {b}) for N={N}")
            if not np.isfinite(c) or c < 0:
                raise ValueError(f"coefficient for pair ({a}, {b}) must be finite and >= 0, got {c}")
            key = (min(a, b), max(a, b))
            if key in pairs:
                raise ValueError(f"duplicate coefficient for pair {key}")
            pairs[key] = c
        self.N = N
        self._m = None
        self._pairs = pairs

    @classmethod
    def ones(cls, N: int) -> "DirichletForm":
        if N < 2:
            raise ValueError(f"a form needs at least 2 vertices, got N={N}")
        m = np.ones((N, N))
        np.fill_diagonal(m, 0.0)
        return cls._wrap(N, m)

    @classmethod
    def from_matrix(cls, m) -> "DirichletForm":
        m = np.asarray(m, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n) or not np.allclose(m, m.T):
            raise ValueError("coefficient matrix must be square and symmetric")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("coefficient matrix must have a zero diagonal")
        return cls(n, {(a, b): m[a, b] for a, b in pair_list(n)})

    @classmethod
    def _wrap(cls, n: int, m: np.ndarray) -> "DirichletForm":
        """Form on ``n`` vertices over the valid coefficient matrix ``m``
        (symmetric, zero diagonal, finite, nonnegative), taken as it stands
        and made read-only; the caller vouches for its validity."""
        m.flags.writeable = False
        out = object.__new__(cls)
        out.N, out._m = n, m
        return out

    @classmethod
    def _from_vector(cls, n: int, vec: np.ndarray) -> "DirichletForm":
        """Form with the finite nonnegative coefficients ``vec`` in
        ``pair_list`` order, unchecked.  Filled as the validating constructor
        fills its matrix, so the two give the same bits."""
        m = np.zeros((n, n))
        m[pair_index(n)] = vec
        return cls._wrap(n, m + m.T)

    def matrix(self) -> np.ndarray:
        """Symmetric coefficient matrix with zero diagonal (read-only view)."""
        if self._m is None:
            m = np.zeros((self.N, self.N))
            for key, c in self._pairs.items():
                m[key] = c
            self._m = m + m.T
            self._m.flags.writeable = False
        return self._m

    def coefficient(self, a: int, b: int) -> float:
        if a == b:
            raise ValueError("coefficients live on distinct vertex pairs")
        return float(self.matrix()[a, b])

    def coefficient_items(self) -> list[tuple[int, int, float]]:
        """Nonzero entries as ``(j1, j2, c)`` with ``j1 < j2``."""
        pairs = zip(pair_list(self.N), self.vector().tolist())
        return [(a, b, c) for (a, b), c in pairs if c != 0.0]

    def vector(self) -> np.ndarray:
        """Coefficients in canonical pair order, as a fresh array."""
        return self.matrix()[pair_index(self.N)]

    def max_coefficient(self) -> float:
        return float(self.matrix().max())

    def l1_norm(self) -> float:
        return float(self.vector().sum())

    def scaled(self, factor: float) -> "DirichletForm":
        # a finite nonnegative multiple of a valid matrix is valid as it
        # stands, so it skips from_matrix's symmetry and per-entry checks
        return DirichletForm._wrap(self.N, _scaled(self.matrix(), factor))

    def __repr__(self):
        items = ", ".join(f"({a},{b}): {c:.6g}" for a, b, c in self.coefficient_items())
        return f"DirichletForm(N={self.N}, {{{items}}})"


def _scaled(coeffs: np.ndarray, factor: float) -> np.ndarray:
    """The finite nonnegative ``coeffs`` times ``factor``, refused unless the
    factor is finite and nonnegative and no product overflows."""
    if not (factor >= 0 and np.isfinite(factor)):
        raise ValueError(f"scale factor must be finite and nonnegative, got {factor}")
    with np.errstate(over="ignore"):  # an overflowing product is refused below
        out = coeffs * factor
    if not np.isfinite(out).all():
        raise ValueError(f"scaling by {factor} overflows a coefficient")
    return out


def _exponent(x: np.ndarray) -> int:
    """The power of two that takes the largest entry of ``x``, if > 0, into [0.5, 1)."""
    return -np.frexp(x.max())[1]


def _vertex_data(u, n: int) -> np.ndarray:
    """``u`` as floats, refused unless it holds one value per vertex of ``n``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"expected data on {n} vertices, got shape {u.shape}")
    return u


def energy(form: DirichletForm, u) -> float:
    """Value of the form on boundary data: sum of c * (difference)^2."""
    u = _vertex_data(u, form.N)
    d = u[:, None] - u[None, :]
    return float(0.5 * np.sum(form.matrix() * d * d))


def _laplacian_matrix(form: DirichletForm) -> np.ndarray:
    """Matrix of the weighted difference operator: the coefficients off the
    diagonal, minus each row sum on it."""
    m = form.matrix()
    return m - np.diag(m.sum(axis=1))


# No library path calls this; it stays public only because the benchmark
# tracer (``perfbench/tracer.py``) wraps it by name (ROADMAP item 13).
def laplacian(form: DirichletForm, u) -> np.ndarray:
    """Weighted difference operator: entry j is sum_h c_{jh} (u_h - u_j)."""
    return _laplacian_matrix(form) @ _vertex_data(u, form.N)


def _support_of(coeffs: np.ndarray) -> np.ndarray:
    """Which of the nonnegative ``coeffs`` exceed ``COEFF_EPS`` times the
    largest: the one test of a coefficient against zero."""
    return coeffs > COEFF_EPS * coeffs.max()


def _support_mask(form: DirichletForm) -> np.ndarray:
    """``_support_of`` the form's coefficients, in ``pair_list`` order."""
    return _support_of(form.vector())


def support_graph(form: DirichletForm) -> BoundaryGraph:
    """Graph of the pairs whose coefficient exceeds ``COEFF_EPS`` times the
    largest."""
    rows, cols = pair_index(form.N)
    keep = _support_mask(form)
    return BoundaryGraph(form.N, frozenset(zip(rows[keep].tolist(), cols[keep].tolist())))


def is_irreducible(form: DirichletForm) -> bool:
    """True when the form vanishes only on constants, i.e. the support graph
    joins all boundary vertices."""
    return support_graph(form).is_connected()
