"""Kernels, Gram matrices and covariance-operator spectra.

Covers Gram evaluation for squared-exponential and half-integer Matern kernels
(products of 1-D factors in D > 1; a single covariance is a 1 x 1 Gram), the
closed-form spectrum of the SE kernel under a Gaussian input density together
with its geometric tail sums, power-law tail bounds for Matern kernels on an
interval with a calibrated constant, and a quadrature-based numeric oracle
that produces eigenvalue/eigenfunction pairs for any (kernel, density) pair.
``spectrum_tail`` is the one place that decides which (kernel, density)
pair has a closed-form spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Union

import numpy as np
from scipy.linalg import eigh
from scipy.special import roots_hermite, roots_legendre

from . import chol
from .errors import (
    DimensionMismatchError,
    InvalidHyperparameterError,
    QuadratureTooCoarseError,
)

SQUARED_EXPONENTIAL = "squared-exponential"
MATERN = "matern-half-integer"


def as_points(X) -> np.ndarray:
    """X as a float array of points, one per row; a 1-D array is one column."""
    X = np.asarray(X, dtype=float)
    return X[:, None] if X.ndim == 1 else X


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel: family, signal variance and per-dimension lengthscales.

    ``matern_order`` is the integer k of a Matern k+1/2 kernel and must be
    None for the squared-exponential family.  In D > 1 both families are
    products of 1-D factors along each dimension.
    """

    family: str
    variance: float
    lengthscales: np.ndarray
    matern_order: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        )
        if self.family not in (SQUARED_EXPONENTIAL, MATERN):
            raise InvalidHyperparameterError(f"unknown kernel family {self.family!r}")
        if not _positive_finite(self.variance):
            raise InvalidHyperparameterError("variance must be positive and finite")
        if self.lengthscales.ndim != 1 or not _positive_finite(self.lengthscales):
            raise InvalidHyperparameterError("lengthscales must be positive and finite")
        if self.family == MATERN:
            if self.matern_order is None or self.matern_order < 0:
                raise InvalidHyperparameterError("Matern kernel needs order k >= 0")
        elif self.matern_order is not None:
            raise InvalidHyperparameterError("matern_order only valid for the Matern family")

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]


def _positive_finite(values) -> bool:
    # False for a NaN as well as for an infinity or a value <= 0.
    values = np.asarray(values)
    return bool(np.all((0 < values) & (values < np.inf)))


def squared_exponential(variance: float, lengthscales) -> KernelSpec:
    return KernelSpec(SQUARED_EXPONENTIAL, variance, lengthscales)


def matern_half_integer(order: int, variance: float, lengthscales) -> KernelSpec:
    return KernelSpec(MATERN, variance, lengthscales, matern_order=int(order))


@dataclass(frozen=True)
class GaussianDensity:
    """Independent Gaussian input density, one (mean, std) pair per dimension."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "std", np.atleast_1d(np.asarray(self.std, dtype=float)))
        if self.mean.shape != self.std.shape:
            raise DimensionMismatchError("mean and std must have matching shapes")
        if not np.all(np.isfinite(self.mean)):
            raise InvalidHyperparameterError("density mean must be finite")
        if not _positive_finite(self.std):
            raise InvalidHyperparameterError("density std must be positive and finite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class UniformDensity:
    """Product of uniform intervals [lower_d, upper_d]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatchError("lower and upper must have matching shapes")
        if not np.all(np.isfinite(self.lower) & np.isfinite(self.upper) & (self.lower < self.upper)):
            raise InvalidHyperparameterError("need finite lower < upper in every dimension")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class EmpiricalDensity:
    """Uniform weights over a reference sample (rows of ``sample``)."""

    sample: np.ndarray

    def __post_init__(self):
        s = as_points(self.sample)
        object.__setattr__(self, "sample", s)
        if s.shape[0] == 0:
            raise InvalidHyperparameterError("empirical sample must be nonempty")

    @property
    def dim(self) -> int:
        return self.sample.shape[1]


DensitySpec = Union[GaussianDensity, UniformDensity, EmpiricalDensity]


# ---------------------------------------------------------------------------
# Pointwise evaluation and Gram assembly
# ---------------------------------------------------------------------------

def _matern_poly_coeffs(k: int) -> np.ndarray:
    # Coefficients of sum_i (k+i)!/(i!(k-i)!) (2s)^(k-i), scaled by k!/(2k)!,
    # indexed by the power of s (ascending).
    coeffs = np.zeros(k + 1)
    for i in range(k + 1):
        coeffs[k - i] = (
            math.factorial(k + i)
            / (math.factorial(i) * math.factorial(k - i))
            * 2.0 ** (k - i)
        )
    return coeffs * (math.factorial(k) / math.factorial(2 * k))


def _check_dims(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    X = as_points(X)
    if X.shape[1] != kernel.dim:
        raise DimensionMismatchError(
            f"points have dimension {X.shape[1]}, kernel expects {kernel.dim}"
        )
    return X


# Elements per row tile of a Gram: two tile buffers (256 KB each) stay in
# cache while every elementwise pass runs over them.
_GRAM_TILE = 32768


def gram(kernel: KernelSpec, X, X2=None, packed: bool = False) -> np.ndarray | chol.Packed:
    """Gram matrix of the kernel between rows of X and X2.

    With ``X2=None`` the square Gram of X is returned.  It is exactly
    symmetric without a symmetrizing pass: k(x_i, x_j) and k(x_j, x_i) are
    computed from ``x_i - x_j`` and its exact negation by the same operations
    in the same order.  The result is written a tile of rows at a time, each
    tile through two tile-sized buffers, so no temporary as large as the
    result is made; every entry gets the same elementwise operations as the
    whole-array formula, so tiling changes no bit.

    With ``packed`` (and no X2) the square Gram is a :class:`chol.Packed`
    holding its lower triangle alone, N(N+1)/2 floats with the same bits as
    the full array's, written tile by tile; its ``source`` computes them
    again from the kernel and X.
    """
    X = _check_dims(kernel, X)
    if packed:
        if X2 is not None:
            raise DimensionMismatchError("a packed Gram is the square Gram of X alone")
        n = X.shape[0]
        K = chol.Packed(np.empty(n * (n + 1) // 2), n, source=partial(_write_packed, kernel, X))
        K.source(K)
        return K
    X2m = X if X2 is None else _check_dims(kernel, X2)
    K = np.empty((X.shape[0], X2m.shape[0]))
    rows = max(1, _GRAM_TILE // max(1, K.shape[1]))
    a = np.empty((min(rows, K.shape[0]), K.shape[1]))
    b = np.empty_like(a)
    for r in range(0, K.shape[0], rows):
        out = K[r : r + rows]
        t = out.shape[0]
        _rows(kernel, X[r : r + t], X2m, out, a[:t], b[:t])
    return K


def _write_packed(kernel: KernelSpec, X: np.ndarray, K: chol.Packed) -> None:
    # The Gram of X into K's storage, a tile of rows at a time through three
    # tile-sized buffers (the tile's result and the two _rows buffers).
    n = X.shape[0]
    rows = max(1, min(_GRAM_TILE // max(1, n), (n + 1) // 2))  # the storage has ceil(n/2) rows
    buffers = [np.empty(rows * n) for _ in range(3)]

    def block(r: slice, c: slice) -> np.ndarray:
        shape = (len(X[r]), len(X[c]))
        out, a, b = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
        _rows(kernel, X[r], X[c], out, a, b)
        return out

    K.write(block, rows)


def _rows(kernel: KernelSpec, X, X2, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    # k(x, x2) for the rows of X against those of X2, through buffers of out's shape.
    if kernel.family == SQUARED_EXPONENTIAL:
        _se_rows(kernel, X, X2, out, a)
    else:
        _matern_rows(kernel, X, X2, out, a, b)


def _se_rows(kernel: KernelSpec, X, X2, out: np.ndarray, diff: np.ndarray) -> None:
    # variance * exp(-0.5 * sum_d ((x_d - x2_d) / ell_d)^2), in place.
    out.fill(0.0)
    for d in range(kernel.dim):
        np.subtract(X[:, d, None], X2[None, :, d], out=diff)
        diff /= kernel.lengthscales[d]
        diff *= diff
        out += diff
    out *= -0.5
    np.exp(out, out=out)
    out *= kernel.variance


def _matern_rows(
    kernel: KernelSpec, X, X2, out: np.ndarray, s: np.ndarray, poly: np.ndarray
) -> None:
    # variance * prod_d exp(-s_d) p(s_d) with s_d = sqrt(2k+1) |x_d - x2_d| / ell_d
    # and p the Matern polynomial, evaluated by Horner's rule as numpy's
    # polyval does (starting from c_k + s*0).
    k = kernel.matern_order
    coeffs = _matern_poly_coeffs(k)
    out.fill(kernel.variance)
    for d in range(kernel.dim):
        np.subtract(X[:, d, None], X2[None, :, d], out=s)
        s /= kernel.lengthscales[d]
        np.abs(s, out=s)
        s *= math.sqrt(2 * k + 1)
        np.multiply(s, 0.0, out=poly)
        poly += coeffs[-1]
        for i in range(2, k + 2):
            poly *= s
            poly += coeffs[-i]
        np.negative(s, out=s)
        np.exp(s, out=s)
        s *= poly
        out *= s


def gram_diag(kernel: KernelSpec, X) -> np.ndarray:
    """Diagonal k(x_i, x_i); equals the variance for these stationary families."""
    X = _check_dims(kernel, X)
    return np.full(X.shape[0], kernel.variance)


# ---------------------------------------------------------------------------
# Closed-form SE + Gaussian spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SEGaussianConstants:
    """The (a, b, c, A, B) constants of the SE/Gaussian eigenvalue formula."""

    a: float
    b: float
    c: float
    A: float
    B: float


def se_gaussian_constants(ell: float, sigma: float) -> SEGaussianConstants:
    if ell <= 0 or sigma <= 0:
        raise InvalidHyperparameterError("ell and sigma must be positive")
    a = 1.0 / (4.0 * sigma**2)
    b = 1.0 / (2.0 * ell**2)
    c = math.sqrt(a * a + 2.0 * a * b)
    A = a + b + c
    return SEGaussianConstants(a, b, c, A, b / A)


# ---------------------------------------------------------------------------
# Matern tails
# ---------------------------------------------------------------------------

# Tail constants calibrated against the numeric spectral oracle over
# M in [5, 50] at 512 quadrature nodes, keyed by (order k, lengthscale,
# interval), rounded up.  The calibration is re-run as a test oracle
# (tests/test_kernels.py, TestMaternTail).
DEFAULT_MATERN_TAIL_C0 = {
    (1, 0.5, (0.0, 1.0)): 0.85,
}


# ---------------------------------------------------------------------------
# Spectrum tails as first-class values
# ---------------------------------------------------------------------------

EXACT = "exact"
ASYMPTOTIC_BOUND = "asymptotic-bound"


@dataclass(frozen=True)
class SpectrumTail:
    """Eigenvalue and tail-sum evaluators for a covariance operator.

    ``eigenvalue(m)`` is the m-th eigenvalue (1-based); ``tail(M)`` evaluates
    ``sum_{m > M} lam_m``.  ``validity`` distinguishes exact formulas from
    asymptotic-order bounds, for which the telescoping identity between the
    two evaluators is not claimed.
    """

    eigenvalue: Callable[[int], float]
    tail: Callable[[int], float]
    validity: str = EXACT


def se_gaussian_spectrum_tail(v: float, ell: float, sigma: float) -> SpectrumTail:
    """Geometric spectrum of an SE kernel under N(mu, sigma^2) inputs.

    ``lam_m = v * sqrt(2a/A) * B**(m-1)``, with the tail in closed form.
    """
    if v <= 0:
        raise InvalidHyperparameterError("variance must be positive")
    k = se_gaussian_constants(ell, sigma)
    lam1 = v * math.sqrt(2.0 * k.a / k.A)
    return SpectrumTail(
        eigenvalue=lambda m: lam1 * k.B ** (m - 1),
        tail=lambda M: lam1 / (1.0 - k.B) * k.B**M,
        validity=EXACT,
    )


def matern_spectrum_tail(order: int, c0: float) -> SpectrumTail:
    """Asymptotic-order Matern k+1/2 tail bound ``c0 * M^(-2k-1)``."""
    if order < 0 or c0 <= 0:
        raise InvalidHyperparameterError("need order >= 0 and c0 > 0")
    p = 2 * order + 1
    return SpectrumTail(
        eigenvalue=lambda m: c0 * p * float(m) ** (-(p + 1)),
        tail=lambda M: c0 * float(M) ** (-p),
        validity=ASYMPTOTIC_BOUND,
    )


def spectrum_tail(kernel: KernelSpec, density: DensitySpec) -> SpectrumTail | None:
    """Closed-form spectrum of the covariance operator, or None if none is known.

    Known pairs, both in one dimension: an SE kernel under a Gaussian density
    (exact), and a Matern kernel under a uniform density whose (order,
    lengthscale, interval) has a calibrated ``DEFAULT_MATERN_TAIL_C0`` entry
    (asymptotic bound).  The constant was calibrated at unit variance, and the
    eigenvalues of ``v * k`` are ``v`` times those of ``k``.
    """
    if kernel.dim != 1 or density.dim != 1:
        return None
    ell = float(kernel.lengthscales[0])
    if kernel.family == SQUARED_EXPONENTIAL and isinstance(density, GaussianDensity):
        return se_gaussian_spectrum_tail(kernel.variance, ell, float(density.std[0]))
    if kernel.family == MATERN and isinstance(density, UniformDensity):
        interval = (float(density.lower[0]), float(density.upper[0]))
        c0 = DEFAULT_MATERN_TAIL_C0.get((kernel.matern_order, ell, interval))
        if c0 is not None:
            return matern_spectrum_tail(kernel.matern_order, kernel.variance * c0)
    return None


# ---------------------------------------------------------------------------
# Numeric spectral oracle (quadrature discretization of the operator)
# ---------------------------------------------------------------------------


@dataclass
class NystromSpectrum:
    """Numeric eigenpairs of the covariance operator under a quadrature rule.

    ``eigenfunctions(X)`` evaluates the M leading (quadrature-orthonormal)
    eigenfunction estimates at the rows of X, returning an (n, M) array.
    """

    eigenvalues: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    kernel: KernelSpec
    _extension: np.ndarray = field(repr=False)

    def eigenfunctions(self, X) -> np.ndarray:
        K = gram(self.kernel, np.asarray(X, dtype=float), self.nodes)
        return K @ self._extension


def _quadrature_rule(density: DensitySpec, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (Q', D) and weights (Q',) integrating against the density, sum(w)=1."""
    if isinstance(density, EmpiricalDensity):
        n = density.sample.shape[0]
        return density.sample, np.full(n, 1.0 / n)
    D = density.dim
    q1 = Q if D == 1 else max(2, int(round(Q ** (1.0 / D))))
    if isinstance(density, GaussianDensity):
        u, w = roots_hermite(q1)
        w = w / math.sqrt(math.pi)
        axes = [density.mean[d] + math.sqrt(2.0) * density.std[d] * u for d in range(D)]
    else:
        u, w = roots_legendre(q1)
        w = w / 2.0
        axes = [
            0.5 * (density.lower[d] + density.upper[d])
            + 0.5 * (density.upper[d] - density.lower[d]) * u
            for d in range(D)
        ]
    if D == 1:
        return axes[0][:, None], w
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * D), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weights


def nystrom_spectrum(
    kernel: KernelSpec, density: DensitySpec, M: int, quadrature_size: int = 2048
) -> NystromSpectrum:
    """Numeric leading eigenpairs of the covariance operator.

    Discretizes the operator with a Gauss-Hermite (Gaussian density),
    Gauss-Legendre (uniform) or sample-average (empirical) rule and solves
    the symmetrized Q x Q eigenproblem.  ``quadrature_size >= 8 * M`` is the
    recommended resolution for continuous densities; at minimum M nodes are
    required.  Eigenfunction columns whose eigenvalue is numerically zero
    are returned as zero functions.

    Raises
    ------
    QuadratureTooCoarseError
        If fewer than M nodes are available, or the returned eigenfunctions
        fail the orthonormality check under the quadrature measure.
    """
    if M < 1:
        raise InvalidHyperparameterError("need M >= 1")
    nodes, weights = _quadrature_rule(density, quadrature_size)
    Q = nodes.shape[0]
    if Q < M:
        raise QuadratureTooCoarseError(f"{Q} quadrature nodes cannot resolve {M} eigenpairs")
    if nodes.shape[1] != kernel.dim:
        raise DimensionMismatchError("density dimension does not match kernel dimension")
    K = gram(kernel, nodes)
    sqw = np.sqrt(weights)
    Ksym = K * sqw[:, None] * sqw[None, :]
    Ksym = 0.5 * (Ksym + Ksym.T)
    lam, U = eigh(Ksym, subset_by_index=(Q - M, Q - 1), check_finite=False)
    lam = lam[::-1]
    U = U[:, ::-1]
    # The Nystrom extension divides by the eigenvalue, amplifying the
    # absolute eigh round-off; modes below this floor are numerically
    # unresolvable and reported as zero.
    floor = max(lam[0], 0.0) * 1e-8
    positive = lam > floor
    lam_out = np.where(positive, lam, 0.0)
    # Nystrom extension: phi_m(x) = (1/lam_m) sum_q w_q k(x, x_q) u_qm / sqrt(w_q)
    ext = np.zeros((Q, M))
    ext[:, positive] = (sqw[:, None] * U[:, positive]) / lam[positive][None, :]
    phi_nodes = K @ ext  # the eigenfunctions at the nodes
    ortho = (phi_nodes * weights[:, None]).T @ phi_nodes
    err = np.max(np.abs(ortho[np.ix_(positive, positive)] - np.eye(int(positive.sum()))))
    if err > 1e-6:
        raise QuadratureTooCoarseError(f"orthonormality error {err:.2e} exceeds 1e-6")
    mercer = phi_nodes**2 @ lam_out
    if np.any(mercer > kernel.variance * (1.0 + 1e-3)):
        raise QuadratureTooCoarseError("Mercer partial sums exceed k(x,x) beyond tolerance")
    return NystromSpectrum(lam_out, nodes, weights, kernel, ext)
