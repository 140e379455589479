"""Variational core: feature operators, collapsed bound, upper bounds, exact KL.

All bound evaluations run through the M x M whitened system (never a dense
N x N solve), so their cost is O(N M^2).  The exact KL divergence is the one
O(N^3) quantity: :func:`kl_exact` builds a :func:`gp_exact.dense_system`,
which refuses N above ``gp_exact.DENSE_LIMIT``; :func:`evaluate` reads one the
caller built (the harness draws y from the same one).
The standalone bound functions (:func:`elbo`, :func:`upper_bound`, ...) each
whiten again; :func:`evaluate` whitens once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import chol, gp_exact, kernels
from .errors import (
    DimensionMismatchError,
    DuplicateInducingPointError,
    NegativeVarianceError,
    NoConvergenceError,
    NumericalInconsistencyError,
)

LOG_2PI = math.log(2.0 * math.pi)

_ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class Points:
    """Inducing points placed at explicit input locations (M x D)."""

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        object.__setattr__(self, "Z", Z)
        if Z.shape[0] != np.unique(Z, axis=0).shape[0]:
            raise DuplicateInducingPointError("inducing inputs contain duplicate rows")

    @property
    def count(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class EigenvectorFeatures:
    """Features built from the top eigenpairs of the training Gram matrix.

    ``anchors`` holds the training inputs the eigenvectors refer to; they are
    required to evaluate cross-covariances at new locations.
    """

    lambdas: np.ndarray
    W: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        W = np.asarray(self.W, dtype=float)
        anchors = np.asarray(self.anchors, dtype=float)
        if anchors.ndim == 1:
            anchors = anchors[:, None]
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "anchors", anchors)
        if W.shape != (anchors.shape[0], lam.shape[0]):
            raise DimensionMismatchError("W must be N x M with N matching anchors")
        if not np.all(lam > 0):
            raise DimensionMismatchError("feature eigenvalues must be strictly positive")
        err = np.max(np.abs(W.T @ W - np.eye(lam.shape[0])))
        if err > _ORTHONORMALITY_TOL:
            raise DimensionMismatchError(f"eigenvector columns not orthonormal ({err:.2e})")

    @property
    def count(self) -> int:
        return self.lambdas.shape[0]


@dataclass(frozen=True)
class EigenfunctionFeatures:
    """Features defined by operator eigenvalues and eigenfunction evaluators.

    ``phi(X)`` must return the (n, M) matrix of eigenfunction values at the
    rows of X.
    """

    lambdas: np.ndarray
    phi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        object.__setattr__(self, "lambdas", lam)
        if not np.all(lam > 0):
            raise DimensionMismatchError("feature eigenvalues must be strictly positive")

    @property
    def count(self) -> int:
        return self.lambdas.shape[0]


InducingSet = Union[Points, EigenvectorFeatures, EigenfunctionFeatures]


@dataclass(frozen=True)
class FeatureOperators:
    """Kuu (M x M), Kuf (M x N) and the prior diagonal of the training part."""

    Kuu: np.ndarray
    Kuf: np.ndarray
    kff_diag: np.ndarray

    @property
    def m(self) -> int:
        return self.Kuu.shape[0]

    @property
    def n(self) -> int:
        return self.Kuf.shape[1]


@dataclass(frozen=True)
class VariationalSolution:
    """Optimal q(u) = N(mu, Sigma) and the bound value it attains."""

    mu: np.ndarray
    Sigma: np.ndarray
    elbo: float


@dataclass
class BoundReport:
    """Every certified quantity for one regression instance.

    The a-priori slots stay None until a caller with spectral knowledge of
    the (kernel, density) pair fills them in.
    """

    t: float
    lambda_max_tilde: float
    elbo: float
    upper: float
    upper_refined: float
    kl_exact: float
    norm_y_sq: float
    jitter_used: float
    lemma1: float | None = None
    lemma1_loose: float | None = None
    lemma2_lo: float | None = None
    lemma2_hi: float | None = None
    thm1: float | None = None
    thm2: float | None = None
    thm3: float | None = None
    thm4: float | None = None
    prop1_mean_factor: float | None = None
    prop1_var_lo: float | None = None
    prop1_var_hi: float | None = None


def feature_operators(
    inducing: InducingSet, kernel: kernels.KernelSpec, X
) -> FeatureOperators:
    """Assemble Kuu and Kuf for any inducing-variable family.

    Spectral variants produce a diagonal Kuu; eigenvector features require X
    to be the anchor inputs their eigenvectors were computed from.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if isinstance(inducing, Points):
        if inducing.Z.shape[1] != X.shape[1]:
            raise DimensionMismatchError("inducing points and data dimension differ")
        Kuu = kernels.gram(kernel, inducing.Z)
        Kuf = kernels.gram(kernel, inducing.Z, X)
    elif isinstance(inducing, EigenvectorFeatures):
        if inducing.anchors.shape != X.shape or not np.array_equal(inducing.anchors, X):
            raise DimensionMismatchError(
                "eigenvector features are tied to the inputs they were built from"
            )
        Kuu = np.diag(inducing.lambdas)
        Kuf = inducing.lambdas[:, None] * inducing.W.T
    elif isinstance(inducing, EigenfunctionFeatures):
        Phi = np.asarray(inducing.phi(X), dtype=float)
        if Phi.shape != (X.shape[0], inducing.count):
            raise DimensionMismatchError("phi(X) must return an (n, M) array")
        Kuu = np.diag(inducing.lambdas)
        Kuf = inducing.lambdas[:, None] * Phi.T
    else:
        raise TypeError(f"unknown inducing set type {type(inducing).__name__}")
    return FeatureOperators(Kuu, Kuf, kernels.gram_diag(kernel, X))


def _whiten(ops: FeatureOperators) -> tuple[np.ndarray, chol.LowerFactor]:
    """Return A = Luu^{-1} Kuf and the factor of (jittered) Kuu."""
    f = chol.factor(ops.Kuu)
    if ops.m == 0:
        return np.zeros((0, ops.n)), f
    A = solve_triangular(f.L, ops.Kuf, lower=True, check_finite=False)
    return A, f


def _log_bound(A: np.ndarray, y: np.ndarray, noise_var: float, shift: float) -> float:
    """Log density of y under N(0, A^T A + noise I), via the M x M system.

    The log-determinant always uses the unshifted noise (that is what both
    the lower and upper bounds share); the quadratic form uses the noise
    plus ``shift``.
    """
    n = y.shape[0]
    s = noise_var + shift
    m = A.shape[0]
    if m == 0:
        quad, logdet = float(y @ y) / s, n * math.log(noise_var)
    else:
        B_shift = np.eye(m) + (A @ A.T) / s
        c = solve_triangular(
            np.linalg.cholesky(B_shift), A @ y, lower=True, check_finite=False
        )
        quad = (float(y @ y) - float(c @ c) / s) / s
        B = B_shift if shift == 0.0 else np.eye(m) + (A @ A.T) / noise_var
        logdet = n * math.log(noise_var) + 2.0 * float(
            np.sum(np.log(np.diag(np.linalg.cholesky(B))))
        )
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * LOG_2PI


def elbo(ops: FeatureOperators, y, noise: gp_exact.NoiseModel) -> float:
    """Collapsed variational lower bound (optimal q(u)), computed in O(N M^2)."""
    y = np.asarray(y, dtype=float).ravel()
    A, _ = _whiten(ops)
    t = _trace_gap_from(ops.kff_diag, A)
    return _log_bound(A, y, noise.variance, 0.0) - t / (2.0 * noise.variance)


def upper_bound(ops: FeatureOperators, y, noise: gp_exact.NoiseModel, t: float) -> float:
    """Trace-shifted upper bound on the log marginal likelihood, O(N M^2)."""
    y = np.asarray(y, dtype=float).ravel()
    A, _ = _whiten(ops)
    return _log_bound(A, y, noise.variance, max(t, 0.0))


def refined_upper_bound(
    ops: FeatureOperators, y, noise: gp_exact.NoiseModel, lambda_max_tilde: float
) -> float:
    """Upper bound with the trace shift replaced by the largest residual eigenvalue."""
    return upper_bound(ops, y, noise, max(lambda_max_tilde, 0.0))


def _trace_gap_from(kff_diag: np.ndarray, A: np.ndarray) -> float:
    total = float(np.sum(kff_diag))
    t = total - float(np.sum(A * A))
    n = kff_diag.shape[0]
    scale = float(np.max(kff_diag)) if n else 1.0
    if t < -1e-8 * n * scale:
        raise NumericalInconsistencyError(f"trace gap {t:.3e} below audit threshold")
    return max(t, 0.0)


def trace_gap(kernel: kernels.KernelSpec, X, ops: FeatureOperators) -> float:
    """t = Tr(K_ff - Q_ff), computed without forming either matrix densely."""
    A, _ = _whiten(ops)
    return _trace_gap_from(kernels.gram_diag(kernel, X), A)


def lambda_max_gap(
    kernel: kernels.KernelSpec,
    X,
    ops: FeatureOperators,
    tol: float = 1e-6,
) -> float:
    """Largest eigenvalue of K_ff - Q_ff, never forming the residual densely.

    The operator is applied as ``K_ff v - A^T (A v)`` (O(N^2 + N M) per
    product) inside a Lanczos iteration started from a fixed seed vector;
    plain power iteration stalls when the two leading residual eigenvalues
    are nearly equal, which happens routinely for well-spread point sets.
    The result is clamped into [0, t]; exceeding t beyond round-off slack
    raises NumericalInconsistencyError.
    """
    A, _ = _whiten(ops)
    t = _trace_gap_from(kernels.gram_diag(kernel, X), A)
    return _lambda_max_from(kernels.gram(kernel, X), A, t, kernel.variance, tol)


def _lambda_max_from(
    K: np.ndarray, A: np.ndarray, t: float, variance: float, tol=1e-6
) -> float:
    n = K.shape[0]
    floor = 1e-14 * n * variance
    max_iters = 10 * n

    def matvec(v):
        return K @ v - A.T @ (A @ v)

    v0 = np.random.default_rng(0).standard_normal(n)
    v0 /= np.linalg.norm(v0)
    w = matvec(v0)
    lam_rayleigh = float(v0 @ w)
    if float(np.linalg.norm(w)) <= floor:
        return max(min(lam_rayleigh, t), 0.0)
    if n == 1:
        lam = lam_rayleigh
    else:
        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        try:
            vals = eigsh(
                op,
                k=1,
                which="LA",
                v0=v0,
                tol=0.1 * tol,
                maxiter=max_iters,
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise NoConvergenceError(
                f"Lanczos did not converge within {max_iters} iterations"
            ) from exc
        lam = float(vals[0])
    if lam > t + 1e-8 * max(t, 1.0) + 1e-12 * n * variance:
        raise NumericalInconsistencyError(
            f"largest residual eigenvalue {lam:.3e} exceeds trace gap {t:.3e}"
        )
    return min(max(lam, 0.0), t)


def optimal_q(ops: FeatureOperators, y, noise: gp_exact.NoiseModel) -> VariationalSolution:
    """Closed-form optimum of the variational distribution over u."""
    y = np.asarray(y, dtype=float).ravel()
    A, f_uu = _whiten(ops)
    m = ops.m
    s2 = noise.variance
    B = np.eye(m) + (A @ A.T) / s2
    LB = np.linalg.cholesky(B)
    c = solve_triangular(LB, A @ y, lower=True, check_finite=False)
    # Sigma = Luu B^{-1} Luu^T, mu = Luu B^{-1} A y / s2, via T = LB^{-1} Luu^T.
    T = solve_triangular(LB, f_uu.L.T, lower=True, check_finite=False)
    Sigma = T.T @ T
    mu = T.T @ c / s2
    lower = _log_bound(A, y, s2, 0.0) - _trace_gap_from(ops.kff_diag, A) / (2.0 * s2)
    return VariationalSolution(mu, 0.5 * (Sigma + Sigma.T), lower)


def predict(
    sol: VariationalSolution,
    inducing: InducingSet,
    kernel: kernels.KernelSpec,
    X_query,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and per-point variance of the approximate posterior."""
    X_query = np.asarray(X_query, dtype=float)
    if X_query.ndim == 1:
        X_query = X_query[:, None]
    if isinstance(inducing, Points):
        Kuu = kernels.gram(kernel, inducing.Z)
        Kux = kernels.gram(kernel, inducing.Z, X_query)
    elif isinstance(inducing, EigenvectorFeatures):
        Kuu = np.diag(inducing.lambdas)
        Kux = inducing.W.T @ kernels.gram(kernel, inducing.anchors, X_query)
    elif isinstance(inducing, EigenfunctionFeatures):
        Kuu = np.diag(inducing.lambdas)
        Kux = inducing.lambdas[:, None] * np.asarray(inducing.phi(X_query)).T
    else:
        raise TypeError(f"unknown inducing set type {type(inducing).__name__}")
    f = chol.factor(Kuu)
    Cx = solve_triangular(f.L, Kux, lower=True, check_finite=False)
    w = solve_triangular(f.L, sol.mu, lower=True, check_finite=False)
    S1 = solve_triangular(f.L, sol.Sigma, lower=True, check_finite=False)
    Sw = solve_triangular(f.L, S1.T, lower=True, check_finite=False).T
    mean = Cx.T @ w
    var = kernels.gram_diag(kernel, X_query) + np.sum(
        Cx * ((0.5 * (Sw + Sw.T) - np.eye(f.dim)) @ Cx), axis=0
    )
    if np.any(var < -1e-10):
        raise NegativeVarianceError(
            f"predictive variance {float(np.min(var)):.3e} below the -1e-10 floor"
        )
    return mean, np.maximum(var, 0.0)


def kl_exact(
    data: gp_exact.Dataset,
    kernel: kernels.KernelSpec,
    noise: gp_exact.NoiseModel,
    ops: FeatureOperators,
) -> float:
    """Exact KL divergence of the optimal approximation from the posterior.

    Evaluated as (log marginal likelihood) - (collapsed bound); the dense
    N^3 baseline restricts this to N <= ``gp_exact.DENSE_LIMIT``.
    """
    lml = gp_exact.log_marginal_likelihood(data, kernel, noise)
    return _kl_from(lml, elbo(ops, data.y, noise))


def _kl_from(lml: float, lower: float) -> float:
    gap = lml - lower
    if gap < -1e-8 * max(1.0, abs(lml)):
        raise NumericalInconsistencyError(f"negative KL {gap:.3e} beyond audit threshold")
    return max(gap, 0.0)


def gaussian_kl(m1, S1, m2, S2) -> float:
    """KL divergence N(m1, S1) || N(m2, S2) between multivariate normals."""
    m1 = np.asarray(m1, dtype=float).ravel()
    m2 = np.asarray(m2, dtype=float).ravel()
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))
    S2 = np.atleast_2d(np.asarray(S2, dtype=float))
    n = m1.shape[0]
    if m2.shape[0] != n or S1.shape != (n, n) or S2.shape != (n, n):
        raise DimensionMismatchError("mean/covariance dimensions do not match")
    f1 = chol.factor(S1)
    f2 = chol.factor(S2)
    half = solve_triangular(f2.L, f1.L, lower=True, check_finite=False)
    trace = float(np.sum(half * half))
    quad = solve_triangular(f2.L, m1 - m2, lower=True, check_finite=False)
    kl = 0.5 * (
        trace + chol.log_det(f2) - chol.log_det(f1) + float(quad @ quad) - n
    )
    return max(kl, 0.0)


def evaluate(
    data: gp_exact.Dataset,
    kernel: kernels.KernelSpec,
    noise: gp_exact.NoiseModel,
    inducing: InducingSet,
    dense: gp_exact.DenseSystem,
) -> BoundReport:
    """Compute the full certified-quantity report for one instance.

    Every bound reads one whitened system; Lanczos and the exact KL read
    ``dense``, the caller's ``gp_exact.dense_system(data.X, kernel, noise)``.
    """
    if dense.K.shape[0] != data.n:
        raise DimensionMismatchError(
            f"dense system of size {dense.K.shape[0]} for {data.n} observations"
        )
    ops = feature_operators(inducing, kernel, data.X)
    A, f_uu = _whiten(ops)
    s2 = noise.variance
    t = _trace_gap_from(ops.kff_diag, A)
    lam = _lambda_max_from(dense.K, A, t, kernel.variance)
    lower = _log_bound(A, data.y, s2, 0.0) - t / (2.0 * s2)
    return BoundReport(
        t=t,
        lambda_max_tilde=lam,
        elbo=lower,
        upper=_log_bound(A, data.y, s2, t),
        upper_refined=_log_bound(A, data.y, s2, lam),
        kl_exact=_kl_from(dense.log_marginal_likelihood(data.y), lower),
        norm_y_sq=float(data.y @ data.y),
        jitter_used=f_uu.jitter_used,
    )
