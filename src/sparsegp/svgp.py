"""Variational core: feature operators, collapsed bound, upper bounds, exact KL.

Each inducing family (points, Gram eigenvectors, operator eigenfunctions) is a
set of linear functionals of f; its one method ``covariances(kernel, X)``
returns (Kuu, Kux), and :func:`feature_operators` and :func:`predict` share it.

All bound evaluations run through the M x M whitened system (never a dense
N x N solve), so their cost is O(N M^2).  Whitening factors Kuu, or, when its
pivots are too uneven, ``chol.factor(Kuu, jitter)``.  The exact KL divergence
is the one O(N^3) quantity: :func:`kl_exact` factors K + noise*I by
:func:`gp_exact.dense_system`, which refuses N above ``gp_exact.DENSE_LIMIT``.
The standalone bound functions (:func:`elbo`, :func:`upper_bound`, ...) each
whiten; a report whitens once per inducing set, in two steps.
:func:`residual` reads the noise-free Gram K before it is factored: it
whitens, and computes the trace gap and the largest residual eigenvalue.
:func:`evaluate` then reads the y drawn from the caller's factor of
K + noise*I and their :func:`gp_exact.log_marginal_likelihood`, one solve per
dataset.
The largest residual eigenvalue (:func:`lambda_max_gap`) is a block Krylov
Rayleigh-Ritz estimate: a few passes over the packed K, each applying the
residual K - A^T A to a block of vectors, and a lower estimate of lambda_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import chol, gp_exact, kernels
from .errors import (
    DimensionMismatchError,
    DuplicateInducingPointError,
    NegativeVarianceError,
    NoConvergenceError,
    NumericalInconsistencyError,
)

_ORTHONORMALITY_TOL = 1e-8

# Block width of the lambda_max Krylov iteration: one pass over K applies the
# residual operator to every column of a block.
_KRYLOV_BLOCK = 8
# Widest Krylov basis (columns) before the lambda_max estimate gives up; the
# slowest case the tests know, a Matern-3/2 residual at tol 1e-8, needs 72.
_KRYLOV_MAX_BASIS = 96

# A Kuu factor whose smallest squared pivot is below this ratio times its
# largest leaves K - A^T A indefinite in round-off (its top eigenvalue can
# exceed its trace); Kuu plus this ratio times mean(diag Kuu) is factored instead.
_WHITEN_PIVOT_RATIO = 1e-10


@dataclass(frozen=True)
class Points:
    """Inducing points placed at explicit input locations (M x D)."""

    Z: np.ndarray

    def __post_init__(self):
        Z = kernels.as_points(self.Z)
        object.__setattr__(self, "Z", Z)
        if Z.shape[0] != np.unique(Z, axis=0).shape[0]:
            raise DuplicateInducingPointError("inducing inputs contain duplicate rows")

    @property
    def count(self) -> int:
        return self.Z.shape[0]

    def covariances(self, kernel, X) -> tuple[np.ndarray, np.ndarray]:
        """Kuu = K(Z, Z) and Kux = K(Z, X)."""
        return kernels.gram(kernel, self.Z), kernels.gram(kernel, self.Z, X)


@dataclass(frozen=True)
class EigenvectorFeatures:
    """Features built from the top eigenpairs of the training Gram matrix.

    ``anchors`` holds the training inputs the eigenvectors refer to: feature
    m is ``u_m = w_m^T f(anchors)``.
    """

    lambdas: np.ndarray
    W: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        W = np.asarray(self.W, dtype=float)
        anchors = kernels.as_points(self.anchors)
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

    def covariances(self, kernel, X) -> tuple[np.ndarray, np.ndarray]:
        """Kuu = diag(lambdas) and Kux = W^T K(anchors, X).

        At the anchors themselves K W = W diag(lambdas), so Kux is read off as
        diag(lambdas) W^T without building the N x N Gram.
        """
        Kuu = np.diag(self.lambdas)
        if X.shape == self.anchors.shape and np.array_equal(X, self.anchors):
            return Kuu, self.lambdas[:, None] * self.W.T
        return Kuu, self.W.T @ kernels.gram(kernel, self.anchors, X)


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

    def covariances(self, kernel, X) -> tuple[np.ndarray, np.ndarray]:
        """Kuu = diag(lambdas) and Kux = diag(lambdas) phi(X)^T."""
        Phi = np.asarray(self.phi(X), dtype=float)
        if Phi.shape != (X.shape[0], self.count):
            raise DimensionMismatchError("phi(X) must return an (n, M) array")
        return np.diag(self.lambdas), self.lambdas[:, None] * Phi.T


InducingSet = Union[Points, EigenvectorFeatures, EigenfunctionFeatures]


@dataclass(frozen=True)
class FeatureOperators:
    """Kuu (M x M), Kuf (M x N) and the prior diagonal at the N inputs."""

    Kuu: np.ndarray
    Kuf: np.ndarray
    kff_diag: np.ndarray


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


@dataclass(frozen=True)
class Residual:
    """What one inducing set's report reads of the noise-free Gram K.

    ``A = Luu^{-1} Kuf``, the jitter the Kuu factor used, the trace gap t and
    the largest eigenvalue of K - A^T A; none of them needs y or the factor
    of K + noise*I.
    """

    A: np.ndarray
    jitter_used: float
    t: float
    lambda_max: float


def feature_operators(
    inducing: InducingSet, kernel: kernels.KernelSpec, X
) -> FeatureOperators:
    """Kuu, Kux and the prior diagonal at the rows of X, for any inducing family.

    X may be the training inputs or query points; spectral families give a
    diagonal Kuu.
    """
    X = kernels.as_points(X)
    Kuu, Kux = inducing.covariances(kernel, X)
    return FeatureOperators(Kuu, Kux, kernels.gram_diag(kernel, X))


def _whiten(ops: FeatureOperators) -> tuple[np.ndarray, chol.LowerFactor]:
    """Return A = Luu^{-1} Kuf and the factor of (jittered) Kuu.

    A jittered Kuu is the covariance of inducing variables observed with a
    little independent noise, so every bound stays a bound of the same model.
    """
    f = chol.factor(ops.Kuu)
    pivots = np.diag(f.L) ** 2
    if np.any(pivots < _WHITEN_PIVOT_RATIO * pivots.max(initial=0.0)):
        jitter = _WHITEN_PIVOT_RATIO * float(np.mean(np.diag(ops.Kuu)))
        g = chol.factor(ops.Kuu, jitter)
        f = chol.LowerFactor(g.L, jitter + g.jitter_used)
    A = chol.solve_lower(f.L, ops.Kuf)
    return A, f


def _log_bounds(A: np.ndarray, y: np.ndarray, noise_var: float):
    """Return (L, log_bound) for the M x M system of N(0, A^T A + noise I).

    L factors I + A A^T / noise.  ``log_bound(shift)`` is the log density of y
    with the log-determinant at the unshifted noise (what both the lower and
    upper bounds share) and the quadratic form at the noise plus ``shift``; A A^T,
    A y and the unshifted factor are computed once, here.
    """
    n, m = y.shape[0], A.shape[0]
    AAt, Ay, yy = A @ A.T, A @ y, float(y @ y)
    L0 = np.linalg.cholesky(np.eye(m) + AAt / noise_var)
    logdet = n * math.log(noise_var) + 2.0 * float(np.sum(np.log(np.diag(L0))))

    def log_bound(shift: float) -> float:
        s = noise_var + shift
        L = L0 if shift == 0.0 else np.linalg.cholesky(np.eye(m) + AAt / s)
        c = chol.solve_lower(L, Ay)
        quad = (yy - float(c @ c) / s) / s
        return -0.5 * quad - 0.5 * logdet - 0.5 * n * gp_exact.LOG_2PI

    return L0, log_bound


def _elbo_from(log_bound, t: float, noise_var: float) -> float:
    # The collapsed bound: log_bound at the unshifted noise, less t / (2 noise).
    return log_bound(0.0) - t / (2.0 * noise_var)


def elbo(ops: FeatureOperators, y, noise: gp_exact.NoiseModel) -> float:
    """Collapsed variational lower bound (optimal q(u)), computed in O(N M^2)."""
    y = np.asarray(y, dtype=float).ravel()
    A, _ = _whiten(ops)
    t = _trace_gap_from(ops.kff_diag, A)
    return _elbo_from(_log_bounds(A, y, noise.variance)[1], t, noise.variance)


def upper_bound(ops: FeatureOperators, y, noise: gp_exact.NoiseModel, t: float) -> float:
    """Trace-shifted upper bound on the log marginal likelihood, O(N M^2)."""
    y = np.asarray(y, dtype=float).ravel()
    A, _ = _whiten(ops)
    return _log_bounds(A, y, noise.variance)[1](max(t, 0.0))


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


def trace_gap(ops: FeatureOperators) -> float:
    """t = Tr(K_ff - Q_ff) at the inputs ``ops`` was built at, never forming either densely."""
    A, _ = _whiten(ops)
    return _trace_gap_from(ops.kff_diag, A)


def lambda_max_gap(
    K: np.ndarray | chol.Packed, A: np.ndarray, t: float, variance: float, tol: float = 1e-6
) -> float:
    """Largest eigenvalue of K - A^T A, never forming the residual densely.

    K is the N x N Gram (read through ``chol.as_packed``), A the whitened
    M x N operator, t the trace gap of the residual and ``variance`` the
    kernel variance.  The residual operator is applied as
    ``K V - A^T (A V)`` to blocks V of ``_KRYLOV_BLOCK`` columns, so one pass
    over K's packed panels serves a whole block.
    Starting from a fixed Gaussian block (``default_rng(0)``), each new block
    is orthogonalised twice against the basis (once more after QR if needed),
    and the estimate is the top Rayleigh-Ritz value of the residual on that
    orthonormal basis.  Unlike a single power iteration vector, a block does
    not stall when the two leading residual eigenvalues are nearly equal,
    which happens routinely for well-spread point sets.  The iteration stops
    once the top Ritz pair's residual norm is at most ``0.1 * tol`` times the
    Ritz value (ARPACK's test) or at round-off (``1e-14 N variance``); a basis
    that reaches ``_KRYLOV_MAX_BASIS`` columns first raises
    NoConvergenceError.  A Ritz value never exceeds the eigenvalue, so the
    result is a lower estimate of lambda_max.  It is clamped into [0, t];
    exceeding t beyond round-off slack raises NumericalInconsistencyError.
    """
    K = chol.as_packed(K)
    n = K.dim
    floor = 1e-14 * n * variance
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((n, min(_KRYLOV_BLOCK, n))))[0]
    Q = RQ = np.empty((n, 0))  # orthonormal Krylov basis, and the residual applied to it
    while True:
        Q = np.hstack([Q, V])
        RQ = np.hstack([RQ, K @ V - A.T @ (A @ V)])
        theta, U = np.linalg.eigh(Q.T @ RQ)
        lam, u = float(theta[-1]), U[:, -1]
        resid = float(np.linalg.norm(RQ @ u - lam * (Q @ u)))
        # A basis spanning all n directions gives the eigenvalues themselves.
        if resid <= max(0.1 * tol * lam, floor) or Q.shape[1] == n:
            break
        if Q.shape[1] >= _KRYLOV_MAX_BASIS:
            raise NoConvergenceError(
                f"block Krylov residual {resid:.3e} at {Q.shape[1]} basis columns"
            )
        W = RQ[:, -V.shape[1]:]
        for _ in range(2):  # a second pass restores orthogonality lost to cancellation
            W = W - Q @ (Q.T @ W)
        V = np.linalg.qr(W[:, : n - Q.shape[1]])[0]
        # QR of a rank-deficient W can return columns not orthogonal to Q.
        P = Q.T @ V
        if np.max(np.abs(P)) > 1e-8:
            V = np.linalg.qr(V - Q @ P)[0]
    if lam > t + 1e-8 * max(t, 1.0) + 1e-12 * n * variance:
        raise NumericalInconsistencyError(
            f"largest residual eigenvalue {lam:.3e} exceeds trace gap {t:.3e}"
        )
    return min(max(lam, 0.0), t)


def residual(
    inducing: InducingSet, kernel: kernels.KernelSpec, X, K: np.ndarray | chol.Packed
) -> Residual:
    """Whiten one inducing set at the inputs X and estimate lambda_max from their Gram K.

    K is only read, so it can be factored in place afterwards
    (``chol.factor(K, noise.variance)``).
    """
    ops = feature_operators(inducing, kernel, X)
    if K.shape != (ops.Kuf.shape[1],) * 2:
        raise DimensionMismatchError(f"Gram of shape {K.shape} for {ops.Kuf.shape[1]} inputs")
    A, f_uu = _whiten(ops)
    t = _trace_gap_from(ops.kff_diag, A)
    return Residual(A, f_uu.jitter_used, t, lambda_max_gap(K, A, t, kernel.variance))


def optimal_q(ops: FeatureOperators, y, noise: gp_exact.NoiseModel) -> VariationalSolution:
    """Closed-form optimum of the variational distribution over u."""
    y = np.asarray(y, dtype=float).ravel()
    A, f_uu = _whiten(ops)
    s2 = noise.variance
    LB, log_bound = _log_bounds(A, y, s2)
    c = chol.solve_lower(LB, A @ y)
    # Sigma = Luu B^{-1} Luu^T, mu = Luu B^{-1} A y / s2, via T = LB^{-1} Luu^T.
    T = chol.solve_lower(LB, f_uu.L.T)
    Sigma = T.T @ T
    mu = T.T @ c / s2
    lower = _elbo_from(log_bound, _trace_gap_from(ops.kff_diag, A), s2)
    return VariationalSolution(mu, 0.5 * (Sigma + Sigma.T), lower)


def predict(
    sol: VariationalSolution,
    inducing: InducingSet,
    kernel: kernels.KernelSpec,
    X_query,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and per-point variance of the approximate posterior."""
    ops = feature_operators(inducing, kernel, X_query)
    Cx, f = _whiten(ops)
    w = chol.solve_lower(f.L, sol.mu)
    S1 = chol.solve_lower(f.L, sol.Sigma)
    Sw = chol.solve_lower(f.L, S1.T).T
    mean = Cx.T @ w
    var = ops.kff_diag + np.sum(
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
    noisy = gp_exact.dense_system(data.X, kernel, noise)
    return _kl_from(gp_exact.log_marginal_likelihood(noisy, data.y), elbo(ops, data.y, noise))


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
    half = chol.solve_lower(f2.L, f1.L)
    trace = float(np.sum(half * half))
    quad = chol.solve_lower(f2.L, m1 - m2)
    kl = 0.5 * (
        trace + chol.log_det(f2) - chol.log_det(f1) + float(quad @ quad) - n
    )
    return max(kl, 0.0)


def evaluate(
    y: np.ndarray, noise: gp_exact.NoiseModel, res: Residual, lml: float
) -> BoundReport:
    """Compute the full certified-quantity report for one instance.

    ``res`` is :func:`residual` of the inducing set at the inputs of the
    outputs ``y``, and ``lml`` their :func:`gp_exact.log_marginal_likelihood`;
    every bound reads ``res.A``, and the exact KL reads ``lml``.
    """
    if res.A.shape[1] != len(y):
        raise DimensionMismatchError(
            f"whitened operator of {res.A.shape[1]} columns for {len(y)} observations"
        )
    s2 = noise.variance
    _, log_bound = _log_bounds(res.A, y, s2)
    lower = _elbo_from(log_bound, res.t, s2)
    return BoundReport(
        t=res.t,
        lambda_max_tilde=res.lambda_max,
        elbo=lower,
        upper=log_bound(res.t),
        upper_refined=log_bound(res.lambda_max),
        kl_exact=_kl_from(lml, lower),
        norm_y_sq=float(y @ y),
        jitter_used=res.jitter_used,
    )
