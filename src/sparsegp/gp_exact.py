"""Exact conjugate GP regression: the dense baseline everything is measured against.

All solves route through :mod:`sparsegp.chol` with the default jitter
schedule; the jitter actually used is visible on the returned factors.  The
prior mean is identically zero.  :func:`dense_system` builds the one
:class:`DenseSystem` of an instance and refuses N above ``DENSE_LIMIT``.
:func:`log_marginal_likelihood` and :func:`posterior` build their own;
:func:`sample_prior_outputs` and :func:`sparsegp.svgp.evaluate` read one the
caller built, so a harness cell draws y and evaluates from the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import chol, kernels
from .errors import DenseLimitExceededError, DimensionMismatchError, InvalidHyperparameterError

LOG_2PI = math.log(2.0 * math.pi)

# Largest N for which the O(N^3) dense system is built; K and its factor
# take 200 MB each at the limit.
DENSE_LIMIT = 5000


@dataclass(frozen=True)
class Dataset:
    """Training inputs X (N x D) and outputs y (N,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.shape[0] != y.shape[0]:
            raise DimensionMismatchError("X and y must have the same number of rows")
        if X.shape[0] < 1:
            raise DimensionMismatchError("need at least one observation")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise InvalidHyperparameterError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Homoskedastic observation noise variance."""

    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise InvalidHyperparameterError("noise variance must be positive")


@dataclass(frozen=True)
class DenseSystem:
    """Noise-free Gram K of the inputs and the factor of K + noise*I, built once."""

    K: np.ndarray
    noisy: chol.LowerFactor

    def log_marginal_likelihood(self, y) -> float:
        """Log density of y under the zero-mean prior with noisy Gram K + noise*I."""
        alpha = solve_triangular(self.noisy.L, y, lower=True, check_finite=False)
        quad = float(alpha @ alpha)
        return -0.5 * quad - 0.5 * chol.log_det(self.noisy) - 0.5 * len(y) * LOG_2PI


def dense_system(X, kernel: kernels.KernelSpec, noise: NoiseModel) -> DenseSystem:
    """The O(N^3) part of an instance, which every dense entry point reads."""
    n = len(X)
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(f"N={n} exceeds the dense limit {DENSE_LIMIT}")
    K = kernels.gram(kernel, X)
    k_diag = K.diagonal().copy()
    np.fill_diagonal(K, k_diag + noise.variance)
    noisy = chol.factor(K)
    np.fill_diagonal(K, k_diag)  # the factor does not alias K; no second N x N array
    return DenseSystem(K, noisy)


def log_marginal_likelihood(
    data: Dataset, kernel: kernels.KernelSpec, noise: NoiseModel
) -> float:
    """Log density of y under the zero-mean prior with noisy Gram K_ff + noise*I."""
    return dense_system(data.X, kernel, noise).log_marginal_likelihood(data.y)


def posterior(
    data: Dataset, kernel: kernels.KernelSpec, noise: NoiseModel, X_query
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean vector and full covariance matrix at the query points."""
    X_query = np.asarray(X_query, dtype=float)
    if X_query.ndim == 1:
        X_query = X_query[:, None]
    L = dense_system(data.X, kernel, noise).noisy.L
    Ks = kernels.gram(kernel, data.X, X_query)
    V = solve_triangular(L, Ks, lower=True, check_finite=False)
    alpha = solve_triangular(L, data.y, lower=True, check_finite=False)
    mean = V.T @ alpha
    cov = kernels.gram(kernel, X_query) - V.T @ V
    return mean, 0.5 * (cov + cov.T)


def sample_prior_outputs(system: DenseSystem, seed: int) -> np.ndarray:
    """Draw y ~ N(0, K_ff + noise*I) from a built system; reproducible for a fixed seed."""
    L = system.noisy.L
    return L @ np.random.default_rng(seed).standard_normal(L.shape[0])
