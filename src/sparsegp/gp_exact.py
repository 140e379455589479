"""Exact conjugate GP regression: the dense baseline everything is measured against.

All solves route through :mod:`sparsegp.chol` with the default jitter
schedule; the jitter actually used is visible on the returned factors.  The
prior mean is identically zero.  :func:`dense_system` builds the one
:class:`DenseSystem` of an instance and refuses N above ``DENSE_LIMIT``; a
caller that reads the Gram before it is factored builds it with
:func:`dense_gram` and factors that same array with
:meth:`DenseSystem.from_gram`.
:func:`log_marginal_likelihood` and :func:`posterior` build their own;
:func:`sample_prior_outputs` and :func:`sparsegp.svgp.evaluate` read one the
caller built, so a harness cell draws y and evaluates from the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chol, kernels
from .errors import DenseLimitExceededError, DimensionMismatchError, InvalidHyperparameterError

LOG_2PI = math.log(2.0 * math.pi)

# Largest N for which the O(N^3) dense system is built; its peak memory is K
# and its factor, 200 MB each at the limit.
DENSE_LIMIT = 5000


@dataclass(frozen=True)
class Dataset:
    """Training inputs X (N x D) and outputs y (N,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = kernels.as_points(self.X)
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

    @classmethod
    def from_gram(cls, K: np.ndarray, noise: NoiseModel) -> "DenseSystem":
        """Factor ``K + noise*I`` for a built Gram K, which the system keeps."""
        k_diag = K.diagonal().copy()
        np.fill_diagonal(K, k_diag + noise.variance)
        try:
            noisy = chol.factor(K)
        finally:
            np.fill_diagonal(K, k_diag)  # the factor does not alias K; no second N x N array
        return cls(K, noisy)

    def log_marginal_likelihood(self, y) -> float:
        """Log density of y under the zero-mean prior with noisy Gram K + noise*I."""
        alpha = chol.solve_lower(self.noisy.L, y)
        quad = float(alpha @ alpha)
        return -0.5 * quad - 0.5 * chol.log_det(self.noisy) - 0.5 * len(y) * LOG_2PI


def dense_gram(X, kernel: kernels.KernelSpec) -> np.ndarray:
    """The N x N Gram of an instance; refuses N above ``DENSE_LIMIT``."""
    n = len(X)
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(f"N={n} exceeds the dense limit {DENSE_LIMIT}")
    return kernels.gram(kernel, X)


def dense_system(X, kernel: kernels.KernelSpec, noise: NoiseModel) -> DenseSystem:
    """The O(N^3) part of an instance, which every dense entry point reads."""
    return DenseSystem.from_gram(dense_gram(X, kernel), noise)


def log_marginal_likelihood(
    data: Dataset, kernel: kernels.KernelSpec, noise: NoiseModel
) -> float:
    """Log density of y under the zero-mean prior with noisy Gram K_ff + noise*I."""
    return dense_system(data.X, kernel, noise).log_marginal_likelihood(data.y)


def posterior(
    data: Dataset, kernel: kernels.KernelSpec, noise: NoiseModel, X_query
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean vector and full covariance matrix at the query points."""
    X_query = kernels.as_points(X_query)
    L = dense_system(data.X, kernel, noise).noisy.L
    Ks = kernels.gram(kernel, data.X, X_query)
    V = chol.solve_lower(L, Ks)
    alpha = chol.solve_lower(L, data.y)
    mean = V.T @ alpha
    cov = kernels.gram(kernel, X_query) - V.T @ V
    return mean, 0.5 * (cov + cov.T)


def sample_prior_outputs(system: DenseSystem, seed: int) -> np.ndarray:
    """Draw y ~ N(0, K_ff + noise*I) from a built system; reproducible for a fixed seed."""
    L = system.noisy.L
    return L @ np.random.default_rng(seed).standard_normal(L.shape[0])
