"""Exact conjugate GP regression: the dense baseline everything is measured against.

All solves route through :mod:`sparsegp.chol` with the default jitter
schedule; the jitter actually used is visible on the returned factors.  The
prior mean is identically zero.  :func:`dense_system` returns the one factor
of K + noise*I of an instance, ``chol.factor(K, noise.variance)``, and
refuses N above ``DENSE_LIMIT``; a caller that reads the Gram before it is
factored builds it with :func:`dense_gram` (a packed lower triangle,
``chol.Packed``), reads it, and then factors it with that call, which
consumes it.  The factor stays packed: solves against it run in that
storage, and a prior draw applies it by column panels.
:func:`posterior` builds its own; :func:`sample_prior_outputs` and
:func:`log_marginal_likelihood` read one the caller built, so a harness
dataset draws y and computes its log marginal likelihood from one factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chol, kernels
from .errors import (
    DenseLimitExceededError,
    DimensionMismatchError,
    InvalidHyperparameterError,
)

LOG_2PI = math.log(2.0 * math.pi)

# Largest N for which the O(N^3) dense system is built; its peak memory is
# one packed lower triangle, N(N+1)/2 floats: 100 MB at the limit, as the
# factor takes the packed Gram's storage.
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
        if not 0 < self.variance < np.inf:
            raise InvalidHyperparameterError("noise variance must be positive and finite")


def dense_gram(X, kernel: kernels.KernelSpec) -> chol.Packed:
    """The packed N x N Gram of an instance; refuses N above ``DENSE_LIMIT``."""
    n = len(X)
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(f"N={n} exceeds the dense limit {DENSE_LIMIT}")
    return kernels.gram(kernel, X, packed=True)


def dense_system(X, kernel: kernels.KernelSpec, noise: NoiseModel) -> chol.LowerFactor:
    """The factor of K + noise*I, the O(N^3) part every dense entry point reads."""
    return chol.factor(dense_gram(X, kernel), noise.variance)


def log_marginal_likelihood(noisy: chol.LowerFactor, y) -> float:
    """Log density of y under the zero-mean prior, from the factor of K_ff + noise*I."""
    alpha = chol.solve_lower(noisy.L, y)
    quad = float(alpha @ alpha)
    return -0.5 * quad - 0.5 * chol.log_det(noisy) - 0.5 * len(y) * LOG_2PI


def posterior(
    data: Dataset, kernel: kernels.KernelSpec, noise: NoiseModel, X_query
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean vector and full covariance matrix at the query points."""
    X_query = kernels.as_points(X_query)
    L = dense_system(data.X, kernel, noise).L
    Ks = kernels.gram(kernel, data.X, X_query)
    V = chol.solve_lower(L, Ks)
    alpha = chol.solve_lower(L, data.y)
    mean = V.T @ alpha
    cov = kernels.gram(kernel, X_query) - V.T @ V
    return mean, 0.5 * (cov + cov.T)


def sample_prior_outputs(noisy: chol.LowerFactor, seed: int) -> np.ndarray:
    """Draw y ~ N(0, K_ff + noise*I) from its factor; reproducible for a fixed seed."""
    L = noisy.L
    return L @ np.random.default_rng(seed).standard_normal(L.shape[0])
