"""Exact conjugate GP regression: the dense baseline everything is measured against.

All solves route through :mod:`sparsegp.chol` with the default jitter
schedule; the jitter actually used is visible on the returned factors.  The
prior mean is identically zero.  :func:`dense_system` builds the one
:class:`DenseSystem` of an instance and refuses N above ``DENSE_LIMIT``; a
caller that reads the Gram before it is factored builds it with
:func:`dense_gram`, reads it, and then factors that same array in place with
:meth:`DenseSystem.from_gram`, which consumes it.
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
    SparseGPError,
)

LOG_2PI = math.log(2.0 * math.pi)

# Largest N for which the O(N^3) dense system is built; its peak memory is
# one N x N array, 200 MB at the limit, as the factor takes K's memory.
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
    """The factor of K + noise*I for an instance's noise-free Gram K, built once.

    The factor is computed in K's own memory, so the system holds one N x N
    array; whatever reads K itself (a selection, the lambda_max estimate)
    runs before the system is built.
    """

    noisy: chol.LowerFactor

    @classmethod
    def from_gram(cls, K: np.ndarray, noise: NoiseModel) -> "DenseSystem":
        """Factor ``K + noise*I`` in the memory of a built Gram K, which is consumed.

        K must be a contiguous float64 array.  On success it holds the factor
        (``noisy.L`` is a view of it) and must not be read as a Gram again; if
        the factor fails, K is left as it was.

        Raises
        ------
        NotFactorizableError
            If K holds a non-finite entry, or if every jitter level fails.
        AsymmetricInputError
            If K is not symmetric within ``chol.factor``'s tolerance.
        """
        k_diag = K.diagonal().copy()
        np.fill_diagonal(K, k_diag + noise.variance)
        try:
            noisy = chol.factor(K, overwrite_a=True)
        except SparseGPError:
            np.fill_diagonal(K, k_diag)
            raise
        return cls(noisy)


def dense_gram(X, kernel: kernels.KernelSpec) -> np.ndarray:
    """The N x N Gram of an instance; refuses N above ``DENSE_LIMIT``."""
    n = len(X)
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(f"N={n} exceeds the dense limit {DENSE_LIMIT}")
    return kernels.gram(kernel, X)


def dense_system(X, kernel: kernels.KernelSpec, noise: NoiseModel) -> DenseSystem:
    """The O(N^3) part of an instance, which every dense entry point reads."""
    return DenseSystem.from_gram(dense_gram(X, kernel), noise)


def log_marginal_likelihood(system: DenseSystem, y) -> float:
    """Log density of y under the zero-mean prior with noisy Gram K_ff + noise*I."""
    alpha = chol.solve_lower(system.noisy.L, y)
    quad = float(alpha @ alpha)
    return -0.5 * quad - 0.5 * chol.log_det(system.noisy) - 0.5 * len(y) * LOG_2PI


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
