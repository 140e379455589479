"""Exact-GP baseline tests: scalar formulas, dense oracles, sampling moments."""

import math
import tracemalloc

import numpy as np
import pytest

from sparsegp import chol, gp_exact, kernels
from sparsegp.errors import (
    AsymmetricInputError,
    DenseLimitExceededError,
    DimensionMismatchError,
    InvalidHyperparameterError,
)

LOG_2PI = math.log(2.0 * math.pi)


def make_kernel(v=1.0, ell=0.7):
    return kernels.squared_exponential(v, [ell])


class TestDatasetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gp_exact.Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidHyperparameterError):
            gp_exact.Dataset(np.array([[np.nan]]), np.array([0.0]))

    def test_noise_positive(self):
        with pytest.raises(InvalidHyperparameterError):
            gp_exact.NoiseModel(0.0)


class TestDenseSystem:
    def test_limit_checked_before_gram(self, monkeypatch):
        calls = []
        gram = kernels.gram

        def counting_gram(*args, **kwargs):
            calls.append(args)
            return gram(*args, **kwargs)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        X = np.zeros((gp_exact.DENSE_LIMIT + 1, 1))
        with pytest.raises(DenseLimitExceededError, match=str(gp_exact.DENSE_LIMIT)):
            gp_exact.dense_system(X, make_kernel(), gp_exact.NoiseModel(0.1))
        assert calls == []

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(gp_exact, "DENSE_LIMIT", 3)
        X = np.arange(4.0)[:, None]
        noise = gp_exact.NoiseModel(0.1)
        assert gp_exact.dense_system(X[:3], make_kernel(), noise).noisy.L.shape == (3, 3)
        with pytest.raises(DenseLimitExceededError):
            gp_exact.dense_system(X, make_kernel(), noise)

    def test_failed_factor_restores_the_gram(self):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        before = K.copy()
        with pytest.raises(AsymmetricInputError):
            gp_exact.DenseSystem.from_gram(K, gp_exact.NoiseModel(0.1))
        assert K.tobytes() == before.tobytes()

    def test_factor_shares_the_gram_memory(self):
        # The factor is computed in K's own memory and equals the factor of
        # a separate K + s2 I; K is consumed.
        X = np.random.default_rng(3).normal(size=(300, 1))
        K = gp_exact.dense_gram(X, make_kernel())
        expected = chol.factor(K + 0.1 * np.eye(300))
        system = gp_exact.DenseSystem.from_gram(K, gp_exact.NoiseModel(0.1))
        assert np.shares_memory(system.noisy.L, K)
        assert system.noisy.L.tobytes() == expected.L.tobytes()
        assert system.noisy.jitter_used == expected.jitter_used

    def test_factor_allocates_no_second_gram(self):
        # tracemalloc sees numpy's buffers: besides K, the factor needs only
        # vectors and the symmetry check's one tile.
        X = np.random.default_rng(4).uniform(0.0, 5.0, (1500, 1))
        K = gp_exact.dense_gram(X, make_kernel(ell=0.4))
        tracemalloc.start()
        try:
            gp_exact.DenseSystem.from_gram(K, gp_exact.NoiseModel(0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * K.nbytes


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        k = make_kernel(v=1.3)
        noise = gp_exact.NoiseModel(0.2)
        system = gp_exact.dense_system(np.array([[0.4]]), k, noise)
        expected = -0.5 * math.log(2 * math.pi * 1.5)
        assert gp_exact.log_marginal_likelihood(system, np.array([0.0])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_single_nonzero_observation(self):
        c, v, s2 = 0.8, 1.3, 0.2
        k = make_kernel(v=v)
        system = gp_exact.dense_system(np.array([[0.4]]), k, gp_exact.NoiseModel(s2))
        expected = -c * c / (2 * (v + s2)) - 0.5 * math.log(2 * math.pi * (v + s2))
        got = gp_exact.log_marginal_likelihood(system, np.array([c]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dense_mvn_density_oracle(self):
        rng = np.random.default_rng(0)
        k = make_kernel()
        noise = gp_exact.NoiseModel(0.3)
        X = rng.normal(0, 1, (3, 1))
        y = rng.normal(0, 1, 3)
        K = kernels.gram(k, X) + 0.3 * np.eye(3)
        expected = (
            -0.5 * y @ np.linalg.inv(K) @ y
            - 0.5 * np.linalg.slogdet(K)[1]
            - 1.5 * LOG_2PI
        )
        got = gp_exact.log_marginal_likelihood(gp_exact.dense_system(X, k, noise), y)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        k = make_kernel()
        noise = gp_exact.NoiseModel(0.1)
        X = rng.normal(0, 1, (20, 1))
        y = rng.normal(0, 1, 20)
        base = gp_exact.log_marginal_likelihood(gp_exact.dense_system(X, k, noise), y)
        perm = rng.permutation(20)
        shuffled = gp_exact.log_marginal_likelihood(
            gp_exact.dense_system(X[perm], k, noise), y[perm]
        )
        assert abs(base - shuffled) <= 1e-10


class TestPosterior:
    def test_prior_reversion_far_away(self):
        k = make_kernel(v=1.5, ell=0.5)
        noise = gp_exact.NoiseModel(0.1)
        data = gp_exact.Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        mean, cov = gp_exact.posterior(data, k, noise, np.array([[50.0]]))
        assert abs(mean[0]) <= 1e-6 * 1.5
        assert abs(cov[0, 0] - 1.5) <= 1e-6 * 1.5

    def test_interpolation_at_tiny_noise(self):
        rng = np.random.default_rng(2)
        k = make_kernel()
        X = rng.normal(0, 2, (5, 1))
        y = rng.normal(0, 1, 5)
        mean, _ = gp_exact.posterior(
            gp_exact.Dataset(X, y), k, gp_exact.NoiseModel(1e-8), X
        )
        assert np.max(np.abs(mean - y)) <= 1e-3

    def test_two_point_hand_solved_system(self):
        k = make_kernel(v=1.0, ell=1.0)
        s2 = 0.5
        x1, x2, xq = 0.0, 1.0, 0.25
        y = np.array([1.0, 2.0])
        r = math.exp(-0.5)
        K = np.array([[1 + s2, r], [r, 1 + s2]])
        ks = np.array([math.exp(-0.5 * xq**2), math.exp(-0.5 * (xq - x2) ** 2)])
        det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
        Kinv = np.array([[K[1, 1], -K[0, 1]], [-K[1, 0], K[0, 0]]]) / det
        expected_mean = ks @ Kinv @ y
        expected_var = 1.0 - ks @ Kinv @ ks
        data = gp_exact.Dataset(np.array([[x1], [x2]]), y)
        mean, cov = gp_exact.posterior(data, k, gp_exact.NoiseModel(s2), np.array([[xq]]))
        assert mean[0] == pytest.approx(expected_mean, abs=1e-12)
        assert cov[0, 0] == pytest.approx(expected_var, abs=1e-12)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(3)
        k = make_kernel()
        data = gp_exact.Dataset(rng.normal(0, 1, (10, 1)), rng.normal(0, 1, 10))
        _, cov = gp_exact.posterior(data, k, gp_exact.NoiseModel(0.1), rng.normal(0, 1, (6, 1)))
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10

    def test_duplicate_consistent_observation_tightens(self):
        k = make_kernel()
        noise = gp_exact.NoiseModel(0.2)
        X = np.array([[0.0], [1.2]])
        y = np.array([0.5, -0.3])
        _, cov1 = gp_exact.posterior(gp_exact.Dataset(X, y), k, noise, np.array([[0.0]]))
        X2 = np.vstack([X, [[0.0]]])
        y2 = np.append(y, 0.5)
        _, cov2 = gp_exact.posterior(gp_exact.Dataset(X2, y2), k, noise, np.array([[0.0]]))
        assert cov2[0, 0] <= cov1[0, 0] + 1e-12


class TestPriorSampling:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (8, 1))
        k = make_kernel()
        noise = gp_exact.NoiseModel(0.3)
        system = gp_exact.dense_system(X, k, noise)
        y1 = gp_exact.sample_prior_outputs(system, seed=11)
        y2 = gp_exact.sample_prior_outputs(gp_exact.dense_system(X, k, noise), seed=11)
        y3 = gp_exact.sample_prior_outputs(system, seed=12)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_scalar_variance_monte_carlo(self):
        # Var y = v + noise for a single input, over 1e5 seeds.
        k = make_kernel(v=0.9)
        noise = gp_exact.NoiseModel(0.4)
        system = gp_exact.dense_system(np.array([[0.2]]), k, noise)
        n_seeds = 100_000
        draws = np.fromiter(
            (gp_exact.sample_prior_outputs(system, seed=s)[0] for s in range(n_seeds)),
            dtype=float,
            count=n_seeds,
        )
        target = 1.3
        sample_var = float(np.var(draws))
        se = target * math.sqrt(2.0 / (n_seeds - 1))
        assert abs(sample_var - target) <= 3 * se

    def test_pair_correlation_monte_carlo(self):
        k = make_kernel(v=1.0, ell=1.0)
        noise = gp_exact.NoiseModel(0.5)
        system = gp_exact.dense_system(np.array([[0.0], [1.0]]), k, noise)
        n_seeds = 100_000
        draws = np.empty((n_seeds, 2))
        for s in range(n_seeds):
            draws[s] = gp_exact.sample_prior_outputs(system, seed=s)
        target = math.exp(-0.5) / 1.5
        corr = float(np.corrcoef(draws.T)[0, 1])
        se = (1 - target**2) / math.sqrt(n_seeds)
        assert abs(corr - target) <= 3 * se
