"""Variational-core tests against dense oracles.

The O(N M^2) production paths are compared with dense N x N evaluations,
full eigendecompositions, and an explicit joint-Gaussian KL construction,
none of which share code with the paths under test.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from sparsegp import bounds, chol, gp_exact, inducing, kernels, svgp
from sparsegp.errors import (
    DenseLimitExceededError,
    DimensionMismatchError,
    DuplicateInducingPointError,
    NegativeVarianceError,
    NoConvergenceError,
    NotFactorizableError,
    NumericalInconsistencyError,
)

LOG_2PI = math.log(2.0 * math.pi)


def make_instance(seed, n=50, ell=0.6, v=1.0, s2=0.5):
    rng = np.random.default_rng(seed)
    kern = kernels.squared_exponential(v, [ell])
    noise = gp_exact.NoiseModel(s2)
    X = rng.normal(0, 1, (n, 1))
    y = gp_exact.sample_prior_outputs(gp_exact.dense_system(X, kern, noise), seed=seed + 1000)
    return gp_exact.Dataset(X, y), kern, noise


def dense_qff(ops):
    # Stable dense Nystrom matrix (triangular solves, not a raw inverse).  A
    # Kuu whose squared pivots span more than 1e10 is factored with
    # 1e-10 * mean(diag Kuu) on its diagonal, the Kuu that svgp whitens with.
    f = chol.factor(ops.Kuu)
    pivots = np.diag(f.L) ** 2
    if pivots.size and pivots.min() < 1e-10 * pivots.max():
        f = chol.factor(ops.Kuu + 1e-10 * np.mean(np.diag(ops.Kuu)) * np.eye(pivots.size))
    A = solve_triangular(f.L, ops.Kuf, lower=True)
    return A.T @ A


def lambda_max(kern, X, ops, tol=1e-6):
    # The block Krylov estimate on the Gram at X, from the whitening and
    # trace gap svgp.residual computes.
    A, _ = svgp._whiten(ops)
    t = svgp.trace_gap(kern, X, ops)
    return svgp.lambda_max_gap(kernels.gram(kern, X), A, t, kern.variance, tol)


class TestFeatureOperators:
    def test_points_equal_inputs(self):
        data, kern, _ = make_instance(0, n=12)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        K = kernels.gram(kern, data.X)
        assert np.allclose(ops.Kuu, K, atol=1e-14)
        assert np.allclose(ops.Kuf, K, atol=1e-14)

    def test_points_of_another_width_rejected(self):
        data, kern, _ = make_instance(0, n=12)
        with pytest.raises(DimensionMismatchError, match="dimension 2"):
            svgp.feature_operators(svgp.Points(np.arange(6.0).reshape(3, 2)), kern, data.X)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicateInducingPointError):
            svgp.Points(np.array([[0.0], [1.0], [0.0]]))

    def test_eigenvector_full_basis_reproduces_gram(self):
        # A rough kernel keeps the full Gram numerically nonsingular, so the
        # complete eigenbasis is available.
        rng = np.random.default_rng(1)
        kern = kernels.matern_half_integer(0, 1.0, [0.5])
        X = rng.normal(0, 1, (15, 1))
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, 15)
        ops = svgp.feature_operators(feats, kern, X)
        assert np.allclose(dense_qff(ops), kernels.gram(kern, X), atol=1e-8)

    def test_eigenvector_truncation_matches_dense_eig(self):
        data, kern, _ = make_instance(2, n=30)
        feats = inducing.eigenvector_features(kernels.gram(kern, data.X), data.X, 6)
        ops = svgp.feature_operators(feats, kern, data.X)
        K = kernels.gram(kern, data.X)
        w, V = np.linalg.eigh(K)
        truncated = (V[:, -6:] * w[-6:]) @ V[:, -6:].T
        assert np.max(np.abs(dense_qff(ops) - truncated)) <= 1e-8

    def test_eigenvector_features_off_anchors_match_anchor_columns(self):
        # W^T K(anchors, X) at a subset of the anchors equals the matching
        # columns of the diag(lambdas) W^T read off at the anchors.
        data, kern, _ = make_instance(3, n=10)
        feats = inducing.eigenvector_features(kernels.gram(kern, data.X), data.X, 3)
        at_anchors = svgp.feature_operators(feats, kern, data.X)
        subset = svgp.feature_operators(feats, kern, data.X[:-1])
        assert np.array_equal(subset.Kuu, at_anchors.Kuu)
        assert np.max(np.abs(subset.Kuf - at_anchors.Kuf[:, :-1])) <= 1e-12


class TestElbo:
    def test_full_inducing_recovers_marginal_likelihood(self):
        data, kern, noise = make_instance(4)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        lml = gp_exact.log_marginal_likelihood(gp_exact.dense_system(data.X, kern, noise), data.y)
        assert svgp.elbo(ops, data.y, noise) == pytest.approx(lml, abs=1e-8)

    def test_scalar_closed_form(self):
        kern = kernels.squared_exponential(1.4, [0.8])
        noise = gp_exact.NoiseModel(0.3)
        X = np.array([[0.5]])
        Z = np.array([[0.1]])
        y = np.array([0.7])
        kuu = float(kernels.gram(kern, Z)[0, 0])
        kuf = float(kernels.gram(kern, Z, X)[0, 0])
        q = kuf * kuf / kuu
        expected = (
            -0.5 * y[0] ** 2 / (q + 0.3)
            - 0.5 * math.log(q + 0.3)
            - 0.5 * LOG_2PI
            - (1.4 - q) / (2 * 0.3)
        )
        ops = svgp.feature_operators(svgp.Points(Z), kern, X)
        assert svgp.elbo(ops, y, noise) == pytest.approx(expected, abs=1e-12)

    def test_dense_oracle_and_kl_identity(self):
        data, kern, noise = make_instance(5, n=50)
        rng = np.random.default_rng(42)
        Z = rng.normal(0, 1, (7, 1))
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        Qn = dense_qff(ops) + noise.variance * np.eye(50)
        t = float(np.trace(kernels.gram(kern, data.X) - dense_qff(ops)))
        dense = (
            -0.5 * data.y @ np.linalg.solve(Qn, data.y)
            - 0.5 * np.linalg.slogdet(Qn)[1]
            - 25 * LOG_2PI
            - t / (2 * noise.variance)
        )
        el = svgp.elbo(ops, data.y, noise)
        assert el == pytest.approx(dense, abs=2e-6)
        lml = gp_exact.log_marginal_likelihood(gp_exact.dense_system(data.X, kern, noise), data.y)
        assert el <= lml + 1e-8
        kl = svgp.kl_exact(data, kern, noise, ops)
        assert abs((lml - el) - kl) <= 1e-8 * max(1.0, abs(lml))

    def test_empty_inducing_set(self):
        data, kern, noise = make_instance(6, n=9)
        ops = svgp.FeatureOperators(
            np.zeros((0, 0)), np.zeros((0, 9)), kernels.gram_diag(kern, data.X)
        )
        expected = (
            -0.5 * data.y @ data.y / noise.variance
            - 4.5 * math.log(noise.variance)
            - 4.5 * LOG_2PI
            - 9 * kern.variance / (2 * noise.variance)
        )
        assert svgp.elbo(ops, data.y, noise) == pytest.approx(expected, abs=1e-10)
        assert svgp.trace_gap(kern, data.X, ops) == pytest.approx(9 * kern.variance)


class TestTraceGap:
    def test_zero_for_full_set(self):
        data, kern, _ = make_instance(7, n=20)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        assert svgp.trace_gap(kern, data.X, ops) <= 1e-8

    def test_eigenvector_features_give_spectral_tail(self):
        data, kern, _ = make_instance(8, n=40)
        feats = inducing.eigenvector_features(kernels.gram(kern, data.X), data.X, 8)
        ops = svgp.feature_operators(feats, kern, data.X)
        w = np.linalg.eigvalsh(kernels.gram(kern, data.X))[::-1]
        tail = float(np.sum(w[8:]))
        assert svgp.trace_gap(kern, data.X, ops) == pytest.approx(tail, rel=1e-8)

    def test_negative_gap_raises(self):
        with pytest.raises(NumericalInconsistencyError, match="trace gap"):
            svgp._trace_gap_from(np.ones(4), 2 * np.eye(4))


class TestLambdaMax:
    def test_zero_for_full_set(self):
        data, kern, _ = make_instance(9, n=15)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        assert lambda_max(kern, data.X, ops) <= 1e-9

    def test_eigenvector_features_give_next_eigenvalue(self):
        data, kern, _ = make_instance(10, n=40)
        feats = inducing.eigenvector_features(kernels.gram(kern, data.X), data.X, 7)
        ops = svgp.feature_operators(feats, kern, data.X)
        w = np.linalg.eigvalsh(kernels.gram(kern, data.X))[::-1]
        got = lambda_max(kern, data.X, ops, tol=1e-6)
        assert got == pytest.approx(w[7], rel=1e-6)

    def test_dense_oracle_random_points(self):
        data, kern, _ = make_instance(11, n=100)
        Z = data.X[inducing.uniform_subset(100, 10, 5)]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        dense = np.linalg.eigvalsh(kernels.gram(kern, data.X) - dense_qff(ops))[-1]
        got = lambda_max(kern, data.X, ops, tol=1e-6)
        assert got == pytest.approx(dense, rel=1e-6)

    def test_bounded_by_trace(self):
        for seed in range(5):
            data, kern, _ = make_instance(20 + seed, n=60)
            Z = data.X[inducing.uniform_subset(60, 6, seed)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
            t = svgp.trace_gap(kern, data.X, ops)
            lam = lambda_max(kern, data.X, ops)
            assert 0.0 <= lam <= t * (1 + 1e-8)

    def test_estimate_above_trace_gap_raises(self):
        with pytest.raises(NumericalInconsistencyError, match="exceeds trace gap"):
            svgp.lambda_max_gap(np.eye(5), np.zeros((1, 5)), 0.5, 1.0)

    def test_nearly_equal_leading_eigenvalues(self):
        # K's top direction is removed by A, leaving two residual eigenvalues
        # 1e-9 apart at the top: the case where power iteration stalls.
        n = 200
        U = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
        d = np.concatenate([[2.0, 1.0, 1.0 - 1e-9], 0.5 * 0.9 ** np.arange(n - 3)])
        K = (U * d) @ U.T
        A = math.sqrt(2.0) * U[:, :1].T
        resid = K - A.T @ A
        dense = np.linalg.eigvalsh(0.5 * (resid + resid.T))[-1]
        got = svgp.lambda_max_gap(K, A, float(np.trace(resid)), 1.0)
        assert got == pytest.approx(dense, rel=1e-6)

    def test_ritz_value_at_most_dense_eigenvalue(self):
        for seed in range(8):
            data, kern, _ = make_instance(60 + seed, n=120)
            Z = data.X[inducing.uniform_subset(120, 4 + seed, seed)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
            dense = np.linalg.eigvalsh(kernels.gram(kern, data.X) - dense_qff(ops))[-1]
            lam = lambda_max(kern, data.X, ops)
            assert lam <= dense + 1e-12 * 120 * kern.variance

    @pytest.mark.parametrize("ell", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_low_rank_residual_not_overshot(self, ell, m):
        # A few inducing points at a long lengthscale leave K - A^T A of low
        # numerical rank; QR then fills the block with directions that are
        # not orthogonal to the basis unless they are projected out again.
        kern = kernels.squared_exponential(1.0, [ell])
        for seed in range(20):
            X = np.random.default_rng(seed).normal(size=(30, 1))
            ops = svgp.feature_operators(svgp.Points(X[:m]), kern, X)
            exact = np.linalg.eigvalsh(kernels.gram(kern, X) - dense_qff(ops))[-1]
            lam = lambda_max(kern, X, ops)
            assert lam <= exact * (1 + 1e-9) + 1e-13

    @pytest.mark.parametrize("ell", [2.0, 3.0])
    @pytest.mark.parametrize("m", [8, 10, 12])
    @pytest.mark.parametrize("n", [100, 200])
    def test_numerically_singular_kuu_keeps_lambda_max_within_trace(self, n, m, ell):
        # The leading inputs of a Gaussian sample at a long lengthscale give
        # a Kuu of condition number up to 1e16.  Whitened without jitter,
        # K - A^T A came out indefinite on 26 of these 240 instances: its top
        # eigenvalue exceeded its trace, or the trace fell below the audit.
        kern = kernels.squared_exponential(1.0, [ell])
        for seed in range(20):
            X = np.random.default_rng(seed).normal(size=(n, 1))
            ops = svgp.feature_operators(svgp.Points(X[:m]), kern, X)
            t = svgp.trace_gap(kern, X, ops)
            assert 0.0 <= lambda_max(kern, X, ops) <= t

    def test_basis_cap_raises(self, monkeypatch):
        data, kern, _ = make_instance(11, n=100)
        Z = data.X[inducing.uniform_subset(100, 10, 5)]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        monkeypatch.setattr(svgp, "_KRYLOV_MAX_BASIS", svgp._KRYLOV_BLOCK)
        with pytest.raises(NoConvergenceError, match="basis columns"):
            lambda_max(kern, data.X, ops)

    def test_residual_reads_k_in_a_few_block_products(self):
        # fig4's setting at N=1000: SE, lengthscale 0.4, uniform inputs on
        # [0, 5], noise 0.1, M = ceil(2.8 ln N) = 20 points from the chain.
        kern = kernels.squared_exponential(1.0, [0.4])
        X = np.random.default_rng(3).uniform(0.0, 5.0, (1000, 1))
        K = gp_exact.dense_gram(X, kern)
        Z = X[inducing.kdpp_mcmc(K, 20, 1500, seed=5)]
        products = []

        class CountingGram(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    other = [x for x in inputs if not isinstance(x, CountingGram)]
                    products.append(np.shape(other[0]) if other else ())
                inputs = [np.asarray(x) if isinstance(x, CountingGram) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        res = svgp.residual(svgp.Points(Z), kern, X, K.view(CountingGram))
        assert 1 <= len(products) <= 4
        assert all(len(shape) == 2 and min(shape) > 1 for shape in products)
        assert res.lambda_max == svgp.residual(svgp.Points(Z), kern, X, K).lambda_max


class TestUpperBounds:
    def test_full_set_collapses_to_marginal_likelihood(self):
        data, kern, noise = make_instance(12)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        lml = gp_exact.log_marginal_likelihood(gp_exact.dense_system(data.X, kern, noise), data.y)
        t = svgp.trace_gap(kern, data.X, ops)
        lam = lambda_max(kern, data.X, ops)
        # t is round-off-sized here, so the collapse holds to ~t * ||y||^2 / s^4.
        assert svgp.upper_bound(ops, data.y, noise, t) == pytest.approx(lml, abs=1e-5)
        assert svgp.refined_upper_bound(ops, data.y, noise, lam) == pytest.approx(
            lml, abs=1e-5
        )

    def test_refined_equals_plain_when_forced(self):
        data, kern, noise = make_instance(13)
        Z = data.X[inducing.uniform_subset(50, 5, 1)]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        t = svgp.trace_gap(kern, data.X, ops)
        assert svgp.refined_upper_bound(ops, data.y, noise, t) == pytest.approx(
            svgp.upper_bound(ops, data.y, noise, t), abs=1e-12
        )

    def test_sandwich_on_random_instances(self):
        for seed in range(10):
            data, kern, noise = make_instance(30 + seed)
            Z = data.X[inducing.uniform_subset(50, 8, seed)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
            t = svgp.trace_gap(kern, data.X, ops)
            lam = lambda_max(kern, data.X, ops)
            el = svgp.elbo(ops, data.y, noise)
            lml = gp_exact.log_marginal_likelihood(
                gp_exact.dense_system(data.X, kern, noise), data.y
            )
            refined = svgp.refined_upper_bound(ops, data.y, noise, lam)
            upper = svgp.upper_bound(ops, data.y, noise, t)
            assert el <= lml + 1e-8
            assert lml <= refined + 1e-8
            assert refined <= upper + 1e-8

    def test_upper_dominates_dense_marginal_likelihood(self):
        data, kern, noise = make_instance(14, n=50)
        rng = np.random.default_rng(3)
        Z = rng.normal(0, 1, (6, 1))
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        t = svgp.trace_gap(kern, data.X, ops)
        K = kernels.gram(kern, data.X) + noise.variance * np.eye(50)
        dense_lml = (
            -0.5 * data.y @ np.linalg.solve(K, data.y)
            - 0.5 * np.linalg.slogdet(K)[1]
            - 25 * LOG_2PI
        )
        assert svgp.upper_bound(ops, data.y, noise, t) >= dense_lml - 1e-8

    def test_refined_strictly_tighter_for_spectral_features(self):
        # With eigenvector features the largest residual eigenvalue sits
        # well below the full trace, so the refinement must bite.
        data, kern, noise = make_instance(15, n=200)
        feats = inducing.eigenvector_features(kernels.gram(kern, data.X), data.X, 5)
        ops = svgp.feature_operators(feats, kern, data.X)
        t = svgp.trace_gap(kern, data.X, ops)
        lam = lambda_max(kern, data.X, ops)
        assert lam < t
        refined = svgp.refined_upper_bound(ops, data.y, noise, lam)
        upper = svgp.upper_bound(ops, data.y, noise, t)
        assert refined < upper - 1e-6


class TestOptimalQ:
    def test_zero_outputs_give_zero_mean(self):
        data, kern, noise = make_instance(16, n=20)
        Z = data.X[:4]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        sol = svgp.optimal_q(ops, np.zeros(20), noise)
        assert np.max(np.abs(sol.mu)) == 0.0
        assert np.linalg.eigvalsh(sol.Sigma)[0] >= -1e-12

    def test_full_set_prediction_matches_exact_posterior(self):
        data, kern, noise = make_instance(17, n=30)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        sol = svgp.optimal_q(ops, data.y, noise)
        assert sol.elbo == pytest.approx(svgp.elbo(ops, data.y, noise), abs=1e-12)
        mean, var = svgp.predict(sol, svgp.Points(data.X), kern, data.X[:8])
        pm, pc = gp_exact.posterior(data, kern, noise, data.X[:8])
        assert np.max(np.abs(mean - pm)) <= 1e-8
        assert np.max(np.abs(var - np.diag(pc))) <= 1e-6

    def test_whitens_once(self, monkeypatch):
        data, kern, noise = make_instance(19, n=30)
        ops = svgp.feature_operators(svgp.Points(data.X[:6]), kern, data.X)
        calls = []
        whiten = svgp._whiten

        def counted(o):
            calls.append(o)
            return whiten(o)

        monkeypatch.setattr(svgp, "_whiten", counted)
        sol = svgp.optimal_q(ops, data.y, noise)
        assert len(calls) == 1
        assert sol.elbo == svgp.elbo(ops, data.y, noise)

    def test_perturbations_decrease_uncollapsed_bound(self):
        data, kern, noise = make_instance(18, n=25)
        rng = np.random.default_rng(99)
        Z = rng.normal(0, 1, (5, 1))
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        sol = svgp.optimal_q(ops, data.y, noise)
        s2 = noise.variance
        P = np.linalg.solve(ops.Kuu, ops.Kuf).T
        t = svgp.trace_gap(kern, data.X, ops)

        def uncollapsed(mu, Sigma):
            resid = data.y - P @ mu
            fit = (
                -0.5 * resid @ resid / s2
                - 0.5 * 25 * math.log(2 * math.pi * s2)
                - t / (2 * s2)
                - 0.5 * np.trace(P @ Sigma @ P.T) / s2
            )
            return fit - svgp.gaussian_kl(mu, Sigma, np.zeros(5), ops.Kuu)

        at_optimum = uncollapsed(sol.mu, sol.Sigma)
        assert at_optimum == pytest.approx(sol.elbo, abs=1e-6)
        for trial in range(10):
            prng = np.random.default_rng(trial)
            d_mu = prng.standard_normal(5) * 0.1
            d_fac = prng.standard_normal((5, 5)) * 0.05
            sigma_p = sol.Sigma + d_fac @ d_fac.T
            assert uncollapsed(sol.mu + d_mu, sigma_p) < at_optimum + 1e-10


class TestPredict:
    def test_prior_q_reverts_to_prior(self):
        data, kern, _ = make_instance(19, n=12)
        Z = data.X[:4]
        Kuu = kernels.gram(kern, Z)
        sol = svgp.VariationalSolution(np.zeros(4), Kuu, 0.0)
        mean, var = svgp.predict(sol, svgp.Points(Z), kern, data.X)
        assert np.max(np.abs(mean)) <= 1e-12
        assert np.max(np.abs(var - kern.variance)) <= 1e-10

    def test_far_query_reverts_to_prior(self):
        data, kern, noise = make_instance(21, n=15)
        Z = data.X[:5]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        sol = svgp.optimal_q(ops, data.y, noise)
        mean, var = svgp.predict(sol, svgp.Points(Z), kern, np.array([[80.0]]))
        assert abs(mean[0]) <= 1e-8
        assert abs(var[0] - kern.variance) <= 1e-8

    def test_full_eigenvector_basis_matches_exact_posterior(self):
        # A full eigenbasis u = W^T f(X) is an invertible map of f(X), so the
        # approximate posterior is exact at held-out points too.
        rng = np.random.default_rng(23)
        kern = kernels.matern_half_integer(0, 1.0, [0.5])
        noise = gp_exact.NoiseModel(0.5)
        X = rng.normal(0, 1, (15, 1))
        y = rng.standard_normal(15)
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, 15)
        sol = svgp.optimal_q(svgp.feature_operators(feats, kern, X), y, noise)
        X_query = rng.normal(0, 1.5, (7, 1))
        mean, var = svgp.predict(sol, feats, kern, X_query)
        pm, pc = gp_exact.posterior(gp_exact.Dataset(X, y), kern, noise, X_query)
        assert np.max(np.abs(mean - pm)) <= 1e-10
        assert np.max(np.abs(var - np.diag(pc))) <= 1e-10

    def test_eigenfunction_phi_of_wrong_shape_rejected(self):
        kern = kernels.squared_exponential(1.0, [1.0])
        feats = svgp.EigenfunctionFeatures(np.array([1.0, 0.5]), lambda X: np.ones((1, 2)))
        sol = svgp.VariationalSolution(np.zeros(2), np.diag([1.0, 0.5]), 0.0)
        with pytest.raises(DimensionMismatchError):
            svgp.predict(sol, feats, kern, np.linspace(0.0, 1.0, 5)[:, None])

    def test_negative_variance_guard(self):
        kern = kernels.squared_exponential(1.0, [1.0])
        Z = np.array([[0.0]])
        sol = svgp.VariationalSolution(np.zeros(1), np.array([[-2.0]]), 0.0)
        with pytest.raises(NegativeVarianceError):
            svgp.predict(sol, svgp.Points(Z), kern, np.array([[0.0]]))


class TestKLExact:
    def test_zero_for_full_set(self):
        data, kern, noise = make_instance(22, n=25)
        ops = svgp.feature_operators(svgp.Points(data.X), kern, data.X)
        assert svgp.kl_exact(data, kern, noise, ops) <= 1e-8

    def test_dense_limit(self):
        rng = np.random.default_rng(23)
        n = gp_exact.DENSE_LIMIT + 1
        data = gp_exact.Dataset(rng.normal(0, 1, (n, 1)), rng.normal(0, 1, n))
        kern, noise = kernels.squared_exponential(1.0, [0.6]), gp_exact.NoiseModel(0.5)
        ops = svgp.feature_operators(svgp.Points(data.X[:3]), kern, data.X)
        with pytest.raises(DenseLimitExceededError):
            svgp.kl_exact(data, kern, noise, ops)

    def test_negative_kl_raises(self):
        with pytest.raises(NumericalInconsistencyError, match="negative KL"):
            svgp._kl_from(0.0, 1.0)

    def test_joint_gaussian_construction_oracle(self):
        # Build q(u, f_X) and p(u, f_X | y) explicitly as (M+N)-dimensional
        # Gaussians and compare their KL with lml - elbo.  A Matern-1/2
        # kernel keeps both 55-dimensional covariances numerically PD; for
        # smooth kernels the f-block is singular at machine precision.
        rng0 = np.random.default_rng(24)
        kern = kernels.matern_half_integer(0, 1.0, [0.5])
        noise = gp_exact.NoiseModel(0.5)
        X = rng0.normal(0, 1, (50, 1))
        y = gp_exact.sample_prior_outputs(gp_exact.dense_system(X, kern, noise), seed=1024)
        data = gp_exact.Dataset(X, y)
        rng = np.random.default_rng(123)
        Z = rng.normal(0, 1.2, (5, 1))
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        sol = svgp.optimal_q(ops, data.y, noise)
        P = np.linalg.solve(ops.Kuu, ops.Kuf).T  # N x M
        Kff = kernels.gram(kern, data.X)
        q_mean = np.concatenate([sol.mu, P @ sol.mu])
        q_cov = np.block(
            [
                [sol.Sigma, sol.Sigma @ P.T],
                [P @ sol.Sigma, Kff - dense_qff(ops) + P @ sol.Sigma @ P.T],
            ]
        )
        C_zz = np.block([[ops.Kuu, ops.Kuf], [ops.Kuf.T, Kff]])
        C_zy = np.vstack([ops.Kuf, Kff])
        C_yy = Kff + noise.variance * np.eye(50)
        solve_y = np.linalg.solve(C_yy, C_zy.T)
        p_mean = C_zy @ np.linalg.solve(C_yy, data.y)
        p_cov = C_zz - C_zy @ solve_y
        oracle = svgp.gaussian_kl(q_mean, q_cov, p_mean, p_cov)
        kl = svgp.kl_exact(data, kern, noise, ops)
        assert kl == pytest.approx(oracle, rel=1e-6)

    def test_dominated_by_lemma1_on_many_instances(self):
        violations = 0
        for seed in range(100):
            data, kern, noise = make_instance(200 + seed, n=40)
            Z = data.X[inducing.uniform_subset(40, 6, seed)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
            t = svgp.trace_gap(kern, data.X, ops)
            lam = lambda_max(kern, data.X, ops)
            kl = svgp.kl_exact(data, kern, noise, ops)
            tight, loose = bounds.lemma1(t, lam, float(data.y @ data.y), noise.variance)
            if not (kl <= tight + 1e-10 and tight <= loose + 1e-12):
                violations += 1
        assert violations == 0


class TestGaussianKL:
    def test_identical_inputs(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 4))
        S = b @ b.T + 4 * np.eye(4)
        m = rng.standard_normal(4)
        assert svgp.gaussian_kl(m, S, m, S) == 0.0

    def test_scalar_mean_shift(self):
        assert svgp.gaussian_kl([1.0], [[1.0]], [0.0], [[1.0]]) == pytest.approx(0.5)

    def test_scalar_variance_ratio(self):
        expected = 0.5 * (2.0 - math.log(2.0) - 1.0)
        assert svgp.gaussian_kl([0.0], [[2.0]], [0.0], [[1.0]]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b1, b2 = rng.standard_normal((2, 3, 3))
            S1 = b1 @ b1.T + 3 * np.eye(3)
            S2 = b2 @ b2.T + 3 * np.eye(3)
            kl = svgp.gaussian_kl(rng.standard_normal(3), S1, rng.standard_normal(3), S2)
            assert kl >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            svgp.gaussian_kl([0.0], [[1.0]], [0.0, 0.0], np.eye(2))

    def test_nan_covariance_rejected(self):
        S = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NotFactorizableError):
            svgp.gaussian_kl(np.zeros(2), S, np.zeros(2), np.eye(2))


class TestMonotonicity:
    def test_nested_inducing_sets(self):
        data, kern, noise = make_instance(25, n=60)
        lml = gp_exact.log_marginal_likelihood(gp_exact.dense_system(data.X, kern, noise), data.y)
        order = inducing.greedy_det_init(kernels.gram(kern, data.X), 20)
        prev_elbo, prev_kl = -np.inf, np.inf
        for m in (2, 5, 10, 20):
            ops = svgp.feature_operators(svgp.Points(data.X[order[:m]]), kern, data.X)
            el = svgp.elbo(ops, data.y, noise)
            kl = svgp.kl_exact(data, kern, noise, ops)
            assert el >= prev_elbo - 1e-8
            assert kl <= prev_kl + 1e-8
            assert abs((lml - el) - kl) <= 1e-8 * max(1.0, abs(lml))
            prev_elbo, prev_kl = el, kl


class TestResidualPSD:
    def test_residual_psd_for_subset_points(self):
        # Greedy subsets keep Kuu well conditioned so the dense check stays
        # within round-off of the mathematically PSD residual.
        for seed in range(5):
            data, kern, _ = make_instance(40 + seed, n=200)
            Z = data.X[inducing.greedy_det_init(kernels.gram(kern, data.X), 12)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
            resid = kernels.gram(kern, data.X) - dense_qff(ops)
            assert np.linalg.eigvalsh(resid)[0] >= -1e-8 * kern.variance


class TestEvaluate:
    def test_report_consistency(self):
        # The report equals the standalone public functions bit for bit.
        data, kern, noise = make_instance(26, n=40)
        Z = data.X[inducing.uniform_subset(40, 8, 0)]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        t = svgp.trace_gap(kern, data.X, ops)
        lam = lambda_max(kern, data.X, ops)
        K = gp_exact.dense_gram(data.X, kern)
        res = svgp.residual(svgp.Points(Z), kern, data.X, K)
        dense = gp_exact.DenseSystem.from_gram(K, noise)
        report = svgp.evaluate(data.y, noise, res, gp_exact.log_marginal_likelihood(dense, data.y))
        assert report.t == t
        assert report.lambda_max_tilde == lam
        assert report.elbo == svgp.elbo(ops, data.y, noise)
        assert report.upper == svgp.upper_bound(ops, data.y, noise, t)
        assert report.upper_refined == svgp.refined_upper_bound(ops, data.y, noise, lam)
        assert report.kl_exact == svgp.kl_exact(data, kern, noise, ops)
        assert 0 <= report.lambda_max_tilde <= report.t * (1 + 1e-8)
        assert report.elbo <= report.upper_refined + 1e-8 <= report.upper + 2e-8
        assert report.kl_exact == pytest.approx(
            gp_exact.log_marginal_likelihood(gp_exact.dense_system(data.X, kern, noise), data.y)
            - report.elbo,
            abs=1e-10,
        )
        assert report.norm_y_sq == pytest.approx(float(data.y @ data.y))
        assert report.jitter_used >= 0.0

    def test_system_of_other_inputs_rejected(self):
        data, kern, noise = make_instance(27, n=40)
        K = gp_exact.dense_gram(data.X, kern)
        res = svgp.residual(svgp.Points(data.X[:5]), kern, data.X, K)
        dense = gp_exact.dense_system(data.X[:30], kern, noise)
        y = gp_exact.sample_prior_outputs(dense, seed=27)
        with pytest.raises(DimensionMismatchError):
            svgp.evaluate(y, noise, res, gp_exact.log_marginal_likelihood(dense, y))
