"""Selection-machinery tests: uniform, greedy, exchange chain, enumeration."""

import itertools
import math

import numpy as np
import pytest

from sparsegp import chol, inducing, kernels, svgp
from sparsegp.errors import (
    DegenerateKernelError,
    EigenFailureError,
    EnumerationTooLargeError,
    InvalidEpsilonError,
    MTooLargeError,
    NotPositiveDefiniteError,
    QuadratureTooCoarseError,
)


def se(v=1.0, ell=1.0):
    return kernels.squared_exponential(v, [ell])


class TestUniformSubset:
    def test_full_set(self):
        assert np.array_equal(inducing.uniform_subset(6, 6, 0), np.arange(6))

    def test_deterministic_per_seed(self):
        a = inducing.uniform_subset(50, 10, 7)
        b = inducing.uniform_subset(50, 10, 7)
        c = inducing.uniform_subset(50, 10, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(np.unique(a)) == 10

    def test_m_too_large(self):
        with pytest.raises(MTooLargeError):
            inducing.uniform_subset(5, 6, 0)

    def test_index_frequencies_binomial(self):
        n, m, reps = 10, 3, 100_000
        counts = np.zeros(n)
        for seed in range(reps):
            counts[inducing.uniform_subset(n, m, seed)] += 1
        freq = counts / reps
        p = m / n
        se_freq = math.sqrt(p * (1 - p) / reps)
        assert np.max(np.abs(freq - p)) <= 3 * se_freq


class TestGreedyInit:
    def test_single_point_tie_break(self):
        X = np.linspace(0, 3, 7)[:, None]
        assert inducing.greedy_det_init(kernels.gram(se(), X), 1)[0] == 0

    def test_two_clusters_pair_enumeration(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [5.1]])
        kern = se(ell=1.0)
        K = kernels.gram(kern, X)
        got = set(inducing.greedy_det_init(K, 2).tolist())
        best = max(
            itertools.combinations(range(5), 2),
            key=lambda s: np.linalg.det(K[np.ix_(s, s)]),
        )
        assert got == set(best)
        assert len(got & {0, 1, 2}) == 1 and len(got & {3, 4}) == 1

    def test_beats_uniform_sampling(self):
        rng = np.random.default_rng(0)
        kern = se(ell=0.5)
        for trial in range(50):
            X = rng.normal(0, 1, (30, 1))
            K = kernels.gram(kern, X)
            greedy = inducing.greedy_det_init(K, 5)
            uniform = inducing.uniform_subset(30, 5, trial)
            det_g = np.linalg.det(K[np.ix_(greedy, greedy)])
            det_u = np.linalg.det(K[np.ix_(uniform, uniform)])
            assert det_g >= det_u - 1e-12

    def test_per_step_argmax_property(self):
        # Each prefix determinant must dominate swapping the last pick for
        # any other candidate.
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (15, 1))
        kern = se(ell=0.7)
        K = kernels.gram(kern, X)
        order = inducing.greedy_det_init(K, 4).tolist()
        for step in range(1, 5):
            prefix = order[:step]
            base = np.linalg.det(K[np.ix_(prefix, prefix)])
            for alt in range(15):
                if alt in prefix:
                    continue
                cand = prefix[:-1] + [alt]
                assert base >= np.linalg.det(K[np.ix_(cand, cand)]) - 1e-12

    def test_degenerate_inputs_error(self):
        X = np.zeros((4, 1))
        with pytest.raises(DegenerateKernelError):
            inducing.greedy_det_init(kernels.gram(se(), X), 2)

    def test_truncation_opt_in(self):
        X = np.array([[0.0], [0.0], [1.0]])
        got = inducing.greedy_det_init(kernels.gram(se(), X), 3, allow_truncation=True)
        assert len(got) == 2


class TestExchangeChain:
    def test_zero_steps_returns_greedy(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (12, 1))
        K = kernels.gram(se(ell=0.8), X)
        assert np.array_equal(
            inducing.kdpp_mcmc(K, 4, 0, seed=5), np.sort(inducing.greedy_det_init(K, 4))
        )

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (15, 1))
        K = kernels.gram(se(ell=0.6), X)
        a = inducing.kdpp_mcmc(K, 4, 500, seed=1)
        b = inducing.kdpp_mcmc(K, 4, 500, seed=1)
        assert np.array_equal(a, b)

    def test_m_must_be_below_n(self):
        with pytest.raises(MTooLargeError):
            inducing.kdpp_mcmc(kernels.gram(se(), np.arange(3.0)[:, None]), 3, 10, 0)

    def test_advance_without_outsiders_raises_before_drawing(self):
        K = kernels.gram(se(), np.arange(3.0)[:, None])
        state = inducing.init_sampler(K, 3, seed=0)
        before = _stream_position(state.rng)
        assert inducing.advance(state, K, 0) is state
        with pytest.raises(MTooLargeError):
            inducing.advance(state, K, 1)
        assert _stream_position(state.rng) == before and state.step_count == 0

    def test_negative_step_count_raises_before_drawing(self):
        K = kernels.gram(se(ell=0.8), np.random.default_rng(2).normal(0, 1, (12, 1)))
        state = inducing.init_sampler(K, 4, seed=5)
        before = _stream_position(state.rng)
        with pytest.raises(MTooLargeError, match="nonnegative"):
            inducing.advance(state, K, -1)
        assert _stream_position(state.rng) == before and state.step_count == 0
        with pytest.raises(MTooLargeError, match="nonnegative"):
            inducing.kdpp_mcmc(K, 4, -1, seed=5)

    def test_duplicate_location_never_entered(self):
        # One exact duplicate pair: no visited subset may contain both.
        X = np.array([[0.0], [0.0], [1.0], [2.0], [3.0], [4.5]])
        K = kernels.gram(se(ell=1.0), X)
        seen = []
        state = inducing.init_sampler(K, 3, seed=11)
        inducing.advance(
            state, K, 3000, on_state=lambda s: seen.append(tuple(sorted(s.indices)))
        )
        assert all(not ({0, 1} <= set(s)) for s in seen)

    def test_detailed_balance(self):
        # pi(S) p(S->T) == pi(T) p(T->S) for every adjacent pair, with the
        # lazy acceptance (1/2) min(1, det ratio) and uniform proposals.
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (4, 1))
        kern = se(ell=0.9)
        n, m = 4, 2
        table = inducing.exact_kdpp_enumeration(kernels.gram(kern, X), m)
        prop = 1.0 / (m * (n - m))
        for S, pS in table.items():
            for T, pT in table.items():
                if len(set(S) & set(T)) != m - 1:
                    continue
                flow_st = pS * prop * 0.5 * min(1.0, pT / pS)
                flow_ts = pT * prop * 0.5 * min(1.0, pS / pT)
                assert flow_st == pytest.approx(flow_ts, rel=1e-12)

    def test_incremental_log_det_stays_honest(self):
        # After every step the factor is a fresh Cholesky of K[S, S], bit for
        # bit, and the log-determinant is that factor's.
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (20, 1))
        K = kernels.gram(se(ell=0.5), X)
        state = inducing.init_sampler(K, 5, seed=3)
        mismatches = []

        def check(s):
            fresh = chol.LowerFactor(np.linalg.cholesky(K[np.ix_(s.indices, s.indices)]))
            if not np.array_equal(s.factor.L, fresh.L) or s.log_det != chol.log_det(fresh):
                mismatches.append(s.step_count)

        inducing.advance(state, K, 20_000, on_state=check)
        assert state.accepted > 0
        assert mismatches == []

    def test_fig3_m25_draw_keeps_an_exact_factor(self):
        # A fig3 draw (N=1000, M=25) on which a factor edited swap by swap
        # drifted by 2.4e-5 in log-det within 10,000 steps.
        X = np.random.default_rng(15).normal(0, 1, (1000, 1))
        K = kernels.gram(se(ell=0.6), X)
        state = inducing.advance(inducing.init_sampler(K, 25, 15), K, 10_000)
        S = state.indices
        assert state.step_count == 10_000 and state.accepted > 0
        assert np.array_equal(state.factor.L, np.linalg.cholesky(K[np.ix_(S, S)]))

    def test_subset_factor_rejects_at_the_pivot_floor(self):
        # An exact duplicate fails in LAPACK; a near-duplicate factors, but
        # its last pivot squared (about 1e-14) is below PIVOT_FLOOR * K[j, j].
        K = kernels.gram(se(), np.array([[0.0], [0.0], [1e-7], [1.0]]))
        assert inducing._subset_factor(K[np.ix_([0, 1], [0, 1])]) is None
        assert inducing._subset_factor(K[np.ix_([0, 2], [0, 2])]) is None
        f = inducing._subset_factor(K[np.ix_([3, 0], [3, 0])])
        assert np.array_equal(f.L, np.linalg.cholesky(K[np.ix_([3, 0], [3, 0])]))

    def test_factor_consistent_with_subset(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (15, 1))
        kern = se(ell=0.7)
        K = kernels.gram(kern, X)
        state = inducing.init_sampler(K, 4, seed=9)
        inducing.advance(state, K, 777)
        K_S = kernels.gram(kern, X[state.indices])
        assert np.max(np.abs(state.factor.reconstruct() - K_S)) <= 1e-9


def _reference_chain(kernel, X, M, steps, seed):
    # The plain exchange chain: every proposal edits the factor and reads
    # the ratio from log-determinants.  Same start, RNG and draw order.
    state = inducing.init_sampler(kernels.gram(kernel, X), M, seed)
    rng, visited = state.rng, [tuple(state.indices)]
    for _ in range(steps):
        pos_i = int(rng.integers(M))
        pos_j = int(rng.integers(state.complement.shape[0]))
        j = int(state.complement[pos_j])
        try:
            if M > 1:
                f_minus = chol.remove_index(state.factor, pos_i)
                rest = state.indices[:pos_i] + state.indices[pos_i + 1 :]
                k_cross = kernels.gram(kernel, X[rest], X[j : j + 1])[:, 0]
            else:
                f_minus, k_cross = chol.LowerFactor(np.zeros((0, 0))), np.zeros(0)
            f_T = chol.append_index(f_minus, k_cross, kernel.variance)
            ratio = math.exp(min(chol.log_det(f_T) - state.log_det, 0.0))
        except NotPositiveDefiniteError:
            ratio = 0.0
        if rng.random() < 0.5 * min(1.0, ratio):
            state.complement[pos_j] = state.indices.pop(pos_i)
            state.indices.append(j)
            state.factor, state.log_det = f_T, chol.log_det(f_T)
        visited.append(tuple(state.indices))
    return visited


def _advance_visited(kernel, X, M, steps, seed):
    # Final state and the index tuples from the start through every step.
    K = kernels.gram(kernel, X)
    state = inducing.init_sampler(K, M, seed)
    visited = [tuple(state.indices)]
    inducing.advance(
        state, K, steps, on_state=lambda s: visited.append(tuple(s.indices))
    )
    return state, visited


def _changes(visited):
    return sum(a != b for a, b in zip(visited, visited[1:]))


class TestClosedFormChain:
    # (N=100, M=10, ell=2.0) has cond(K_S) near 1e10: a ratio whose d_j
    # comes from an explicit K_S^-1 flips accept decisions there.
    @pytest.mark.parametrize(
        "N, M, ells, seed",
        [
            (10, 3, [0.7], 1),
            (100, 10, [2.0], 2),
            (100, 10, [0.5], 3),
            (1000, 1, [0.6], 4),
            (1000, 2, [0.6], 5),
            (1000, 25, [0.6], 6),
            (60, 6, [0.8, 1.3], 7),
        ],
    )
    def test_same_index_sets_as_reference_chain(self, N, M, ells, seed):
        X = np.random.default_rng(seed).normal(0, 1, (N, len(ells)))
        kern = kernels.squared_exponential(1.0, ells)
        reference = _reference_chain(kern, X, M, 2000, seed)
        assert _advance_visited(kern, X, M, 2000, seed)[1] == reference
        assert np.array_equal(
            inducing.kdpp_mcmc(kernels.gram(kern, X), M, 2000, seed), np.sort(reference[-1])
        )

    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    def test_split_advance_calls_keep_reference_index_sets(self, observed):
        # Three advance calls of 700, 1 and 1299 steps continue one chain:
        # together they visit the sets of one 2000-step reference run.
        X = np.random.default_rng(3).normal(0, 1, (100, 1))
        kern = se(ell=0.5)
        reference = _reference_chain(kern, X, 10, 2000, 3)
        K = kernels.gram(kern, X)
        state = inducing.init_sampler(K, 10, 3)
        visited = [tuple(state.indices)]

        def observe(s):
            visited.append(tuple(s.indices))

        for steps in (700, 1, 1299):
            inducing.advance(state, K, steps, on_state=observe if observed else None)
        assert state.step_count == 2000
        assert tuple(state.indices) == reference[-1]
        assert state.accepted == _changes(reference) > 0
        if observed:
            assert visited == reference

    def test_factor_edited_only_on_accepted_swaps(self, monkeypatch):
        # The chain makes no factor edits: an accepted swap, and only an
        # accepted swap, puts a new factor object in the state.
        edits = []
        for name in ("remove_index", "append_index"):
            monkeypatch.setattr(chol, name, lambda *args, _name=name: edits.append(_name))
        X = np.random.default_rng(8).normal(0, 1, (100, 1))
        K = kernels.gram(se(ell=0.5), X)
        state = inducing.init_sampler(K, 10, 8)
        factors = [state.factor]

        def observe(s):
            if s.factor is not factors[-1]:
                factors.append(s.factor)

        inducing.advance(state, K, 3000, on_state=observe)
        assert edits == []
        assert 0 < state.accepted < 3000
        assert len(factors) - 1 == state.accepted

    def test_accepted_counts_index_set_changes(self):
        X = np.linspace(0, 4, 25)[:, None]
        state, visited = _advance_visited(se(ell=0.7), X, 5, 2500, 9)
        assert state.accepted == _changes(visited) > 0
        assert state.step_count == 2500


def _stream_position(rng):
    # Everything that decides the next draws (a stale 32-bit half that is
    # not flagged as buffered is never read).
    st = rng.bit_generator.state
    inner = st["state"]
    return (
        tuple(inner["counter"].tolist()),
        tuple(inner["key"].tolist()),
        tuple(st["buffer"].tolist()),
        st["buffer_pos"],
        st["has_uint32"],
        st["uinteger"] if st["has_uint32"] else None,
    )


def _per_step_draws(rng, M, n_out, steps):
    return [(int(rng.integers(M)), int(rng.integers(n_out)), rng.random()) for _ in range(steps)]


class TestBlockDraws:
    # Each case is checked against the per-step calls on a twin generator,
    # and the two generators must then go on with the same draws.
    @pytest.mark.parametrize(
        "M, n_out",
        [(1, 9), (9, 1), (2, 998), (25, 975), (2**31 + 1, 7), (7, 2**31 + 1)],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered-half"])
    @pytest.mark.parametrize("block", [None, 7])
    def test_same_draws_as_per_step_calls(self, M, n_out, buffered, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(inducing, "_DRAW_BLOCK", block)
        for seed in range(40):
            rng, twin = inducing._rng(seed), inducing._rng(seed)
            if buffered:
                # A 32-bit draw leaves the high half of its word buffered.
                assert rng.integers(5) == twin.integers(5)
                assert rng.bit_generator.state["has_uint32"] == 1
            chunks = list(inducing._draws(rng, M, n_out, 300))
            got = [
                (i, j, u) for I, J, U in chunks for i, j, u in zip(I, J, U.tolist())
            ]
            assert got == _per_step_draws(twin, M, n_out, 300)
            assert _stream_position(rng) == _stream_position(twin)
            after = [rng.integers(M), rng.integers(n_out), rng.random(), rng.integers(3)]
            assert after == [twin.integers(M), twin.integers(n_out), twin.random(), twin.integers(3)]
            assert len(chunks) == math.ceil(300 / (block or inducing._DRAW_BLOCK))

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64])
    def test_other_generators_draw_per_step(self, bit_generator):
        rng, twin = (np.random.Generator(bit_generator(3)) for _ in range(2))
        (I, J, U), = inducing._draws(rng, 25, 975, 50)
        assert list(zip(I, J, U.tolist())) == _per_step_draws(twin, 25, 975, 50)
        assert rng.random() == twin.random()


class TestMixingSteps:
    def test_worked_example(self):
        assert inducing.mixing_steps(1000, 10, 1e-3) == 759854

    def test_epsilon_near_one(self):
        n, m = 500, 8
        budget = inducing.mixing_steps(n, m, 1 - 1e-12)
        assert budget == math.ceil(n * m * m * math.log(n))

    def test_monotonicity(self):
        base = inducing.mixing_steps(1000, 10, 1e-3)
        assert inducing.mixing_steps(2000, 10, 1e-3) > base
        assert inducing.mixing_steps(1000, 11, 1e-3) > base
        assert inducing.mixing_steps(1000, 10, 1e-4) > base

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            inducing.mixing_steps(10, 2, 0.0)
        with pytest.raises(InvalidEpsilonError):
            inducing.mixing_steps(10, 2, 1.0)


class TestExactEnumeration:
    def test_full_subset_is_certain(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (4, 1))
        table = inducing.exact_kdpp_enumeration(kernels.gram(se(ell=0.8), X), 4)
        assert list(table.values()) == [pytest.approx(1.0)]

    def test_diagonal_matrix_product_rule(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        table = inducing.exact_kdpp_enumeration(np.diag(d), 2)
        products = {s: d[list(s)].prod() for s in table}
        z = sum(products.values())
        for s, p in table.items():
            assert p == pytest.approx(products[s] / z, rel=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (8, 1))
        table = inducing.exact_kdpp_enumeration(kernels.gram(se(ell=0.6), X), 3)
        assert len(table) == math.comb(8, 3)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationTooLargeError):
            inducing.exact_kdpp_enumeration(np.eye(100), 50)


class TestEigenvectorFeatures:
    def test_full_basis_zero_trace_gap(self):
        rng = np.random.default_rng(9)
        kern = kernels.matern_half_integer(0, 1.0, [0.5])
        X = rng.normal(0, 1, (20, 1))
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, 20)
        ops = svgp.feature_operators(feats, kern, X)
        assert svgp.trace_gap(ops) <= 1e-8

    def test_optimal_among_point_sets(self):
        rng = np.random.default_rng(10)
        kern = se(ell=0.6)
        X = rng.normal(0, 1, (40, 1))
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, 6)
        t_feats = svgp.trace_gap(svgp.feature_operators(feats, kern, X))
        for trial in range(100):
            Z = X[inducing.uniform_subset(40, 6, trial)]
            ops = svgp.feature_operators(svgp.Points(Z), kern, X)
            assert svgp.trace_gap(ops) >= t_feats - 1e-10

    def test_descending_positive_eigenvalues(self):
        rng = np.random.default_rng(11)
        kern = se(ell=0.7)
        X = rng.normal(0, 1, (25, 1))
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, 10)
        lam = feats.lambdas
        assert np.all(lam[:-1] >= lam[1:]) and np.all(lam > 0)

    def test_rank_below_m_raises(self):
        with pytest.raises(EigenFailureError, match="nonpositive"):
            inducing.eigenvector_features(np.zeros((3, 3)), np.zeros((3, 1)), 2)


class TestEigenfunctionFeatures:
    def test_closed_form_leading_eigenvalue(self):
        kern = se(ell=0.6)
        dens = kernels.GaussianDensity([0.0], [1.0])
        feats = inducing.eigenfunction_features(kern, dens, 1, quadrature_size=256)
        lam1 = kernels.se_gaussian_spectrum_tail(1.0, 0.6, 1.0).eigenvalue(1)
        assert feats.lambdas[0] == pytest.approx(lam1, rel=1e-12)
        ops = svgp.feature_operators(feats, kern, np.array([[0.3]]))
        assert ops.Kuu[0, 0] == pytest.approx(lam1, rel=1e-12)

    def test_empirical_density_full_rank_matches_eigvec_route(self):
        rng = np.random.default_rng(12)
        kern = kernels.matern_half_integer(0, 1.0, [0.6])
        X = rng.normal(0, 1, (18, 1))
        feats = inducing.eigenfunction_features(
            kern, kernels.EmpiricalDensity(X), 18, quadrature_size=18
        )
        ops = svgp.feature_operators(feats, kern, X)
        t_fun = svgp.trace_gap(ops)
        vec = inducing.eigenvector_features(kernels.gram(kern, X), X, 18)
        t_vec = svgp.trace_gap(svgp.feature_operators(vec, kern, X))
        assert abs(t_fun - t_vec) <= 1e-8

    def test_trace_gap_nonnegative(self):
        kern = se(ell=0.5)
        dens = kernels.GaussianDensity([0.0], [1.0])
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (30, 1))
        feats = inducing.eigenfunction_features(kern, dens, 8, quadrature_size=512)
        assert svgp.trace_gap(svgp.feature_operators(feats, kern, X)) >= 0.0

    def test_rank_deficient_operator_rejected(self):
        kern = se(ell=1e6)
        dens = kernels.UniformDensity([0.0], [1.0])
        with pytest.raises(QuadratureTooCoarseError):
            inducing.eigenfunction_features(kern, dens, 8, quadrature_size=128)
