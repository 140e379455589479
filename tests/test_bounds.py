"""Tests for the analytic bound evaluators and inducing-count schedules."""

import itertools
import math

import numpy as np
import pytest

from sparsegp import bounds, kernels, svgp
from sparsegp.errors import (
    InvalidConfidenceError,
    InvalidHyperparameterError,
    OrderingViolationError,
    OrderTooSmallError,
)


def geometric_tail(v=1.0, ell=0.6, sigma=1.0):
    return kernels.se_gaussian_spectrum_tail(v, ell, sigma)


def constant_tail(value):
    return kernels.SpectrumTail(
        eigenvalue=lambda m: 0.0, tail=lambda M: value, validity=kernels.EXACT
    )


class TestLemma1:
    def test_zero_trace(self):
        assert bounds.lemma1(0.0, 0.0, 5.0, 1.0) == (0.0, 0.0)

    def test_equal_inputs_coincide(self):
        tight, loose = bounds.lemma1(0.7, 0.7, 3.0, 0.5)
        assert tight == pytest.approx(loose, rel=1e-12)

    def test_worked_example(self):
        tight, loose = bounds.lemma1(1.0, 0.5, 10.0, 1.0)
        assert tight == pytest.approx(13.0 / 6.0, rel=1e-12)
        assert loose == pytest.approx(0.5 * (1 + 10.0 / 2.0), rel=1e-12)
        assert tight <= loose

    def test_tight_below_loose_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.uniform(0, 5)
            lam = rng.uniform(0, 1) * t
            tight, loose = bounds.lemma1(t, lam, rng.uniform(0, 50), rng.uniform(0.05, 2))
            assert tight <= loose + 1e-12

    def test_ordering_violation(self):
        with pytest.raises(OrderingViolationError):
            bounds.lemma1(1.0, 1.1, 1.0, 1.0)


class TestLemma2:
    def test_zero(self):
        assert bounds.lemma2_interval(0.0, 1.0) == (0.0, 0.0)

    def test_worked_example(self):
        assert bounds.lemma2_interval(2.0, 1.0) == (1.0, 2.0)

    def test_ratio_two(self):
        for t in (0.1, 1.0, 17.3):
            lo, hi = bounds.lemma2_interval(t, 0.7)
            assert hi == pytest.approx(2 * lo, rel=1e-14)


class TestTheorems:
    def test_zero_tail(self):
        zero = constant_tail(0.0)
        assert bounds.thm1(100, 5, 0.5, 10.0, 1.0, zero) == 0.0
        assert bounds.thm2(100, 5, 0.5, 1.0, zero) == 0.0
        assert bounds.thm3(100, 5, 0.5, 0.0, 1.0, 10.0, 1.0, zero) == 0.0
        assert bounds.thm4(100, 5, 0.5, 0.0, 1.0, 1.0, zero) == 0.0

    def test_thm1_worked_example(self):
        got = bounds.thm1(100, 5, 0.5, 100.0, 1.0, constant_tail(1e-4))
        assert got == pytest.approx(1.01, rel=1e-12)

    def test_thm2_worked_example(self):
        got = bounds.thm2(100, 5, 0.5, 1.0, constant_tail(1e-4))
        assert got == pytest.approx(0.02, rel=1e-12)

    def test_thm3_worked_example(self):
        # Direct formula evaluation: (C(M+1) + 2 N v eps) / (2 s2 delta)
        # * (1 + ||y||^2/s2) with C = 100 * 1e-4 = 0.01 gives
        # (0.1 + 2e-4) * 101 = 10.1202.
        got = bounds.thm3(100, 9, 0.5, 1e-6, 1.0, 100.0, 1.0, constant_tail(1e-4))
        assert got == pytest.approx(10.1202, rel=1e-12)

    def test_thm4_worked_example(self):
        got = bounds.thm4(100, 9, 0.5, 1e-6, 1.0, 1.0, constant_tail(1e-4))
        assert got == pytest.approx(0.2004, rel=1e-12)

    def test_relation_between_first_two(self):
        tail = constant_tail(3e-3)
        t1 = bounds.thm1(50, 4, 0.3, 25.0, 0.8, tail)
        t2 = bounds.thm2(50, 4, 0.3, 0.8, tail)
        assert t2 == pytest.approx(t1 * 2.0 / (1.0 + 25.0 / 0.8), rel=1e-12)

    def test_point_bounds_are_m_plus_one_times_feature_bounds(self):
        tail = geometric_tail()
        for m in (1, 5, 12):
            t1 = bounds.thm1(200, m, 0.2, 50.0, 1.0, tail)
            t3 = bounds.thm3(200, m, 0.2, 0.0, 1.0, 50.0, 1.0, tail)
            assert t3 == pytest.approx((m + 1) * t1, rel=1e-12)
            t2 = bounds.thm2(200, m, 0.2, 1.0, tail)
            t4 = bounds.thm4(200, m, 0.2, 0.0, 1.0, 1.0, tail)
            assert t4 == pytest.approx((m + 1) * t2, rel=1e-12)

    def test_nonincreasing_in_m_for_geometric_tail(self):
        tail = geometric_tail(ell=0.6)
        for fn in (
            lambda m: bounds.thm1(300, m, 0.1, 80.0, 1.0, tail),
            lambda m: bounds.thm2(300, m, 0.1, 1.0, tail),
            lambda m: bounds.thm3(300, m, 0.1, 1e-9, 1.0, 80.0, 1.0, tail),
            lambda m: bounds.thm4(300, m, 0.1, 1e-9, 1.0, 1.0, tail),
        ):
            vals = [fn(m) for m in range(1, 60)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_linear_in_n_at_fixed_tail(self):
        tail = constant_tail(1e-4)
        a = bounds.thm1(100, 5, 0.5, 100.0, 1.0, tail)
        b = bounds.thm1(200, 5, 0.5, 100.0, 1.0, tail)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_invalid_confidence(self):
        with pytest.raises(InvalidConfidenceError):
            bounds.thm1(10, 2, 1.5, 1.0, 1.0, constant_tail(0.0))


class TestNystromTraceBound:
    def test_zero_case(self):
        assert bounds.nystrom_trace_bound(0.0, 3, 8, 1.0, 0.0) == 0.0

    def test_epsilon_slope(self):
        base = bounds.nystrom_trace_bound(1e-3, 3, 100, 2.0, 0.0)
        for eps in (1e-6, 1e-4, 1e-2):
            got = bounds.nystrom_trace_bound(1e-3, 3, 100, 2.0, eps)
            assert got == pytest.approx(base + 2 * 100 * 2.0 * eps, rel=1e-12)


def closed_form_se_schedule_m(N, gamma, delta, v, ell, sigma, noise_var):
    """M = ceil(((3+gamma) log N + log Dtilde) / log(1/B)), at least 1: the
    SE/Gaussian schedule in closed form, the oracle for the tail search."""
    k = kernels.se_gaussian_constants(ell, sigma)
    d_tilde = v * math.sqrt(2.0 * k.a) / (
        2.0 * math.sqrt(k.A) * noise_var * delta * (1.0 - k.B)
    )
    m = math.ceil(((3.0 + gamma) * math.log(N) + math.log(d_tilde)) / math.log(1.0 / k.B))
    return max(m, 1)


class TestScheduleSE1D:
    def test_worked_example_constants(self):
        # sigma^2 = 1/4, ell^2 = 1/2 gives B = 2 - sqrt(3); evaluate the
        # prescription directly at N=1000, gamma=1, delta=0.1.
        params = bounds.ScheduleParams(gamma=1.0, delta=0.1, variance=1.0)
        tail = geometric_tail(1.0, math.sqrt(0.5), 0.5)
        sched = bounds.m_schedule_se_1d(1000, params, tail, 1.0)
        expected = closed_form_se_schedule_m(1000, 1.0, 0.1, 1.0, math.sqrt(0.5), 0.5, 1.0)
        assert sched.m == expected
        assert sched.epsilon == pytest.approx(0.1 / 1000.0**3, rel=1e-12)

    def test_tail_search_matches_closed_form(self):
        grid = itertools.product(
            (2, 10, 57, 100, 250, 1000, 2000, 3000, 4000, 5000),  # N
            (0.5, 1.0, 2.0),  # gamma
            (0.01, 0.1, 0.5),  # delta
            (0.5, 1.0, 4.0),  # v
            (0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 5.0),  # ell
            (0.25, 1.0, 3.0),  # sigma
            (0.01, 0.1, 1.0),  # noise variance
        )
        mismatches = []
        for n, gamma, delta, v, ell, sigma, s2 in grid:
            params = bounds.ScheduleParams(gamma=gamma, delta=delta, variance=v)
            got = bounds.m_schedule_se_1d(n, params, geometric_tail(v, ell, sigma), s2).m
            want = closed_form_se_schedule_m(n, gamma, delta, v, ell, sigma, s2)
            if got != want:
                mismatches.append((n, gamma, delta, v, ell, sigma, s2, got, want))
        assert not mismatches

    def test_quadrupling_n_increment(self):
        params = bounds.ScheduleParams(gamma=1.0, delta=0.1, variance=1.0)
        k = kernels.se_gaussian_constants(0.6, 1.0)
        step = (3 + 1) * math.log(4) / math.log(1 / k.B)
        for n in (200, 500, 3000):
            m1 = bounds.m_schedule_se_1d(n, params, geometric_tail(), 1.0).m
            m2 = bounds.m_schedule_se_1d(4 * n, params, geometric_tail(), 1.0).m
            assert abs((m2 - m1) - step) <= 1.0

    def test_short_lengthscale_needs_many_features(self):
        params = bounds.ScheduleParams(gamma=1.0, delta=0.1, variance=1.0)
        m_long = bounds.m_schedule_se_1d(1000, params, geometric_tail(ell=1.0), 1.0).m
        m_short = bounds.m_schedule_se_1d(1000, params, geometric_tail(ell=0.05), 1.0).m
        assert m_short > 4 * m_long

    def test_known_fig3_value(self):
        # ell=0.6, unit input std, unit noise, gamma=1, delta=0.1 at N=1000
        # lands on exactly 50 features (Dtilde = 5).
        params = bounds.ScheduleParams(gamma=1.0, delta=0.1, variance=1.0)
        sched = bounds.m_schedule_se_1d(1000, params, geometric_tail(), 1.0)
        assert sched.m == 50

    def test_asymptotic_tail_rejected(self):
        # The calibrated Matern constant bounds the tail's order, not the
        # tail itself, so it cannot certify a count.
        tail = kernels.matern_spectrum_tail(1, 0.85)
        assert tail.validity == kernels.ASYMPTOTIC_BOUND
        with pytest.raises(InvalidHyperparameterError, match="exact"):
            bounds.m_schedule_se_1d(1000, bounds.ScheduleParams(), tail, 1.0)

    def test_tail_that_never_falls_rejected(self):
        with pytest.raises(InvalidHyperparameterError, match="stays above"):
            bounds.m_schedule_se_1d(1000, bounds.ScheduleParams(), constant_tail(1e-3), 1.0)


class TestScheduleMatern:
    def test_worked_example(self):
        assert bounds.m_schedule_matern(10_000, 1, 0.1, bounds.AVERAGE) == 252

    def test_aposteriori_exponent(self):
        n = 4096
        m = bounds.m_schedule_matern(n, 2, 0.05, bounds.APOSTERIORI)
        assert m == math.ceil(n ** (0.5 + 0.05))

    def test_exponent_halving_structure(self):
        # At vanishing slack the any-outputs exponent is twice the
        # prior-outputs exponent; N is chosen so the powers are far from
        # integers and the ceiling does not distort the comparison.
        n = 500_000
        for k in (2, 3):
            eps = 1e-9
            m_post = bounds.m_schedule_matern(n, k, eps, bounds.APOSTERIORI)
            m_avg = bounds.m_schedule_matern(n, k, eps, bounds.AVERAGE)
            assert math.log(m_post) == pytest.approx(2 * math.log(m_avg), rel=2e-2)

    def test_vacuous_schedule_rejected(self):
        with pytest.raises(OrderTooSmallError):
            bounds.m_schedule_matern(1000, 1, 0.1, bounds.APOSTERIORI)
        with pytest.raises(OrderTooSmallError):
            bounds.m_schedule_matern(1000, 0, 0.1, bounds.AVERAGE)
        with pytest.raises(OrderTooSmallError):
            bounds.m_schedule_matern(1000, 1, 0.6, bounds.AVERAGE)

    def test_capped_at_n(self):
        assert bounds.m_schedule_matern(4, 1, 0.49, bounds.AVERAGE) <= 4


class TestProp1:
    def test_zero_kl(self):
        p = bounds.prop1_pointwise(0.3, 4.0, 0.0)
        assert p.applicable
        assert p.mean_dev == 0.0
        assert p.var_ratio_lo == 1.0 == p.var_ratio_hi

    def test_worked_example(self):
        p = bounds.prop1_pointwise(0.0, 4.0, 0.05)
        assert p.applicable and p.epsilon == pytest.approx(0.1)
        assert p.mean_dev == pytest.approx(2 * math.sqrt(0.1), rel=1e-12)
        assert p.var_ratio_lo == pytest.approx(1 - math.sqrt(0.3), rel=1e-12)
        assert p.var_ratio_hi == pytest.approx(1 + math.sqrt(0.3), rel=1e-12)

    def test_not_applicable_marker(self):
        p = bounds.prop1_pointwise(0.0, 1.0, 0.2)
        assert not p.applicable
        assert p.mean_dev is None and p.var_ratio_lo is None

    def test_random_gaussian_pairs_respect_bounds(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10_000:
            mu2, s2 = rng.normal(), rng.uniform(0.5, 2.0)
            mu1 = mu2 + rng.normal() * 0.1 * math.sqrt(s2)
            s1 = s2 * math.exp(rng.normal() * 0.1)
            kl = svgp.gaussian_kl([mu1], [[s1]], [mu2], [[s2]])
            if kl > 0.1:
                continue
            p = bounds.prop1_pointwise(mu2, s2, kl)
            assert p.applicable
            assert abs(mu1 - mu2) <= p.mean_dev + 1e-12
            assert p.var_ratio_lo - 1e-12 < s1 / s2 < p.var_ratio_hi + 1e-12
            checked += 1
