"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-3 share one bank of 100 random instances; the figure
reproductions run the same harness configurations the CLI ships with.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sparsegp import bounds, chol, gp_exact, inducing, kernels, svgp
from sparsegp.harness import config, oracle_suite, runners

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class Instance:
    lml: float
    elbo: float
    t: float
    lam: float
    upper: float
    refined: float
    kl: float
    lemma1_tight: float
    lemma1_loose: float


@pytest.fixture(scope="module")
def instance_bank():
    # 100 random instances at N=200, M in {5, 20}, alternating SE and
    # Matern-3/2 kernels, with uniformly chosen inducing points.
    rng = np.random.default_rng(7)
    out = []
    for i in range(100):
        m = 5 if i % 2 == 0 else 20
        if i % 4 < 2:
            kern = kernels.squared_exponential(
                rng.uniform(0.5, 2.0), [rng.uniform(0.4, 1.0)]
            )
        else:
            kern = kernels.matern_half_integer(
                1, rng.uniform(0.5, 2.0), [rng.uniform(0.4, 1.0)]
            )
        noise = gp_exact.NoiseModel(rng.uniform(0.1, 1.0))
        X = rng.normal(0, 1, (200, 1))
        y = gp_exact.sample_prior_outputs(gp_exact.dense_system(X, kern, noise), seed=i)
        data = gp_exact.Dataset(X, y)
        Z = X[inducing.uniform_subset(200, m, i)]
        ops = svgp.feature_operators(svgp.Points(Z), kern, data.X)
        t = svgp.trace_gap(kern, X, ops)
        lam = svgp.residual(svgp.Points(Z), kern, X, kernels.gram(kern, X)).lambda_max
        tight, loose = bounds.lemma1(t, lam, float(y @ y), noise.variance)
        out.append(
            Instance(
                lml=gp_exact.log_marginal_likelihood(data, kern, noise),
                elbo=svgp.elbo(ops, y, noise),
                t=t,
                lam=lam,
                upper=svgp.upper_bound(ops, y, noise, t),
                refined=svgp.refined_upper_bound(ops, y, noise, lam),
                kl=svgp.kl_exact(data, kern, noise, ops),
                lemma1_tight=tight,
                lemma1_loose=loose,
            )
        )
    return out


def test_criterion_1_elbo_kl_identity(instance_bank):
    start = time.perf_counter()
    worst = max(
        abs((inst.lml - inst.elbo) - inst.kl) / max(1.0, abs(inst.lml))
        for inst in instance_bank
    )
    nonneg = all(inst.kl >= 0.0 for inst in instance_bank)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and nonneg and elapsed < 60.0,
        f"identity error {worst:.2e} (tol 1e-8), kl >= 0: {nonneg}, "
        f"check time {elapsed:.2f}s",
    )


def test_criterion_2_bound_sandwich(instance_bank):
    gaps = [
        min(
            inst.lml - inst.elbo,
            inst.refined - inst.lml,
            inst.upper - inst.refined,
        )
        for inst in instance_bank
    ]
    worst = min(gaps)
    report(2, worst >= -1e-8, f"smallest sandwich gap {worst:.2e} (floor -1e-8)")


def test_criterion_3_lemma1_validity(instance_bank):
    violations = sum(
        1
        for inst in instance_bank
        if not (inst.kl <= inst.lemma1_tight + 1e-12 <= inst.lemma1_loose + 1e-12)
    )
    margin = min(inst.lemma1_tight - inst.kl for inst in instance_bank)
    report(3, violations == 0, f"{violations} violations, smallest margin {margin:.3e}")


def test_criterion_4_lemma2_monte_carlo():
    # X and Z are fixed, only y varies, so the noisy-Gram factor and the
    # whitened feature system are hoisted out of the 2000-draw loop; the
    # hoisted path is spot-checked against the public API below.
    from scipy.linalg import solve_triangular

    start = time.perf_counter()
    kern = kernels.squared_exponential(1.0, [0.6])
    noise = gp_exact.NoiseModel(1.0)
    s2 = noise.variance
    n = 500
    X = np.random.default_rng(2024).normal(0, 1, (n, 1))
    Z = X[inducing.uniform_subset(n, 30, 5)]
    ops = svgp.feature_operators(svgp.Points(Z), kern, X)
    t = svgp.trace_gap(kern, X, ops)

    K_n = kernels.gram(kern, X)
    K_n[np.diag_indices_from(K_n)] += s2
    f_n = chol.factor(K_n)
    logdet_kn = chol.log_det(f_n)
    f_uu = chol.factor(ops.Kuu)
    A = solve_triangular(f_uu.L, ops.Kuf, lower=True, check_finite=False)
    LB = np.linalg.cholesky(np.eye(30) + (A @ A.T) / s2)
    logdet_qn = n * math.log(s2) + 2 * float(np.sum(np.log(np.diag(LB))))

    def kl_of(y):
        alpha = solve_triangular(f_n.L, y, lower=True, check_finite=False)
        lml = -0.5 * float(alpha @ alpha) - 0.5 * logdet_kn - 0.5 * n * math.log(2 * math.pi)
        c = solve_triangular(LB, A @ y, lower=True, check_finite=False)
        quad = (float(y @ y) - float(c @ c) / s2) / s2
        el = -0.5 * quad - 0.5 * logdet_qn - 0.5 * n * math.log(2 * math.pi) - t / (2 * s2)
        return max(lml - el, 0.0)

    kls = np.empty(2000)
    for draw in range(2000):
        y = f_n.L @ np.random.default_rng(10_000 + draw).standard_normal(n)
        kls[draw] = kl_of(y)
    # hoisted path reproduces the public API bit-for-bit on spot checks
    for draw in (0, 999, 1999):
        system = gp_exact.dense_system(X, kern, noise)
        y = gp_exact.sample_prior_outputs(system, seed=10_000 + draw)
        api_kl = svgp.kl_exact(gp_exact.Dataset(X, y), kern, noise, ops)
        assert abs(api_kl - kls[draw]) <= 1e-9 * max(1.0, api_kl)

    mean = float(np.mean(kls))
    se = float(np.std(kls, ddof=1)) / math.sqrt(2000)
    lo = t / (2 * s2)
    hi = t / s2
    elapsed = time.perf_counter() - start
    ok = lo - 3 * se <= mean <= hi + 3 * se and elapsed < 300.0
    report(
        4,
        ok,
        f"MC mean {mean:.5f} in [{lo:.5f} - 3*{se:.2e}, {hi:.5f} + 3*{se:.2e}], "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_eigenvector_feature_optimality():
    # Matern-3/2: the polynomial eigendecay keeps the m=50 spectral tail far
    # above round-off, so 1e-6 relative agreement is meaningful there.
    rng = np.random.default_rng(11)
    kern = kernels.matern_half_integer(1, 1.0, [0.5])
    X = rng.normal(0, 1, (300, 1))
    w = np.linalg.eigvalsh(kernels.gram(kern, X))[::-1]
    worst_t, worst_lam = 0.0, 0.0
    for m in (1, 10, 50):
        feats = inducing.eigenvector_features(kernels.gram(kern, X), X, m)
        ops = svgp.feature_operators(feats, kern, X)
        t = svgp.trace_gap(kern, X, ops)
        A, _ = svgp._whiten(ops)
        lam = svgp.lambda_max_gap(kernels.gram(kern, X), A, t, kern.variance, tol=1e-8)
        worst_t = max(worst_t, abs(t - np.sum(w[m:])) / np.sum(w[m:]))
        worst_lam = max(worst_lam, abs(lam - w[m]) / w[m])
    report(
        5,
        worst_t <= 1e-6 and worst_lam <= 1e-6,
        f"trace-gap rel err {worst_t:.2e}, lambda-max rel err {worst_lam:.2e} (tol 1e-6)",
    )


def test_criterion_6_se_gaussian_spectrum_oracles():
    kern = kernels.squared_exponential(1.0, [0.6])
    spec = kernels.nystrom_spectrum(kern, kernels.GaussianDensity([0.0], [1.0]), 10, 2048)
    closed_form = kernels.se_gaussian_spectrum_tail(1.0, 0.6, 1.0)
    lam = np.array([closed_form.eigenvalue(m) for m in range(1, 401)])
    eig_err = float(np.max(np.abs(spec.eigenvalues / lam[:10] - 1.0)))
    B = kernels.se_gaussian_constants(0.6, 1.0).B
    worst_tail = 0.0
    for m in (0, 1, 5, 20, 50):
        oracle = float(np.sum(lam[m:])) + lam[-1] * B / (1 - B)
        got = closed_form.tail(m)
        worst_tail = max(worst_tail, abs(got - oracle) / oracle)
    report(
        6,
        eig_err <= 0.01 and worst_tail <= 1e-10,
        f"eigenvalue rel err {eig_err:.2e} (tol 1%), tail rel err {worst_tail:.2e} "
        f"(tol 1e-10)",
    )


def test_criterion_7_kdpp_chain_total_variation():
    start = time.perf_counter()
    check = oracle_suite.check_kdpp_tv(1_000_000, 0.05)
    elapsed = time.perf_counter() - start
    report(7, check.passed and elapsed < 120.0, f"{check.detail} in {elapsed:.0f}s")


def test_criterion_8_determinantal_trace_bound():
    check = oracle_suite.check_expected_trace_bound(20)
    report(8, check.passed, check.detail)


def test_criterion_9_thm4_probability_statement():
    # Fig-3 parameters; the schedule asks for 50 inducing points, which
    # exceeds the numerical rank of the Gram matrix, so point selection
    # truncates and the bound is evaluated at the realized M.
    kern = kernels.squared_exponential(1.0, [0.6])
    noise = gp_exact.NoiseModel(1.0)
    delta = 0.1
    tail = kernels.se_gaussian_spectrum_tail(1.0, 0.6, 1.0)
    sched = bounds.m_schedule_se_1d(
        1000, bounds.ScheduleParams(gamma=1.0, delta=delta, variance=1.0), tail, 1.0
    )
    assert sched.m == 50
    eps = 1000.0**-3
    rng = np.random.default_rng(3)
    held = 0
    for draw in range(100):
        X = rng.normal(0, 1, (1000, 1))
        K = gp_exact.dense_gram(X, kern)
        idx = inducing.kdpp_mcmc(K, sched.m, 1000, seed=draw, allow_truncation=True)
        res = svgp.residual(svgp.Points(X[idx]), kern, X, K)
        system = gp_exact.DenseSystem.from_gram(K, noise)
        y = gp_exact.sample_prior_outputs(system, seed=50_000 + draw)
        kl = svgp.evaluate(gp_exact.Dataset(X, y), noise, res, system).kl_exact
        limit = bounds.thm4(1000, len(idx), delta, eps, 1.0, noise.variance, tail)
        if kl <= limit:
            held += 1
    report(9, held >= 84, f"bound held in {held}/100 draws (need >= 84)")


def test_criterion_10_log_schedule_decay():
    start = time.perf_counter()
    cfg = config.parse_config(str(CONFIGS / "fig4.cfg"))[0]
    rows = runners.run_grid(cfg)
    medians = [
        float(np.median([r.kl_exact for r in rows if r.n == n])) for n in cfg.n_grid
    ]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    clean = not any(r.violation for r in rows)
    elapsed = time.perf_counter() - start
    report(
        10,
        decreasing and clean and elapsed < 900.0,
        f"medians {['%.3e' % m for m in medians]} strictly decreasing: {decreasing}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_fixed_m_growth():
    cfg = config.parse_config(str(CONFIGS / "fig1.cfg"))[0]
    rows = runners.run_grid(cfg)
    kl_med = [float(np.median([r.kl_exact for r in rows if r.n == n])) for n in cfg.n_grid]
    lo_med = [float(np.median([r.lemma2_lo for r in rows if r.n == n])) for n in cfg.n_grid]
    kl_up = all(a < b for a, b in zip(kl_med, kl_med[1:]))
    lo_up = all(a < b for a, b in zip(lo_med, lo_med[1:]))
    report(
        11,
        kl_up and lo_up,
        f"median kl {['%.3f' % m for m in kl_med]} increasing: {kl_up}; "
        f"median t/2s2 {['%.3f' % m for m in lo_med]} increasing: {lo_up}",
    )


def test_criterion_12_pointwise_posterior_bounds():
    rng = np.random.default_rng(9)
    checked = 0
    weak_violations = 0
    strong_violations = 0
    while checked < 10_000:
        mu2 = rng.normal()
        var2 = rng.uniform(0.3, 3.0)
        mu1 = mu2 + rng.normal() * 0.15 * math.sqrt(var2)
        var1 = var2 * math.exp(rng.normal() * 0.15)
        kl = svgp.gaussian_kl([mu1], [[var1]], [mu2], [[var2]])
        if kl > 0.1:
            continue
        checked += 1
        eps = 2.0 * kl
        if abs(mu1 - mu2) > math.sqrt(var2) * math.sqrt(3.0 * eps) + 1e-12:
            weak_violations += 1
        p = bounds.prop1_pointwise(mu2, var2, kl)
        if abs(mu1 - mu2) > p.mean_dev + 1e-12:
            strong_violations += 1
    # The stronger mean bound is measured and reported; only the proof-level
    # sqrt(3 eps) form is a hard failure.
    report(
        12,
        weak_violations == 0,
        f"sqrt(3e) bound violations {weak_violations}/10000 (must be 0); "
        f"stronger sqrt(e) form violations {strong_violations} (reported only)",
    )


def test_criterion_13_cholesky_kit_drift():
    check = oracle_suite.check_chol_kit(100_000)
    report(13, check.passed, check.detail)
