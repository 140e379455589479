"""Experiment runners: synthetic data, inducing selection, bound evaluation.

Each runner draws a dataset (inputs from the configured density, outputs
from the prior generative model), selects an inducing set by the configured
method for every M the dataset holds, and records a full ResultRow per
(seed, N, M) cell.  All randomness is derived from (seed, N, M, phase), with
M = 0 (no cell's M) for the X and y that one ``m-sweep`` dataset shares
across its M, so results do not depend on loop order; rows are returned
sorted by (experiment, seed, N, M).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
from scipy.linalg.lapack import dtrttf

from .. import bounds, chol, gp_exact, inducing, kernels, svgp
from ..errors import ConfigError
from .config import DISPERSION_LABEL, ExperimentConfig
from .emit import ResultRow

_PHASE_DATA, _PHASE_OUTPUTS, _PHASE_SELECT = 0, 1, 2

# Invariant slack used when flagging rows.
_VIOLATION_TOL = 1e-8


def _derived_seed(seed: int, n: int, m: int, phase: int) -> int:
    ss = np.random.SeedSequence((int(seed), int(n), int(m), int(phase)))
    return int(ss.generate_state(1)[0])


def _draw_inputs(density: kernels.DensitySpec, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if isinstance(density, kernels.GaussianDensity):
        return rng.normal(density.mean, density.std, size=(n, density.dim))
    if isinstance(density, kernels.UniformDensity):
        return rng.uniform(density.lower, density.upper, size=(n, density.dim))
    raise ConfigError("can only draw synthetic inputs from gaussian/uniform densities")


def _select_inducing(
    cfg: ExperimentConfig, X: np.ndarray, K, m: int, seed: int, top
) -> svgp.InducingSet:
    """Build the configured inducing set from X and its Gram K; may return fewer than m features.

    Point selections truncate to the numerical rank of the Gram matrix when
    a schedule asks for more columns than are numerically independent; the
    realized size is what gets reported.  An eigvec selection slices ``top``
    (K's features at some M >= m); other methods get None.
    """
    n = X.shape[0]
    if cfg.method == "points-uniform":
        idx = inducing.uniform_subset(n, m, seed)
        return svgp.Points(X[idx])
    if cfg.method == "points-greedy":
        idx = inducing.greedy_det_init(K, m, allow_truncation=True)
        return svgp.Points(X[idx])
    if cfg.method == "points-kdpp":
        if m >= n:
            return svgp.Points(X)
        steps = cfg.chain_budget(n, m)
        idx = inducing.kdpp_mcmc(K, m, steps, seed, allow_truncation=True)
        return svgp.Points(X[idx])
    if cfg.method == "eigvec":
        return svgp.EigenvectorFeatures(top.lambdas[:m], top.W[:, :m], X)
    if cfg.method == "eigfunc":
        return inducing.eigenfunction_features(cfg.kernel, cfg.density, m, cfg.quadrature)
    raise ConfigError(f"unknown method {cfg.method!r}")


def _fill_apriori(
    report: svgp.BoundReport,
    cfg: ExperimentConfig,
    n: int,
    m: int,
    tail: kernels.SpectrumTail | None,
) -> None:
    s2 = cfg.noise.variance
    report.lemma1, report.lemma1_loose = bounds.lemma1(
        report.t, report.lambda_max_tilde, report.norm_y_sq, s2
    )
    report.lemma2_lo, report.lemma2_hi = bounds.lemma2_interval(report.t, s2)
    # Theorems 1-2 assume eigenfunction features, theorems 3-4 k-DPP points.
    if tail is not None and cfg.method == "eigfunc":
        report.thm1 = bounds.thm1(n, m, cfg.delta, report.norm_y_sq, s2, tail)
        report.thm2 = bounds.thm2(n, m, cfg.delta, s2, tail)
    if tail is not None and cfg.method == "points-kdpp":
        eps = cfg.epsilon_at(n)
        report.thm3 = bounds.thm3(
            n, m, cfg.delta, eps, cfg.kernel.variance, report.norm_y_sq, s2, tail
        )
        report.thm4 = bounds.thm4(n, m, cfg.delta, eps, cfg.kernel.variance, s2, tail)
    p1 = bounds.prop1_pointwise(0.0, 1.0, report.kl_exact)
    if p1.applicable:
        report.prop1_mean_factor = p1.mean_dev
        report.prop1_var_lo = p1.var_ratio_lo
        report.prop1_var_hi = p1.var_ratio_hi


def _violations(report: svgp.BoundReport) -> str:
    """Names of violated sandwich/ordering invariants, comma-joined."""
    bad = []
    scale = _VIOLATION_TOL * max(1.0, abs(report.elbo))
    if report.t < 0:
        bad.append("t<0")
    if report.lambda_max_tilde < 0 or report.lambda_max_tilde > report.t * (1 + 1e-8) + scale:
        bad.append("lambda-range")
    if report.elbo > report.upper_refined + scale:
        bad.append("elbo>refined")
    if report.upper_refined > report.upper + scale:
        bad.append("refined>upper")
    if report.kl_exact < 0:
        bad.append("kl<0")
    if report.kl_exact > report.upper_refined - report.elbo + scale:
        bad.append("kl>refined-gap")
    if report.lemma1 is not None and report.kl_exact > report.lemma1 + scale:
        bad.append("kl>lemma1")
    if (
        report.lemma1 is not None
        and report.lemma1_loose is not None
        and report.lemma1 > report.lemma1_loose + scale
    ):
        bad.append("lemma1-order")
    return ",".join(bad)


def _run_dataset(
    cfg: ExperimentConfig,
    seed: int,
    n: int,
    ms: list[int],
    tail: kernels.SpectrumTail | None,
) -> list[ResultRow]:
    """One row per M in ``ms``, every M read from one dataset of n points."""
    key_m = 0 if cfg.kind == "m-sweep" else ms[0]
    X = _draw_inputs(cfg.density, n, _derived_seed(seed, n, key_m, _PHASE_DATA))
    # The dataset's one N x N Gram is built first, packed (dense_gram refuses
    # N above DENSE_LIMIT before any work).  Every selection reads it, an
    # eigvec one through one eigendecomposition at the largest M, and so does
    # each selection's whitening and lambda_max estimate; then the dense
    # system factors K + s2 I in K's own storage, so a cell holds one packed
    # triangle, and y and the dataset's one log marginal likelihood read
    # that factor.
    # Each phase has its own seed, so the order changes no draw.
    t0 = time.perf_counter()
    K = gp_exact.dense_gram(X, cfg.kernel)
    t1 = time.perf_counter()
    picks, top = [], None
    for m in ms:
        start = time.perf_counter()
        if cfg.method == "eigvec" and top is None:
            # The eigensolver reads a full N x N Gram.  The packed one is
            # dropped while it runs, then packed again from the full one
            # (exactly symmetric, so unchecked), which is dropped in turn;
            # the kernel and X stay its source.
            source, K = K.source, K.unpack()
            top = inducing.eigenvector_features(K, X, max(ms))
            K = chol.Packed(dtrttf(K, transr="N", uplo="L")[0], n, source=source)
        ind = _select_inducing(cfg, X, K, m, _derived_seed(seed, n, m, _PHASE_SELECT), top)
        selected = time.perf_counter()
        res = svgp.residual(ind, cfg.kernel, X, K)
        picks.append((ind, res, selected - start, time.perf_counter() - selected))
    t2 = time.perf_counter()
    dense = gp_exact.DenseSystem.from_gram(K, cfg.noise)
    del K  # its memory is the factor's now
    y = gp_exact.sample_prior_outputs(dense, _derived_seed(seed, n, key_m, _PHASE_OUTPUTS))
    lml = gp_exact.log_marginal_likelihood(dense, y)
    shared = t1 - t0 + time.perf_counter() - t2
    rows = []
    for ind, res, select_s, residual_s in picks:
        t3 = time.perf_counter()
        report = svgp.evaluate(y, cfg.noise, res, lml)
        t4 = time.perf_counter()
        _fill_apriori(report, cfg, n, ind.count, tail)
        t5 = time.perf_counter()
        solve_s = shared + residual_s + t4 - t3
        timing = (select_s, solve_s, t5 - t4) if cfg.record_timing else (0.0,) * 3
        rows.append(
            ResultRow(
                **dataclasses.asdict(report),
                experiment=cfg.name,
                seed=seed,
                n=n,
                m=ind.count,
                method=cfg.method,
                time_select=timing[0],
                time_solve=timing[1],
                time_bounds=timing[2],
                violation=_violations(report),
            )
        )
    return rows


def run_grid(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per (seed, N, M) cell of the configured grid.

    ``m-sweep`` sweeps ``m_grid`` on one dataset per seed at the first N;
    ``fixed-m`` and ``log-schedule`` sweep ``n_grid`` with M from ``m_rule``,
    one dataset per cell.  Each N must be at most ``gp_exact.DENSE_LIMIT``: a
    larger one raises ``DenseLimitExceededError`` before its Gram is built.
    """
    tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
    if cfg.kind == "m-sweep":
        datasets = [(cfg.n_grid[0], cfg.m_grid)]
    else:
        datasets = [(n, [cfg.m_rule.resolve(n, cfg)]) for n in cfg.n_grid]
    rows = []
    for seed in cfg.seeds:
        for n, ms in datasets:
            rows += _run_dataset(cfg, seed, n, [min(m, n) for m in ms], tail)
    return sorted(rows, key=lambda r: (r.experiment, r.seed, r.n, r.m))


def _cluster_sample(n: int, seed: int) -> np.ndarray:
    # Three 1-D clusters of unequal mass; the dispersion contrast needs
    # data that uniform subsampling would oversample near the heavy cluster.
    rng = np.random.default_rng(seed)
    centers = np.array([0.0, 5.0, 9.0])
    widths = np.array([0.4, 0.3, 0.5])
    weights = np.array([0.5, 0.3, 0.2])
    comps = rng.choice(3, size=n, p=weights)
    return (centers[comps] + widths[comps] * rng.standard_normal(n))[:, None]


def _mean_nn_distance(points: np.ndarray) -> float:
    d = np.abs(points[:, None, 0] - points[None, :, 0])
    np.fill_diagonal(d, np.inf)
    return float(np.mean(np.min(d, axis=1)))


def run_dispersion_demo(cfg: ExperimentConfig) -> tuple[list[tuple], dict[str, float]]:
    """Compare the spread of exchange-chain selections against uniform picks.

    Returns the ``(run_id, method, seed, indices)`` selections and the mean
    nearest-neighbour distance per method, averaged over seeds.
    """
    n = cfg.n_grid[0]
    m = cfg.m_rule.resolve(n, cfg)
    steps = cfg.chain_budget(n, m)
    selections = []
    nn: dict[str, list[float]] = {}
    for seed in cfg.seeds:
        X = _cluster_sample(n, _derived_seed(seed, n, m, _PHASE_DATA))
        select_seed = _derived_seed(seed, n, m, _PHASE_SELECT)
        picks: dict[str, np.ndarray] = {}
        for ell in cfg.dispersion_lengthscales:
            kernel = dataclasses.replace(cfg.kernel, lengthscales=[ell])
            K = kernels.gram(kernel, X, packed=True)
            picks[DISPERSION_LABEL.format(ell)] = inducing.kdpp_mcmc(K, m, steps, select_seed)
        picks["uniform"] = inducing.uniform_subset(n, m, select_seed)
        for label, idx in picks.items():
            selections.append((cfg.name, label, seed, idx))
            nn.setdefault(label, []).append(_mean_nn_distance(X[idx]))
    return selections, {label: float(np.mean(vals)) for label, vals in nn.items()}
