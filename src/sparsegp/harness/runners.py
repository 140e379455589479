"""Experiment runners: synthetic data, inducing selection, bound evaluation.

Each runner draws inputs from the configured density, outputs from the prior
generative model, selects an inducing set by the configured method, and
records a full ResultRow per (seed, N, M) cell.  All randomness is derived
from (seed, N, M, phase) so results do not depend on loop order, and rows
are returned sorted by (experiment, seed, N, M).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .. import bounds, gp_exact, inducing, kernels, svgp
from ..errors import ConfigError
from .config import ExperimentConfig
from .emit import ResultRow, selection_csv_line

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
    cfg: ExperimentConfig, X: np.ndarray, m: int, seed: int
) -> svgp.InducingSet:
    """Build the configured inducing set; may return fewer than m features.

    Point selections truncate to the numerical rank of the Gram matrix when
    a schedule asks for more columns than are numerically independent; the
    realized size is what gets reported.
    """
    n = X.shape[0]
    if cfg.method == "points-uniform":
        idx = inducing.uniform_subset(n, m, seed)
        return svgp.Points(X[idx])
    if cfg.method == "points-greedy":
        idx = inducing.greedy_det_init(cfg.kernel, X, m, allow_truncation=True)
        return svgp.Points(X[idx])
    if cfg.method == "points-kdpp":
        if m >= n:
            return svgp.Points(X)
        steps = cfg.chain_budget(n, m)
        idx = inducing.kdpp_mcmc(cfg.kernel, X, m, steps, seed, allow_truncation=True)
        return svgp.Points(X[idx])
    if cfg.method == "eigvec":
        return inducing.eigenvector_features(cfg.kernel, X, m)
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
    if tail is not None:
        eps = cfg.epsilon_at(n)
        report.thm1 = bounds.thm1(n, m, cfg.delta, report.norm_y_sq, s2, tail)
        report.thm2 = bounds.thm2(n, m, cfg.delta, s2, tail)
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


def _run_cell(
    cfg: ExperimentConfig,
    seed: int,
    n: int,
    m: int,
    tail: kernels.SpectrumTail | None,
) -> ResultRow:
    X = _draw_inputs(cfg.density, n, _derived_seed(seed, n, m, _PHASE_DATA))
    t0 = time.perf_counter()
    ind = _select_inducing(cfg, X, m, _derived_seed(seed, n, m, _PHASE_SELECT))
    m_used = ind.count
    t1 = time.perf_counter()
    # The N x N system is built after selection (each phase has its own seed),
    # so a selection that builds its own Gram never holds both in memory.
    dense = gp_exact.dense_system(X, cfg.kernel, cfg.noise)
    y = gp_exact.sample_prior_outputs(dense, _derived_seed(seed, n, m, _PHASE_OUTPUTS))
    data = gp_exact.Dataset(X, y)
    report = svgp.evaluate(data, cfg.kernel, cfg.noise, ind, dense)
    t2 = time.perf_counter()
    _fill_apriori(report, cfg, n, m_used, tail)
    t3 = time.perf_counter()
    timing = (t1 - t0, t2 - t1, t3 - t2) if cfg.record_timing else (0.0, 0.0, 0.0)
    return ResultRow(
        **dataclasses.asdict(report),
        experiment=cfg.name,
        seed=seed,
        n=n,
        m=m_used,
        method=cfg.method,
        time_select=timing[0],
        time_solve=timing[1],
        time_bounds=timing[2],
        violation=_violations(report),
    )


def _sorted_rows(rows: list[ResultRow]) -> list[ResultRow]:
    return sorted(rows, key=lambda r: (r.experiment, r.seed, r.n, r.m))


def run_grid(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per (seed, N, M) cell of the configured grid.

    ``m-sweep`` sweeps ``m_grid`` at the first N; ``fixed-m`` and
    ``log-schedule`` sweep ``n_grid`` with M from ``m_rule``.  Each N must be
    at most ``gp_exact.DENSE_LIMIT``: a larger one raises
    ``DenseLimitExceededError`` when its dense system is built.
    """
    tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
    if cfg.kind == "m-sweep":
        grid = [(cfg.n_grid[0], m) for m in cfg.m_grid]
    else:
        grid = [(n, cfg.m_rule.resolve(n, cfg)) for n in cfg.n_grid]
    rows = [_run_cell(cfg, seed, n, min(m, n), tail) for seed in cfg.seeds for n, m in grid]
    return _sorted_rows(rows)


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


def run_dispersion_demo(cfg: ExperimentConfig) -> tuple[list[str], dict[str, float]]:
    """Compare the spread of exchange-chain selections against uniform picks.

    Returns the selection CSV lines and the mean nearest-neighbour distance
    per method, averaged over seeds.
    """
    n = cfg.n_grid[0]
    m = cfg.m_rule.resolve(n, cfg)
    lines: list[str] = []
    nn: dict[str, list[float]] = {}
    for seed in cfg.seeds:
        X = _cluster_sample(n, _derived_seed(seed, n, m, _PHASE_DATA))
        picks: dict[str, np.ndarray] = {}
        for ell in cfg.dispersion_lengthscales:
            kern = kernels.squared_exponential(cfg.kernel.variance, [ell])
            steps = cfg.chain_budget(n, m)
            label = f"kdpp-ell={ell:g}"
            picks[label] = inducing.kdpp_mcmc(
                kern, X, m, steps, _derived_seed(seed, n, m, _PHASE_SELECT)
            )
        picks["uniform"] = inducing.uniform_subset(
            n, m, _derived_seed(seed, n, m, _PHASE_SELECT)
        )
        for label, idx in picks.items():
            lines.append(selection_csv_line(cfg.name, label, seed, idx))
            nn.setdefault(label, []).append(_mean_nn_distance(X[idx]))
    return lines, {label: float(np.mean(vals)) for label, vals in nn.items()}
