"""Flat key=value experiment configuration.

Config files are INI-style: one ``[experiment:NAME]`` section per experiment,
plus an optional ``[defaults]`` section whose keys seed every experiment.
All values are scalars or space-separated lists; there is no nesting.  The
full key reference lives in CONFIG.md at the repository root.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass

from .. import bounds, inducing, kernels
from ..errors import ConfigError, InvalidHyperparameterError
from ..gp_exact import DENSE_LIMIT, NoiseModel

METHODS = ("points-kdpp", "points-uniform", "points-greedy", "eigvec", "eigfunc")
KINDS = ("fixed-m", "m-sweep", "log-schedule", "dispersion")
M_RULES = ("fixed", "log", "schedule-se-1d")

# Every key CONFIG.md documents, grouped as there, with the text it reads as
# when unset (None: no value; the empty ``kind`` is no kind, so the key is
# required).  Any other key is rejected.
_DEFAULTS = {
    "kind": "",
    "kernel": "se", "variance": "1.0", "lengthscale": "1.0", "matern_order": "1",
    "density": "gaussian", "density_mean": "0.0", "density_std": "1.0",
    "density_lower": "0.0", "density_upper": "1.0",
    "noise_variance": "1.0", "n_grid": "100", "m_grid": "",
    "m_rule": "fixed", "m": "10", "m_coeff": None, "m_intercept": "0.0",
    "gamma": "1.0", "delta": "0.1",
    "method": "points-kdpp", "chain_steps": None, "epsilon": None, "quadrature": "2048",
    "seeds": "0:10", "record_timing": "off", "out_csv": None, "out_svg": None,
    "dispersion_lengthscales": "2.0 0.5",
}
KNOWN_KEYS = frozenset(_DEFAULTS)
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES

# The dispersion demo's label per lengthscale; one experiment's labels must differ.
DISPERSION_LABEL = "kdpp-ell={:g}"

# Hard cap on exchange-chain steps when the provable mixing budget is larger.
CHAIN_STEP_CAP = 20_000_000


@dataclass(frozen=True)
class MRule:
    """How M is chosen from N: a constant, C*log(N)+C0, or the spectrum schedule."""

    mode: str
    m: int | None = None
    coeff: float | None = None
    intercept: float = 0.0

    def resolve(self, n: int, cfg: "ExperimentConfig") -> int:
        if self.mode == "fixed":
            return int(self.m)
        if self.mode == "log":
            return max(1, math.ceil(self.coeff * math.log(n) + self.intercept))
        return _schedule_se_1d(n, cfg).m


def _schedule_se_1d(n: int, cfg: "ExperimentConfig") -> bounds.ScheduleSE1D:
    """The schedule's (M, epsilon) prescription at N, from the pair's exact tail."""
    params = bounds.ScheduleParams(
        gamma=cfg.gamma, delta=cfg.delta, variance=cfg.kernel.variance
    )
    tail = kernels.spectrum_tail(cfg.kernel, cfg.density)
    return bounds.m_schedule_se_1d(n, params, tail, cfg.noise.variance)


@dataclass
class ExperimentConfig:
    """One experiment section, every field read; ``_DEFAULTS`` holds the defaults."""

    name: str
    kind: str
    kernel: kernels.KernelSpec
    density: kernels.DensitySpec
    noise: NoiseModel
    n_grid: list[int]
    m_rule: MRule
    method: str
    seeds: list[int]
    m_grid: list[int]
    gamma: float
    delta: float
    epsilon: float | None
    chain_steps: int | None
    quadrature: int
    record_timing: bool
    dispersion_lengthscales: list[float]
    out_csv: str
    out_svg: str | None

    def epsilon_at(self, n: int) -> float:
        """Sampling tolerance at N: the set epsilon, else the schedule's, else N^-3."""
        if self.epsilon is not None:
            return self.epsilon
        if self.m_rule.mode == "schedule-se-1d":
            return _schedule_se_1d(n, self).epsilon
        return float(n) ** -3

    def chain_budget(self, n: int, m: int) -> int:
        """Exchange-chain steps: the override, else min(mixing budget, cap)."""
        if self.chain_steps is not None:
            return self.chain_steps
        return min(inducing.mixing_steps(n, m, self.epsilon_at(n)), CHAIN_STEP_CAP)


def _read(section: dict[str, str], key: str, parse, expected: str, ok=lambda value: True):
    """The text of ``key`` (its default when unset; None if it has none) through
    ``parse``.  A ValueError from ``parse``, or a value ``ok`` rejects, is a
    ConfigError naming the key: this is the one place config text is cast."""
    text = section.get(key, _DEFAULTS[key])
    if text is None:
        return None
    try:
        value = parse(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"{key} must be {expected}, got {text!r}")


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


def _seed_list(text: str) -> list[int]:
    lo, colon, hi = text.partition(":")
    return list(range(int(lo), int(hi))) if colon else _ints(text)


def _choice(section: dict[str, str], key: str, options) -> str:
    return _read(section, key, str.lower, "one of " + ", ".join(options), options.__contains__)


def _per_dim(section: dict[str, str], key: str, dim: int) -> list[float]:
    """Floats under ``key``, one per input dimension; a single value is broadcast."""
    values = _read(
        section, key, _floats, "one float, or one per input dimension", lambda v: len(v) in (1, dim)
    )
    return values * dim if len(values) == 1 else values


def _model(keys: str, make, *args):
    """``make(*args)``; an InvalidHyperparameterError is a ConfigError naming ``keys``."""
    try:
        return make(*args)
    except InvalidHyperparameterError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _build_experiment(name: str, section: dict[str, str]) -> ExperimentConfig:
    # Every key is read, also one the kind or rule does not use, so a bad
    # value is reported whatever the experiment runs; both densities are built
    # for that.  Ranges that KernelSpec, the densities and NoiseModel enforce
    # are left to them.
    read = functools.partial(_read, section)
    kind = _choice(section, "kind", KINDS)
    variance = read("variance", float, "a positive float")
    ells = read("lengthscale", _floats, "positive floats", lambda ells: len(ells) > 0)
    order = read("matern_order", int, "an integer k >= 0", lambda k: k >= 0)
    if _choice(section, "kernel", ("se", "matern")) == "se":
        family = kernels.squared_exponential
    else:
        family = functools.partial(kernels.matern_half_integer, order)
    kernel = _model("variance, lengthscale", family, variance, ells)
    mean, std, lower, upper = (
        _per_dim(section, f"density_{end}", kernel.dim) for end in ("mean", "std", "lower", "upper")
    )
    gaussian = _model("density_mean, density_std", kernels.GaussianDensity, mean, std)
    uniform = _model("density_lower, density_upper", kernels.UniformDensity, lower, upper)
    is_gaussian = _choice(section, "density", ("gaussian", "uniform")) == "gaussian"
    density = gaussian if is_gaussian else uniform
    m_rule = MRule(
        _choice(section, "m_rule", M_RULES),
        m=read("m", int, "a positive int", lambda m: m >= 1),
        coeff=read("m_coeff", float, "a positive float", lambda c: 0 < c < math.inf),
        intercept=read("m_intercept", float, "a finite float", math.isfinite),
    )
    if m_rule.mode == "log" and m_rule.coeff is None:
        raise ConfigError("m_rule=log needs m_coeff")
    if m_rule.mode == "schedule-se-1d":
        tail = kernels.spectrum_tail(kernel, density)
        if tail is None or tail.validity != kernels.EXACT:
            raise ConfigError(
                "m_rule=schedule-se-1d needs an exact spectrum "
                "(an se kernel in one dimension with a gaussian density)"
            )
    m_grid = read("m_grid", _ints, "positive ints", lambda ms: all(m >= 1 for m in ms))
    if kind == "m-sweep" and not m_grid:
        raise ConfigError("m-sweep experiments need a nonempty m_grid")
    out_svg = read("out_svg", str, "a nonempty filename", bool)
    cfg = ExperimentConfig(
        name=name,
        kind=kind,
        kernel=kernel,
        density=density,
        noise=_model(
            "noise_variance", NoiseModel, read("noise_variance", float, "a positive float")
        ),
        n_grid=read(
            "n_grid",
            _ints,
            f"positive ints, each at most {DENSE_LIMIT}",
            lambda ns: ns and all(1 <= n <= DENSE_LIMIT for n in ns),
        ),
        m_rule=m_rule,
        method=_choice(section, "method", METHODS),
        seeds=read(
            "seeds",
            _seed_list,
            "distinct nonnegative ints, listed or as a range a:b",
            lambda s: s and len(set(s)) == len(s) and min(s) >= 0,
        ),
        m_grid=m_grid,
        gamma=read("gamma", float, "a positive float", lambda g: 0 < g < math.inf),
        delta=read("delta", float, "a float in (0, 1)", lambda d: 0 < d < 1),
        epsilon=read("epsilon", float, "a float in (0, 1)", lambda e: 0 < e < 1),
        chain_steps=read("chain_steps", int, "a nonnegative int", lambda s: s >= 0),
        quadrature=read("quadrature", int, "a positive int", lambda q: q >= 1),
        record_timing=_BOOLEANS[_choice(section, "record_timing", _BOOLEANS)],
        dispersion_lengthscales=read(
            "dispersion_lengthscales",
            _floats,
            f"one or more positive finite floats with distinct {DISPERSION_LABEL} labels",
            lambda ls: ls
            and all(0 < l < math.inf for l in ls)
            and len({DISPERSION_LABEL.format(l) for l in ls}) == len(ls),
        ),
        out_csv=read("out_csv", str, "a nonempty filename", bool) or f"{name}.csv",
        out_svg=None if kind == "dispersion" else out_svg,  # the demo writes no chart
    )
    m = m_rule.resolve(cfg.n_grid[0], cfg) if kind == "dispersion" else None
    if m is not None and not 2 <= m < cfg.n_grid[0]:  # the demo runs at the first N only
        raise ConfigError(f"m must give 2 <= M < N={cfg.n_grid[0]} in a dispersion demo, got M={m}")
    return cfg


def parse_config_text(text: str) -> list[ExperimentConfig]:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        # Each value is interpolated here, once (``%%`` reads as ``%``).
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    defaults = sections.get("defaults", {})
    experiments = []
    for section_name, section in sections.items():
        if not section_name.startswith("experiment:"):
            if section_name != "defaults":
                raise ConfigError(f"unexpected section [{section_name}]")
            continue
        name = section_name.split(":", 1)[1]
        merged = {**defaults, **section}
        try:
            unknown = sorted(set(merged) - KNOWN_KEYS)
            if unknown:
                raise ConfigError(f"unknown keys {', '.join(unknown)}")
            experiments.append(_build_experiment(name, merged))
        except ConfigError as exc:
            raise ConfigError(f"experiment {name!r}: {exc}") from None
    if not experiments:
        raise ConfigError("config defines no [experiment:*] sections")
    return experiments


def parse_config(path: str) -> list[ExperimentConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8: {exc}") from None

