"""Flat key=value experiment configuration.

Config files are INI-style: one ``[experiment:NAME]`` section per experiment,
plus an optional ``[defaults]`` section whose keys seed every experiment.
All values are scalars or space-separated lists; there is no nesting.  The
full key reference lives in CONFIG.md at the repository root.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .. import bounds, kernels
from ..errors import ConfigError
from ..gp_exact import NoiseModel

METHODS = ("points-kdpp", "points-uniform", "points-greedy", "eigvec", "eigfunc")
KINDS = ("fixed-m", "m-sweep", "log-schedule", "dispersion")
M_RULES = ("fixed", "log", "schedule-se-1d")

# Every key CONFIG.md documents; any other key is rejected.
KNOWN_KEYS = frozenset(
    """kind kernel variance lengthscale matern_order density density_mean
    density_std density_lower density_upper noise_variance n_grid m_grid m_rule
    m m_coeff m_intercept gamma delta method chain_steps epsilon
    quadrature seeds record_timing out_csv out_svg dispersion_lengthscales""".split()
)

# Hard cap on exchange-chain steps when the provable mixing budget is larger.
CHAIN_STEP_CAP = 20_000_000


@dataclass(frozen=True)
class MRule:
    """How M is chosen from N: a constant, C*log(N)+C0, or the 1-D SE schedule."""

    mode: str
    m: int | None = None
    coeff: float | None = None
    intercept: float = 0.0

    def resolve(self, n: int, cfg: "ExperimentConfig") -> int:
        if self.mode == "fixed":
            return int(self.m)
        if self.mode == "log":
            return max(1, math.ceil(self.coeff * math.log(n) + self.intercept))
        params = bounds.ScheduleParams(
            gamma=cfg.gamma, delta=cfg.delta, variance=cfg.kernel.variance
        )
        ell, sigma = float(cfg.kernel.lengthscales[0]), float(cfg.density.std[0])
        return bounds.m_schedule_se_1d(n, params, ell, sigma, cfg.noise.variance).m


@dataclass
class ExperimentConfig:
    name: str
    kind: str
    kernel: kernels.KernelSpec
    density: kernels.DensitySpec
    noise: NoiseModel
    n_grid: list[int]
    m_rule: MRule
    method: str
    seeds: list[int]
    m_grid: list[int] = field(default_factory=list)
    gamma: float = 1.0
    delta: float = 0.1
    epsilon: float | None = None
    chain_steps: int | None = None
    quadrature: int = 2048
    record_timing: bool = False
    dispersion_lengthscales: list[float] = field(default_factory=lambda: [2.0, 0.5])
    out_csv: str | None = None
    out_svg: str | None = None

    def chain_budget(self, n: int, m: int) -> int:
        """Exchange-chain steps: the override, else min(mixing budget, cap)."""
        from .. import inducing

        if self.chain_steps is not None:
            return self.chain_steps
        eps = self.epsilon if self.epsilon is not None else float(n) ** -3
        return min(inducing.mixing_steps(n, m, eps), CHAIN_STEP_CAP)


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        seeds = list(range(int(lo), int(hi)))
    else:
        seeds = [int(tok) for tok in text.split()]
    if not seeds:
        raise ConfigError("seed list is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return seeds


def _parse_kernel(get) -> kernels.KernelSpec:
    family = get("kernel", "se").strip().lower()
    variance = float(get("variance", "1.0"))
    ells = [float(tok) for tok in get("lengthscale", "1.0").split()]
    if family == "se":
        return kernels.squared_exponential(variance, ells)
    if family == "matern":
        return kernels.matern_half_integer(int(get("matern_order", "1")), variance, ells)
    raise ConfigError(f"unknown kernel family {family!r}")


def _parse_density(get, dim: int) -> kernels.DensitySpec:
    variant = get("density", "gaussian").strip().lower()
    if variant == "gaussian":
        mean = [float(tok) for tok in get("density_mean", "0.0").split()]
        std = [float(tok) for tok in get("density_std", "1.0").split()]
        if len(mean) == 1:
            mean = mean * dim
        if len(std) == 1:
            std = std * dim
        return kernels.GaussianDensity(mean, std)
    if variant == "uniform":
        lower = [float(tok) for tok in get("density_lower", "0.0").split()]
        upper = [float(tok) for tok in get("density_upper", "1.0").split()]
        if len(lower) == 1:
            lower = lower * dim
        if len(upper) == 1:
            upper = upper * dim
        return kernels.UniformDensity(lower, upper)
    raise ConfigError(f"unknown density variant {variant!r}")


def _parse_m_rule(get) -> MRule:
    mode = get("m_rule", "fixed").strip().lower()
    if mode not in M_RULES:
        raise ConfigError(f"unknown m_rule {mode!r}; expected one of {M_RULES}")
    if mode == "fixed":
        return MRule(mode, m=int(get("m", "10")))
    if mode == "log":
        coeff = get("m_coeff", None)
        if coeff is None:
            raise ConfigError("m_rule=log needs m_coeff")
        return MRule(mode, coeff=float(coeff), intercept=float(get("m_intercept", "0.0")))
    return MRule(mode)


def _build_experiment(name: str, section: dict[str, str]) -> ExperimentConfig:
    get = section.get

    kind = get("kind", "").strip().lower()
    if kind not in KINDS:
        raise ConfigError(f"experiment {name!r}: kind must be one of {KINDS}, got {kind!r}")
    kernel = _parse_kernel(get)
    density = _parse_density(get, kernel.dim)
    m_rule = _parse_m_rule(get)
    if m_rule.mode == "schedule-se-1d" and not (
        kernel.family == kernels.SQUARED_EXPONENTIAL
        and kernel.dim == 1
        and isinstance(density, kernels.GaussianDensity)
    ):
        raise ConfigError(
            f"experiment {name!r}: m_rule=schedule-se-1d needs an se kernel in one "
            "dimension with a gaussian density"
        )
    noise = NoiseModel(float(get("noise_variance", "1.0")))
    method = get("method", "points-kdpp").strip().lower()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    n_grid = [int(tok) for tok in get("n_grid", "100").split()]
    m_grid = [int(tok) for tok in get("m_grid", "").split()]
    if not n_grid:
        raise ConfigError("n_grid must be nonempty")
    if kind == "m-sweep" and not m_grid:
        raise ConfigError("m-sweep experiments need a nonempty m_grid")
    epsilon = get("epsilon", None)
    chain_steps = get("chain_steps", None)
    timing = get("record_timing", "off")
    record_timing = configparser.ConfigParser.BOOLEAN_STATES.get(timing.strip().lower())
    if record_timing is None:
        raise ConfigError(f"record_timing must be on/off, true/false, yes/no or 1/0: {timing!r}")
    return ExperimentConfig(
        name=name,
        kind=kind,
        kernel=kernel,
        density=density,
        noise=noise,
        n_grid=n_grid,
        m_rule=m_rule,
        method=method,
        seeds=_parse_seeds(get("seeds", "0:10")),
        m_grid=m_grid,
        gamma=float(get("gamma", "1.0")),
        delta=float(get("delta", "0.1")),
        epsilon=float(epsilon) if epsilon not in (None, "") else None,
        chain_steps=int(chain_steps) if chain_steps not in (None, "") else None,
        quadrature=int(get("quadrature", "2048")),
        record_timing=record_timing,
        dispersion_lengthscales=[
            float(tok) for tok in get("dispersion_lengthscales", "2.0 0.5").split()
        ],
        out_csv=get("out_csv", None),
        out_svg=get("out_svg", None),
    )


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
        unknown = sorted(set(merged) - KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"experiment {name!r}: unknown keys {', '.join(unknown)}")
        experiments.append(_build_experiment(name, merged))
    if not experiments:
        raise ConfigError("config defines no [experiment:*] sections")
    return experiments


def parse_config(path: str) -> list[ExperimentConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# Built-in experiment definitions used when no --config is given.  The
# log-schedule default derives M from the 1-D SE/Gaussian schedule; pass
# m_rule=log with an explicit m_coeff to override.
DEFAULT_CONFIGS = {
    "fixed-m": """
[experiment:fixed-m-default]
kind = fixed-m
kernel = se
variance = 1.0
lengthscale = 0.4
density = uniform
density_lower = 0.0
density_upper = 5.0
noise_variance = 0.1
n_grid = 100 250 500 1000 2000
m_rule = fixed
m = 15
method = points-kdpp
chain_steps = 2000
seeds = 0:20
out_csv = fixed_m.csv
out_svg = fixed_m.svg
""",
    "m-sweep": """
[experiment:m-sweep-default]
kind = m-sweep
kernel = se
variance = 1.0
lengthscale = 0.6
density = gaussian
density_mean = 0.0
density_std = 1.0
noise_variance = 1.0
n_grid = 1000
m_grid = 1 2 4 6 8 10 12 15 20 25
m_rule = fixed
m = 1
method = points-kdpp
chain_steps = 2000
seeds = 0:10
delta = 0.1
out_csv = m_sweep.csv
out_svg = m_sweep.svg
""",
    "log-schedule": """
[experiment:log-schedule-default]
kind = log-schedule
kernel = se
variance = 1.0
lengthscale = 0.6
density = gaussian
density_mean = 0.0
density_std = 1.0
noise_variance = 1.0
n_grid = 250 500 1000 2000 4000
m_rule = schedule-se-1d
gamma = 1.0
delta = 0.1
method = points-kdpp
chain_steps = 2000
seeds = 0:20
out_csv = log_schedule.csv
out_svg = log_schedule.svg
""",
    "dispersion": """
[experiment:dispersion-default]
kind = dispersion
kernel = se
variance = 1.0
lengthscale = 1.0
density = gaussian
noise_variance = 1.0
n_grid = 100
m_rule = fixed
m = 10
method = points-kdpp
chain_steps = 2000
seeds = 0:100
dispersion_lengthscales = 2.0 0.5
out_csv = dispersion.csv
""",
}


def default_config(kind: str) -> ExperimentConfig:
    return parse_config_text(DEFAULT_CONFIGS[kind])[0]
