"""Analytic KL bounds and inducing-count schedules.

Every function here is plain arithmetic on scalars (plus a spectrum-tail
evaluator where one is needed); computing the inputs they consume is the job
of the other modules.  In particular the spectra come from
``kernels.spectrum_tail``: nothing here re-derives an eigenvalue formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    InvalidConfidenceError,
    InvalidHyperparameterError,
    OrderingViolationError,
    OrderTooSmallError,
)
from .kernels import EXACT, SpectrumTail

# The pointwise mean/variance bounds are only proven for 2*KL <= 1/5.
PROP1_EPSILON_LIMIT = 0.2


@dataclass(frozen=True)
class ScheduleParams:
    """Knobs of the a-priori inducing-count schedules.

    gamma is the target decay exponent (KL = O(N^-gamma)), delta the
    confidence level and variance the kernel signal variance.
    """

    gamma: float = 1.0
    delta: float = 0.1
    variance: float = 1.0

    def __post_init__(self):
        _check_delta(self.delta)
        if self.gamma <= 0:
            raise InvalidHyperparameterError("gamma must be positive")
        if self.variance <= 0:
            raise InvalidHyperparameterError("variance must be positive")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InvalidConfidenceError(f"delta must lie in (0, 1), got {delta}")


def lemma1(
    t: float, lambda_max_tilde: float, norm_y_sq: float, noise_var: float
) -> tuple[float, float]:
    """A-posteriori KL bounds (tight, loose) from the trace gap.

    tight uses the largest residual eigenvalue, loose replaces it by the full
    trace; tight <= loose always since lambda_max_tilde <= t.
    """
    if lambda_max_tilde > t * (1.0 + 1e-8):
        raise OrderingViolationError(
            f"largest eigenvalue {lambda_max_tilde:.3e} exceeds trace {t:.3e}"
        )
    lam = max(lambda_max_tilde, 0.0)
    t = max(t, 0.0)
    tight = (t + lam * norm_y_sq / (noise_var + lam)) / (2.0 * noise_var)
    loose = t / (2.0 * noise_var) * (1.0 + norm_y_sq / (noise_var + t))
    return tight, loose


def lemma2_interval(t: float, noise_var: float) -> tuple[float, float]:
    """Bounds on the expected KL when outputs are drawn from the prior model."""
    lo = max(t, 0.0) / (2.0 * noise_var)
    return lo, 2.0 * lo


def thm1(
    N: int, M: int, delta: float, norm_y_sq: float, noise_var: float, tail: SpectrumTail
) -> float:
    """High-probability KL bound for eigenfunction features, any outputs."""
    _check_delta(delta)
    C = N * tail.tail(M)
    return C / (2.0 * noise_var * delta) * (1.0 + norm_y_sq / noise_var)


def thm2(N: int, M: int, delta: float, noise_var: float, tail: SpectrumTail) -> float:
    """High-probability KL bound for eigenfunction features, prior-drawn outputs."""
    _check_delta(delta)
    return N * tail.tail(M) / (delta * noise_var)


def thm3(
    N: int,
    M: int,
    delta: float,
    epsilon: float,
    v: float,
    norm_y_sq: float,
    noise_var: float,
    tail: SpectrumTail,
) -> float:
    """High-probability KL bound for epsilon-k-DPP inducing points, any outputs."""
    _check_delta(delta)
    trace = nystrom_trace_bound(N * tail.tail(M), M, N, v, epsilon)
    return trace / (2.0 * noise_var * delta) * (1.0 + norm_y_sq / noise_var)


def thm4(
    N: int,
    M: int,
    delta: float,
    epsilon: float,
    v: float,
    noise_var: float,
    tail: SpectrumTail,
) -> float:
    """High-probability KL bound for epsilon-k-DPP points, prior-drawn outputs."""
    _check_delta(delta)
    return nystrom_trace_bound(N * tail.tail(M), M, N, v, epsilon) / (delta * noise_var)


def nystrom_trace_bound(
    matrix_eig_tail: float, M: int, N: int, v: float, epsilon: float
) -> float:
    """Bound on E[t] for a subset drawn from an epsilon k-DPP on the Gram matrix.

    ``matrix_eig_tail`` is sum_{m>M} lambda_m(K_ff); epsilon = 0 recovers the
    exact determinantal-sampling bound.
    """
    return (M + 1) * matrix_eig_tail + 2.0 * N * v * epsilon


class ScheduleSE1D(NamedTuple):
    m: int
    epsilon: float


# A tail still above the target at this M is taken never to reach it.
_SCHEDULE_M_LIMIT = 2**40


def m_schedule_se_1d(
    N: int, params: ScheduleParams, tail: SpectrumTail, noise_var: float
) -> ScheduleSE1D:
    """Smallest M with ``tail(M) <= 2 delta noise N^-(3+gamma)``, and epsilon.

    For the geometric SE/Gaussian tail this M is
    ceil(((3+gamma) log N + log Dtilde) / log(1/B)); epsilon is
    delta * noise / (v N^(gamma+2)) with v = ``params.variance``.  Together
    they give KL <= N^-gamma (2R/noise + 2/N) with probability 1 - delta.
    The tail must be EXACT: an asymptotic bound does not certify M.
    """
    if noise_var <= 0:
        raise InvalidHyperparameterError("noise variance must be positive")
    if tail.validity != EXACT:
        raise InvalidHyperparameterError(
            f"schedule needs an exact tail, got {tail.validity!r}"
        )
    target = 2.0 * params.delta * noise_var * float(N) ** -(3.0 + params.gamma)
    lo, hi = 0, 1  # doubling, then bisection, keeps tail(lo) > target >= tail(hi)
    while tail.tail(hi) > target:
        if hi >= _SCHEDULE_M_LIMIT:
            raise InvalidHyperparameterError(f"spectrum tail stays above {target:.3e}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if tail.tail(mid) > target else (lo, mid)
    epsilon = params.delta * noise_var / (params.variance * float(N) ** (params.gamma + 2.0))
    return ScheduleSE1D(hi, epsilon)


APOSTERIORI = "aposteriori"
AVERAGE = "average"


def m_schedule_matern(N: int, order: int, eps_prime: float, mode: str) -> int:
    """Power-law schedule M = ceil(N^(1/k + eps')) or ceil(N^(1/(2k) + eps')).

    ``aposteriori`` uses the any-outputs exponent 1/k, ``average`` the
    prior-drawn-outputs exponent 1/(2k).  An exponent at or above 1 makes the
    schedule vacuous and raises OrderTooSmallError.  The result is capped at N.
    """
    if eps_prime <= 0:
        raise InvalidHyperparameterError("eps_prime must be positive")
    if mode not in (APOSTERIORI, AVERAGE):
        raise InvalidHyperparameterError(f"unknown schedule mode {mode!r}")
    if order < 1:
        raise OrderTooSmallError("schedules need Matern order k >= 1")
    exponent = (1.0 / order if mode == APOSTERIORI else 1.0 / (2.0 * order)) + eps_prime
    if exponent >= 1.0:
        raise OrderTooSmallError(
            f"exponent {exponent:.3f} >= 1 makes the schedule vacuous for order {order}"
        )
    return min(math.ceil(float(N) ** exponent), N)


@dataclass(frozen=True)
class Prop1Bounds:
    """Pointwise consequences of a small KL between 1-D Gaussians.

    ``applicable`` is False when 2*KL exceeds 1/5, where the bounds are not
    proven; the numeric fields are then None.
    """

    applicable: bool
    epsilon: float
    mean_dev: float | None
    var_ratio_lo: float | None
    var_ratio_hi: float | None


def prop1_pointwise(mu2: float, var2: float, kl: float) -> Prop1Bounds:
    """Bounds |mu1 - mu2| <= sigma2 sqrt(eps), |1 - var1/var2| < sqrt(3 eps).

    ``(mu2, var2)`` are the reference (exact posterior) moments and
    eps = 2*kl.  Outside eps <= 1/5 a not-applicable marker is returned.
    """
    if kl < 0:
        raise InvalidHyperparameterError("kl must be nonnegative")
    if var2 <= 0:
        raise InvalidHyperparameterError("reference variance must be positive")
    eps = 2.0 * kl
    if eps > PROP1_EPSILON_LIMIT:
        return Prop1Bounds(False, eps, None, None, None)
    spread = math.sqrt(3.0 * eps)
    return Prop1Bounds(
        True,
        eps,
        math.sqrt(var2) * math.sqrt(eps),
        1.0 - spread,
        1.0 + spread,
    )
