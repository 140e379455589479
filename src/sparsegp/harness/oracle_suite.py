"""Self-contained oracle checks runnable from the CLI.

Each check recomputes a quantity along an independent route (full
refactorization, exhaustive enumeration, closed-form algebra) and compares.
``fast=True`` shrinks the budgets for use in quick smoke runs.  The
acceptance suite runs the chain, trace-bound and Cholesky checks at its own
budgets, so each check has exactly one implementation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .. import bounds, chol, inducing, kernels, svgp


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def check_chol_kit(n_ops: int) -> OracleCheck:
    """Random rank-one/append/remove edits against the matrix they factor."""
    rng = np.random.default_rng(2025)
    dim = 4
    base = rng.standard_normal((dim, dim))
    A = base @ base.T + dim * np.eye(dim)
    f = chol.factor(A)
    worst = 0.0
    for _ in range(n_ops):
        op = rng.integers(3)
        if op == 0 or f.dim <= 1:
            v = rng.standard_normal(f.dim) * 0.3
            f = chol.rank_one_update(f, v)
            A = A + np.outer(v, v)
        elif op == 1 and f.dim < 12:
            cross = A @ rng.standard_normal(f.dim) * 0.1
            self_var = float(cross @ np.linalg.solve(A, cross)) + rng.uniform(0.5, 2.0)
            new_A = np.zeros((f.dim + 1, f.dim + 1))
            new_A[: f.dim, : f.dim] = A
            new_A[: f.dim, -1] = cross
            new_A[-1, : f.dim] = cross
            new_A[-1, -1] = self_var
            f = chol.append_index(f, cross, self_var)
            A = new_A
        elif f.dim >= 2:
            i = int(rng.integers(f.dim))
            f = chol.remove_index(f, i)
            A = np.delete(np.delete(A, i, axis=0), i, axis=1)
        err = np.max(np.abs(f.reconstruct() - A)) / np.max(np.abs(A))
        worst = max(worst, err)
    return OracleCheck(
        "chol-refactorization",
        worst <= 1e-8,
        f"max drift {worst:.2e} over {n_ops} edits (tol 1e-8)",
    )


def check_expected_trace_bound(n_instances: int) -> OracleCheck:
    """Exact E[t] under the k-DPP against the (M+1) tail bound, by enumeration."""
    rng = np.random.default_rng(1)
    n, m = 8, 3
    worst_gap = -math.inf
    violations = 0
    for _ in range(n_instances):
        X = rng.normal(0.0, 1.2, (n, 1))
        kern = kernels.squared_exponential(1.0, [float(rng.uniform(0.3, 1.2))])
        table = inducing.exact_kdpp_enumeration(kern, X, m)
        expected_t = 0.0
        for subset, prob in table.items():
            ops = svgp.feature_operators(svgp.Points(X[list(subset)]), kern, X)
            expected_t += prob * svgp.trace_gap(kern, X, ops)
        lam = np.linalg.eigvalsh(kernels.gram(kern, X))[::-1]
        bound = bounds.nystrom_trace_bound(float(np.sum(lam[m:])), m, n, 1.0, 0.0)
        worst_gap = max(worst_gap, expected_t - bound)
        if expected_t > bound + 1e-10:
            violations += 1
    return OracleCheck(
        "expected-trace-bound",
        violations == 0,
        f"{violations} violations, max E[t]-bound gap {worst_gap:.2e} (must be <= 0)",
    )


def check_kdpp_tv(steps: int, tol: float) -> OracleCheck:
    """Visit frequencies of the exchange chain against the exact k-DPP."""
    rng = np.random.default_rng(42)
    kern = kernels.squared_exponential(1.0, [0.7])
    X = rng.normal(0.0, 1.0, (10, 1))
    K = kernels.gram(kern, X)
    exact = inducing.exact_kdpp_enumeration_matrix(K, 3)
    counts: Counter = Counter()
    state = inducing.init_sampler(K, 3, seed=123)

    def record(s):
        counts[tuple(sorted(s.indices))] += 1

    inducing.advance(state, K, steps, on_state=record)
    tv = 0.5 * sum(abs(counts.get(s, 0) / steps - p) for s, p in exact.items())
    return OracleCheck(
        "kdpp-chain-tv", tv <= tol, f"TV {tv:.4f} (tol {tol:g}) after {steps} steps"
    )


def check_spectrum_formulas() -> OracleCheck:
    spec = kernels.se_gaussian_spectrum_tail(1.0, math.sqrt(0.5), 0.5)
    tails_ok = all(
        abs(spec.tail(m) - spec.tail(m + 1) - spec.eigenvalue(m + 1))
        <= 1e-12 * spec.eigenvalue(m + 1)
        for m in range(30)
    )
    lam1_exact = math.sqrt(3.0) - 1.0
    closed_ok = abs(spec.eigenvalue(1) - lam1_exact) <= 1e-13
    budget_ok = inducing.mixing_steps(1000, 10, 1e-3) == 759854
    ok = tails_ok and closed_ok and budget_ok
    return OracleCheck(
        "closed-form-spot-checks",
        ok,
        f"telescoping={tails_ok} lam1={closed_ok} mixing-budget={budget_ok}",
    )


def run_oracle_suite(fast: bool = False) -> list[OracleCheck]:
    return [
        check_chol_kit(2_000 if fast else 20_000),
        check_expected_trace_bound(5 if fast else 20),
        check_kdpp_tv(50_000 if fast else 1_000_000, 0.1 if fast else 0.05),
        check_spectrum_formulas(),
    ]
