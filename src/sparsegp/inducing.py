"""Inducing-set construction.

Selection of inducing points by uniform sampling, greedy determinant
maximization, and a lazy Metropolis exchange chain whose stationary law is
the k-DPP over principal submatrices of the training Gram matrix.  The
greedy start and the chain read every covariance from that Gram matrix,
which the caller builds once (a harness cell shares it with its dense
system), so they make no kernel evaluations of their own; they read it
through ``chol.as_packed``, so a full array passes the symmetry check once
and is read as packed.  The chain keeps the Gram rows of its current
members and a Cholesky factor of their submatrix, reads each swap's
determinant ratio in closed form from two triangular solves against it, and
on an accepted swap reads the incoming row and factors the new M x M
submatrix afresh, so the factor never carries the rounding of earlier
edits.  Its draws come a block of steps at a time from one ``integers``
call, bit for bit what one ``integers``/``integers``/``random`` call per
step returns, so the visited sets are a property of the stream alone.
Every step of a block runs the same loop, whether or not the caller
observes the chain through ``on_state``.
Also provides the provable step budget for epsilon-close sampling, an exact
enumerator used as a desk-scale oracle, and the two spectral feature
families.

Every triangular solve here, as everywhere in the library, goes through
``chol.solve_lower``, one direct LAPACK call per solve: at the chain's small
M, SciPy's per-call argument handling would cost several times the solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import chol, kernels, svgp
from .errors import (
    DegenerateKernelError,
    EigenFailureError,
    EnumerationTooLargeError,
    InvalidEpsilonError,
    MTooLargeError,
    QuadratureTooCoarseError,
)

ENUMERATION_LIMIT = 1_000_000


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator keyed by (seed, 0); the constant second word
    # keeps every stream, and so every shipped output, as it was.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), 0))))


def uniform_subset(N: int, M: int, seed: int) -> np.ndarray:
    """Uniform size-M subset of range(N) without replacement, sorted."""
    if not 1 <= M <= N:
        raise MTooLargeError(f"cannot choose {M} indices from {N}")
    return np.sort(_rng(seed).choice(N, size=M, replace=False))


def greedy_det_init(
    K: np.ndarray | chol.Packed, M: int, allow_truncation: bool = False
) -> np.ndarray:
    """Greedy max-determinant initialization over the Gram K, in selection order.

    Each step adds the index maximizing the determinant of the resulting
    principal submatrix (equivalently the largest conditional-variance gain),
    breaking ties toward the lowest index.  Total cost O(N M^2).  When K
    has numerical rank below M the default is to raise
    DegenerateKernelError; ``allow_truncation`` instead returns the shorter
    selection that exhausted the numerically independent columns.
    """
    K = chol.as_packed(K)
    N = K.dim
    if not 1 <= M <= N:
        raise MTooLargeError(f"cannot choose {M} indices from {N}")
    diag = K.diagonal()
    resid = diag.copy()  # a chosen index reads -inf, so argmax skips it
    C = np.zeros((M, N))
    chosen: list[int] = []
    for step in range(M):
        best = int(np.argmax(resid))
        gain = float(resid[best])
        if gain <= chol.PIVOT_FLOOR * diag[best]:
            if allow_truncation and step > 0:
                break
            raise DegenerateKernelError(
                f"only {step} independent columns available, {M} requested"
            )
        C[step] = (K.column(best) - C[:step].T @ C[:step, best]) / math.sqrt(gain)
        resid -= C[step] * C[step]
        resid[best] = -np.inf
        chosen.append(best)
    return np.asarray(chosen)


def _subset_factor(K_T: np.ndarray) -> chol.LowerFactor | None:
    # Fresh Cholesky factor of a principal submatrix K_T = K[T, T], with no
    # jitter; None when LAPACK fails or the last pivot is at
    # chol.append_index's rejection floor.
    try:
        L = np.linalg.cholesky(K_T)
    except np.linalg.LinAlgError:
        return None
    if L[-1, -1] ** 2 <= chol.PIVOT_FLOOR * K_T[-1, -1]:
        return None
    return chol.LowerFactor(L)


def _member_rows(K: chol.Packed, members: list[int], spare: int = 0) -> np.ndarray:
    # (len(members) + spare) x N: the Gram row (= column) of each member, in order.
    rows = np.empty((len(members) + spare, K.dim))
    for s, member in enumerate(members):
        K.column(member, out=rows[s])
    return rows


@dataclass
class SamplerState:
    """Mutable state of the exchange chain: subset, factor and determinant.

    ``factor`` is the Cholesky factor of ``K[S, S]`` in the order of
    ``indices``.  ``step_count`` counts transitions run and ``accepted`` the
    swaps taken.
    """

    indices: list[int]
    factor: chol.LowerFactor
    log_det: float
    rng: np.random.Generator
    step_count: int = 0
    accepted: int = 0
    complement: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def init_sampler(
    K: np.ndarray | chol.Packed, M: int, seed: int, allow_truncation: bool = False
) -> SamplerState:
    """Greedy-initialized chain state over the rows of the Gram K."""
    K = chol.as_packed(K)
    chosen = greedy_det_init(K, M, allow_truncation).tolist()
    f = _subset_factor(_member_rows(K, chosen)[:, chosen])
    if f is None:
        raise DegenerateKernelError("the greedy set's Gram submatrix is not positive definite")
    in_set = np.zeros(K.dim, dtype=bool)
    in_set[chosen] = True
    return SamplerState(
        indices=chosen,
        factor=f,
        log_det=chol.log_det(f),
        rng=_rng(seed),
        complement=np.flatnonzero(~in_set),
    )


def _inverse_diagonal(f: chol.LowerFactor) -> np.ndarray:
    # diag(K_S^-1): the squared column norms of L^-1.
    L_inv = chol.solve_lower(f.L, np.eye(f.dim))
    return np.einsum("ij,ij->j", L_inv, L_inv)


# Steps drawn by one ``integers`` call.
_DRAW_BLOCK = 4096


def _draws(rng: np.random.Generator, M: int, n_out: int, steps: int):
    """Yield the (i, j, u) draws of `steps` transitions, a block at a time.

    One broadcast ``integers`` call per block draws in step order, through
    the scalar calls' bounded-draw routines, so its values, rejections and
    final generator state (buffered 32-bit half included) are those of
    ``integers(M)``, ``integers(n_out)`` and ``random()`` per step, for any
    range.  A draw below 2^53 is ``random()``'s top 53 bits of one word on
    Philox (which :func:`_rng` builds), PCG64 and SFC64.
    """
    high = np.array([M, n_out, 2**53])
    while steps > 0:
        n = min(steps, _DRAW_BLOCK)
        D = rng.integers(0, high, size=(n, 3))
        steps -= n
        yield D[:, 0].tolist(), D[:, 1].tolist(), D[:, 2] * 2.0**-53


def advance(
    state: SamplerState, K: np.ndarray | chol.Packed, steps: int, on_state=None
) -> SamplerState:
    """Run `steps` transitions of the lazy exchange chain on the Gram K, mutating `state`.

    Each transition draws a member position i (``integers(M)``), an
    outsider position j (``integers(n_out)``) and a uniform u
    (``random()``), and accepts the swap of i for j when
    u < (1/2) min(1, det(K_T)/det(K_S)).  The draws come in blocks (see
    :func:`_draws`), so the chain visits the same sets as one made of those
    three calls per step.  The acceptance probability never exceeds 1/2, so
    u >= 1/2 rejects without any linear algebra.  Otherwise the ratio is
    read in closed form from the current factor L of K_S: with
    ``k_Sj = K[S, j]`` (from the members' Gram rows, which the chain keeps),
    ``c = L^-1 k_Sj``, ``d_j = K[j, j] - c.c`` and
    ``w = L^-T c``, det(K_T)/det(K_S) = d_j (K_S^-1)_ii + w_i^2.  A
    proposal whose residual pivot ``d(j | S-i) = ratio / (K_S^-1)_ii`` is at
    or below ``chol.PIVOT_FLOOR * K[j, j]`` has ratio 0 and is rejected.
    An accepted swap reads row j of K and factors ``K[T, T]``,
    T = S - i + [j], afresh (one M x M Cholesky), so ``state.factor`` is
    always the factor of the current submatrix; a factor that fails or whose
    last pivot is at the floor
    rejects the swap.  ``state.step_count`` counts steps and
    ``state.accepted`` accepted swaps.  ``on_state(state)``, when given, runs
    once after every step, rejected steps included.  A negative `steps`, or
    a state with no outsiders (M = N) and `steps` above 0, raises
    MTooLargeError before anything is drawn.
    """
    if steps < 0:
        raise MTooLargeError("step count must be nonnegative")
    M = len(state.indices)
    n_out = state.complement.shape[0]
    if n_out == 0 and steps > 0:
        raise MTooLargeError("exchange chain needs M < N")
    K = chol.as_packed(K)
    diag = K.diagonal()
    inv_diag = _inverse_diagonal(state.factor)
    # Member k's Gram row is row slots[k] of `rows`; row `spare` takes a
    # proposed incoming one, and a swap frees the outgoing one's.
    rows = _member_rows(K, state.indices, spare=1)
    slots, spare = list(range(M)), M
    S = np.array(slots)
    for pos_i, pos_j, u in _draws(state.rng, M, n_out, steps):
        for i, p, v in zip(pos_i, pos_j, u.tolist()):
            state.step_count += 1
            if v < 0.5:
                j = int(state.complement[p])
                k_jj = diag.item(j)
                c = chol.solve_lower(state.factor.L, rows[S, j])
                w = chol.solve_lower(state.factor.L, c, transpose=True)
                ratio = (k_jj - float(c @ c)) * inv_diag[i] + w[i] ** 2
                if ratio / inv_diag[i] > chol.PIVOT_FLOOR * k_jj and v < 0.5 * min(1.0, ratio):
                    K.column(j, out=rows[spare])
                    T = state.indices[:i] + state.indices[i + 1 :] + [j]
                    T_slots = slots[:i] + slots[i + 1 :] + [spare]
                    f_T = _subset_factor(rows[np.array(T_slots)[None, :], np.array(T)[:, None]])
                    if f_T is not None:
                        state.complement[p] = state.indices.pop(i)
                        state.indices.append(j)
                        state.factor = f_T
                        state.log_det = chol.log_det(f_T)
                        state.accepted += 1
                        slots, spare = T_slots, slots[i]
                        S = np.array(slots)
                        inv_diag = _inverse_diagonal(f_T)
            if on_state is not None:
                on_state(state)
    return state


def kdpp_mcmc(
    K: np.ndarray | chol.Packed,
    M: int,
    steps: int,
    seed: int,
    allow_truncation: bool = False,
) -> np.ndarray:
    """Approximate k-DPP sample over the Gram K: greedy start, `steps` exchange transitions.

    Returns the sorted index set after the final step; deterministic for a
    fixed seed.  Use :func:`mixing_steps` for the budget that provably gets
    within a prescribed total-variation distance of the exact k-DPP.
    """
    K = chol.as_packed(K)
    if M >= K.dim:
        raise MTooLargeError("exchange chain needs M < N")
    state = init_sampler(K, M, seed, allow_truncation)
    advance(state, K, steps)
    return np.sort(np.asarray(state.indices))


def mixing_steps(N: int, M: int, epsilon: float) -> int:
    """Provable step budget: ceil(N M^2 log N + N M log(1/epsilon))."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(N * M * M * math.log(N) + N * M * math.log(1.0 / epsilon))


def exact_kdpp_enumeration(K: np.ndarray, M: int) -> dict[tuple[int, ...], float]:
    """Exact k-DPP over the Gram K: P(S) proportional to det(K[S, S]), |S| = M."""
    K = np.asarray(K, dtype=float)
    N = K.shape[0]
    if not 1 <= M <= N:
        raise MTooLargeError(f"cannot choose {M} indices from {N}")
    if math.comb(N, M) > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"C({N},{M}) = {math.comb(N, M)} subsets exceed the enumeration limit"
        )
    table: dict[tuple[int, ...], float] = {}
    total = 0.0
    for subset in itertools.combinations(range(N), M):
        d = max(float(np.linalg.det(K[np.ix_(subset, subset)])), 0.0)
        table[subset] = d
        total += d
    if total <= 0.0:
        raise DegenerateKernelError("all size-M principal minors vanish")
    return {s: d / total for s, d in table.items()}


def eigenvector_features(K: np.ndarray, X, M: int) -> svgp.EigenvectorFeatures:
    """Top-M eigenpairs of the training Gram matrix K of X as interdomain features."""
    X = kernels.as_points(X)
    if not 1 <= M <= X.shape[0]:
        raise MTooLargeError(f"cannot extract {M} eigenpairs from N={X.shape[0]}")
    try:
        w, V = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(str(exc)) from exc
    lam = w[::-1][:M].copy()
    W = V[:, ::-1][:, :M].copy()
    if lam[-1] <= 0:
        raise EigenFailureError(
            f"eigenvalue {M} of the Gram matrix is nonpositive ({lam[-1]:.3e})"
        )
    return svgp.EigenvectorFeatures(lam, W, X)


def eigenfunction_features(
    kernel: kernels.KernelSpec,
    density: kernels.DensitySpec,
    M: int,
    quadrature_size: int = 2048,
) -> svgp.EigenfunctionFeatures:
    """Operator eigenfunction features under the assumed input density.

    Eigenvalues use the closed form when ``kernels.spectrum_tail`` has an
    exact one; eigenfunctions always come from the numeric spectral oracle.
    """
    spectrum = kernels.nystrom_spectrum(kernel, density, M, quadrature_size)
    lam = spectrum.eigenvalues
    closed = kernels.spectrum_tail(kernel, density)
    if closed is not None and closed.validity == kernels.EXACT:
        lam = np.array([closed.eigenvalue(m) for m in range(1, M + 1)])
    if np.any(lam <= 0):
        raise QuadratureTooCoarseError(
            "operator rank below the requested number of features"
        )
    return svgp.EigenfunctionFeatures(lam, spectrum.eigenfunctions)

