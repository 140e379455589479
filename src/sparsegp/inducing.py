"""Inducing-set construction.

Selection of inducing points by uniform sampling, greedy determinant
maximization, and a lazy Metropolis exchange chain whose stationary law is
the k-DPP over principal submatrices of the training Gram matrix.  The
greedy start and the chain read every covariance from that Gram matrix,
which the caller builds once (a harness cell shares it with its dense
system), so they make no kernel evaluations of their own.  The chain keeps a
Cholesky factor of the current submatrix, reads each swap's determinant
ratio in closed form from two triangular solves against it, and edits the
factor (an O(M^2) delete/append) only when a swap is accepted.  Its draws
are decoded a block of steps at a time from the raw words of the Philox
stream, bit for bit what one ``integers``/``integers``/``random`` call per
step returns, so the visited sets are a property of the stream alone.  Also
provides the provable step budget for epsilon-close sampling, an exact
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
    NotPositiveDefiniteError,
    NumericalInconsistencyError,
    QuadratureTooCoarseError,
)

# Incremental log-determinants are checked against a fresh factorization
# this often; drift beyond DRIFT_TOL aborts the chain.
REFACTOR_PERIOD = 10_000
DRIFT_TOL = 1e-6

ENUMERATION_LIMIT = 1_000_000


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    # Counter-based generator so chains keyed by (seed, stream) are independent.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stream)))))


def _as_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def uniform_subset(N: int, M: int, seed: int) -> np.ndarray:
    """Uniform size-M subset of range(N) without replacement, sorted."""
    if not 1 <= M <= N:
        raise MTooLargeError(f"cannot choose {M} indices from {N}")
    return np.sort(_rng(seed).choice(N, size=M, replace=False))


def _greedy_selection(
    K: np.ndarray, M: int, allow_truncation: bool = False
) -> tuple[list[int], chol.LowerFactor]:
    """Greedy determinant maximization; returns selection order and K_S factor."""
    N = K.shape[0]
    if not 1 <= M <= N:
        raise MTooLargeError(f"cannot choose {M} indices from {N}")
    diag = K.diagonal().copy()
    resid = diag.copy()
    C = np.zeros((M, N))
    chosen: list[int] = []
    for step in range(M):
        masked = resid.copy()
        if chosen:
            masked[chosen] = -np.inf
        best = int(np.argmax(masked))
        gain = float(masked[best])
        if gain <= chol.PIVOT_FLOOR * diag[best]:
            if allow_truncation and step > 0:
                C = C[:step]
                break
            raise DegenerateKernelError(
                f"only {step} independent columns available, {M} requested"
            )
        col = K[:, best]
        if step:
            c_new = (col - C[:step].T @ C[:step, best]) / math.sqrt(gain)
        else:
            c_new = col / math.sqrt(gain)
        C[step] = c_new
        resid -= c_new * c_new
        chosen.append(best)
    L = np.tril(C[:, chosen].T)
    return chosen, chol.LowerFactor(L, 0.0)


def greedy_det_init(K: np.ndarray, M: int, allow_truncation: bool = False) -> np.ndarray:
    """Greedy max-determinant initialization over the Gram K, in selection order.

    Each step adds the index maximizing the determinant of the resulting
    principal submatrix (equivalently the largest conditional-variance gain),
    breaking ties toward the lowest index.  Total cost O(N M^2).  When K
    has numerical rank below M the default is to raise
    DegenerateKernelError; ``allow_truncation`` instead returns the shorter
    selection that exhausted the numerically independent columns.
    """
    chosen, _ = _greedy_selection(K, M, allow_truncation)
    return np.asarray(chosen)


@dataclass
class SamplerState:
    """Mutable state of the exchange chain: subset, factor and determinant.

    ``step_count`` counts transitions run and ``accepted`` the swaps taken.
    """

    indices: list[int]
    factor: chol.LowerFactor
    log_det: float
    rng: np.random.Generator
    step_count: int = 0
    accepted: int = 0
    complement: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def init_sampler(
    K: np.ndarray, M: int, seed: int, allow_truncation: bool = False
) -> SamplerState:
    """Greedy-initialized chain state over the rows of the Gram K."""
    chosen, f = _greedy_selection(K, M, allow_truncation)
    in_set = np.zeros(K.shape[0], dtype=bool)
    in_set[chosen] = True
    return SamplerState(
        indices=list(chosen),
        factor=f,
        log_det=chol.log_det(f),
        rng=_rng(seed),
        complement=np.flatnonzero(~in_set),
    )


def _inverse_diagonal(f: chol.LowerFactor) -> np.ndarray:
    # diag(K_S^-1): the squared column norms of L^-1.
    L_inv = chol.solve_lower(f.L, np.eye(f.dim))
    return np.einsum("ij,ij->j", L_inv, L_inv)


def _swapped_factor(
    f: chol.LowerFactor, pos_i: int, k_Sj: np.ndarray | None, k_self: float
) -> chol.LowerFactor | None:
    # Factor of K_T, T = S - {member pos_i} + {j}, by a delete/append edit;
    # None when the extension is numerically not positive definite.
    if f.dim > 1:
        f_minus = chol.remove_index(f, pos_i)
        k_cross = np.concatenate((k_Sj[:pos_i], k_Sj[pos_i + 1 :]))
    else:
        f_minus = chol.LowerFactor(np.zeros((0, 0)), f.jitter_used)
        k_cross = np.zeros(0)
    try:
        return chol.append_index(f_minus, k_cross, k_self)
    except NotPositiveDefiniteError:
        return None


# Steps whose draws are decoded from one raw-word call.
_DRAW_BLOCK = 4096
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _lemire(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's bounded draw from [0, n) for one 32-bit word r: the high half
    # of r * n, rejected when the low half falls below (2^32 - n) mod n.
    m = words * np.uint64(n)
    return m >> _SHIFT32, m & _LOW32


def _draw_block(
    rng: np.random.Generator, M: int, n_out: int, n: int
) -> tuple[list[int], list[int], np.ndarray]:
    """Draws of the next ``c <= n`` steps, decoded from ``2c`` raw Philox words.

    A step's ``integers(M)``, ``integers(n_out)`` and ``random()`` take, for
    ranges from 2 to 2^32 - 1, the low and high 32-bit halves of one word
    and the top 53 bits of the next; with a buffered half pending,
    ``integers(M)`` takes it and each step's high half is the next step's.
    The block stops before the first step where a bounded draw could be
    rejected (the Lemire leftover is below the range), and the generator is
    left exactly where ``c`` per-step draws would leave it; ``c = 0`` means
    the next step must be drawn by the per-step calls.
    """
    bg = rng.bit_generator
    saved = bg.state
    words = bg.random_raw(2 * n)
    pair = words[0::2]
    low, high = pair & _LOW32, pair >> _SHIFT32
    pending = saved["has_uint32"]
    if pending:
        r_i, r_j = np.concatenate(([np.uint64(saved["uinteger"])], high[:-1])), low
    else:
        r_i, r_j = low, high
    pos_i, left_i = _lemire(r_i, M)
    pos_j, left_j = _lemire(r_j, n_out)
    u = (words[1::2] >> _SHIFT11) * (1.0 / 9007199254740992.0)
    cut = np.flatnonzero((left_i < M) | (left_j < n_out))
    c = int(cut[0]) if cut.size else n
    if c < n:
        bg.state = saved
        bg.random_raw(2 * c)
    if pending and c:
        st = bg.state
        st["uinteger"] = int(high[c - 1])
        bg.state = st
    return pos_i[:c].tolist(), pos_j[:c].tolist(), u[:c]


def _draws(rng: np.random.Generator, M: int, n_out: int, steps: int):
    """Yield the (i, j, u) draws of `steps` transitions, a block at a time.

    Blocks are decoded by :func:`_draw_block` on the Philox generator that
    :func:`_rng` builds.  A step at a possible rejection, and every step when
    a range is 1 (``integers(1)`` draws no bits), does not fit in 32 bits or
    the generator is another one, is drawn by the per-step calls.
    """
    decoded = (
        type(rng.bit_generator) is np.random.Philox and 2 <= M < 2**32 and 2 <= n_out < 2**32
    )
    while steps > 0:
        n = min(steps, _DRAW_BLOCK)
        pos_i, pos_j, u = _draw_block(rng, M, n_out, n) if decoded else ([], [], None)
        if not pos_i:
            per_step = [
                (int(rng.integers(M)), int(rng.integers(n_out)), rng.random())
                for _ in range(1 if decoded else n)
            ]
            pos_i, pos_j, u = zip(*per_step)
            u = np.array(u)
        steps -= len(pos_i)
        yield pos_i, pos_j, u


def advance(
    state: SamplerState,
    K: np.ndarray,
    steps: int,
    refactor_every: int = REFACTOR_PERIOD,
    on_state=None,
) -> SamplerState:
    """Run `steps` transitions of the lazy exchange chain on the Gram K, mutating `state`.

    Each transition draws a member position i (``integers(M)``), an
    outsider position j (``integers(n_out)``) and a uniform u
    (``random()``), and accepts the swap of i for j when
    u < (1/2) min(1, det(K_T)/det(K_S)).  The draws are decoded from the
    stream in blocks (see :func:`_draw_block`), so the chain visits the same
    sets as one made of those three calls per step.  The acceptance
    probability never exceeds 1/2, so u >= 1/2 rejects without any linear
    algebra; without ``on_state`` such steps are skipped in bulk.
    Otherwise the ratio is read in closed form from the current factor L of
    K_S: with ``k_Sj = K[S, j]``, ``c = L^-1 k_Sj``, ``d_j = K[j, j] - c.c``
    and ``w = L^-T c``, det(K_T)/det(K_S) = d_j (K_S^-1)_ii + w_i^2.  A
    proposal whose residual pivot ``d(j | S-i) = ratio / (K_S^-1)_ii`` is at
    or below ``chol.PIVOT_FLOOR * K[j, j]`` has ratio 0 and is rejected.
    The factor is edited only on an accepted swap, by ``chol.remove_index``
    then ``chol.append_index``; an extension that is not positive definite
    rejects the swap.  ``state.accepted`` counts accepted swaps.  Every
    ``refactor_every`` steps the factor is rebuilt from ``K[S, S]`` and the
    incremental log-determinant checked against it, before ``on_state``.
    """
    M = len(state.indices)
    n_out = state.complement.shape[0]
    inv_diag = _inverse_diagonal(state.factor)
    S = np.array(state.indices)

    def propose(pos_i: int, pos_j: int, u: float) -> None:
        nonlocal inv_diag, S
        j = int(state.complement[pos_j])
        k_jj = K.item(j, j)
        if M > 1:
            L = state.factor.L
            k_Sj = K[S, j]
            c = chol.solve_lower(L, k_Sj)
            w = chol.solve_lower(L, c, transpose=True)
            ratio = (k_jj - float(c @ c)) * inv_diag[pos_i] + w[pos_i] ** 2
            if ratio / inv_diag[pos_i] <= chol.PIVOT_FLOOR * k_jj:
                ratio = 0.0
        else:
            # S - i is empty: det(K_T) = k_jj, above the floor for k_jj > 0.
            k_Sj, ratio = None, k_jj * inv_diag[0]
        f_T = None
        if u < 0.5 * min(1.0, ratio):
            f_T = _swapped_factor(state.factor, pos_i, k_Sj, k_jj)
        if f_T is not None:
            i = state.indices.pop(pos_i)
            state.indices.append(j)
            state.complement[pos_j] = i
            state.factor = f_T
            state.log_det = chol.log_det(f_T)
            state.accepted += 1
            S = np.array(state.indices)
            inv_diag = _inverse_diagonal(f_T)

    def refactor_if_due() -> None:
        nonlocal inv_diag
        if not refactor_every or state.step_count % refactor_every:
            return
        fresh = chol.factor(K[np.ix_(S, S)])
        fresh_log_det = chol.log_det(fresh)
        if abs(fresh_log_det - state.log_det) > DRIFT_TOL:
            raise NumericalInconsistencyError(
                f"incremental log-det drifted by "
                f"{abs(fresh_log_det - state.log_det):.3e}"
            )
        state.factor = fresh
        state.log_det = fresh_log_det
        inv_diag = _inverse_diagonal(fresh)

    while steps > 0:
        # A segment ends at the next refactor check or at the last step.
        segment = steps
        if refactor_every:
            segment = min(steps, refactor_every - state.step_count % refactor_every)
        steps -= segment
        for pos_i, pos_j, u in _draws(state.rng, M, n_out, segment):
            if on_state is None:
                for k in np.flatnonzero(u < 0.5).tolist():
                    propose(pos_i[k], pos_j[k], float(u[k]))
                state.step_count += len(pos_i)
                refactor_if_due()
                continue
            for i, j, v in zip(pos_i, pos_j, u.tolist()):
                if v < 0.5:
                    propose(i, j, v)
                state.step_count += 1
                refactor_if_due()
                on_state(state)
    return state


def kdpp_mcmc(
    K: np.ndarray,
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
    if M >= K.shape[0]:
        raise MTooLargeError("exchange chain needs M < N")
    if steps < 0:
        raise MTooLargeError("step count must be nonnegative")
    state = init_sampler(K, M, seed, allow_truncation)
    advance(state, K, steps)
    return np.sort(np.asarray(state.indices))


def mixing_steps(N: int, M: int, epsilon: float) -> int:
    """Provable step budget: ceil(N M^2 log N + N M log(1/epsilon))."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(N * M * M * math.log(N) + N * M * math.log(1.0 / epsilon))


def exact_kdpp_enumeration_matrix(K: np.ndarray, M: int) -> dict[tuple[int, ...], float]:
    """Exact subset probabilities P(S) proportional to det(K[S, S])."""
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


def exact_kdpp_enumeration(
    kernel: kernels.KernelSpec, X, M: int
) -> dict[tuple[int, ...], float]:
    """Exact k-DPP probability table over all C(N, M) subsets of the rows of X."""
    return exact_kdpp_enumeration_matrix(kernels.gram(kernel, _as_2d(X)), M)


def eigenvector_features(K: np.ndarray, X, M: int) -> svgp.EigenvectorFeatures:
    """Top-M eigenpairs of the training Gram matrix K of X as interdomain features."""
    X = _as_2d(X)
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

