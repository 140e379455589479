"""Dense Cholesky utilities with O(M^2) incremental edits.

Besides plain factorization with an escalating jitter schedule, this module
provides the three primitives needed to maintain a factor of a principal
submatrix while single elements are swapped in and out: a rank-one update,
deletion of a row/column, and appending of a row/column.  Each edit costs
O(M^2), which is what makes swapping one element of a long Metropolis
chain's subset cheap; the chain edits its factor only on an accepted swap.

Every triangular solve in the library goes through :func:`solve_lower`: one
direct LAPACK ``dtrtrs`` call, on the memory layout SciPy's own triangular
solver passes to that routine, so the results match SciPy's to the last bit
without its per-call argument handling, which at the exchange chain's sizes
costs several times the solve itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotFactorizableError,
    NotPositiveDefiniteError,
)

# Relative jitter levels tried by factor, scaled by mean(diag(A)).
DEFAULT_JITTER_LEVELS = (0.0, 1e-10, 1e-8, 1e-6)

# d^2 <= PIVOT_FLOOR * k_self means the appended point is treated as linearly
# dependent and the extension is rejected.
PIVOT_FLOOR = 1e-12

_SYMMETRY_RTOL = 1e-10

# Side of the square tiles the symmetry check reads; a matrix of at most this
# size is checked in one pass.
_SYMMETRY_TILE = 256


@dataclass(frozen=True)
class LowerFactor:
    """Lower-triangular Cholesky factor, L @ L.T == (jittered) source matrix.

    ``jitter_used`` is the multiple of the identity that was added to the
    source diagonal before the factorization succeeded (0.0 in the usual
    well-conditioned case).
    """

    L: np.ndarray
    jitter_used: float = 0.0

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return L @ L.T."""
        return self.L @ self.L.T


def factor(A: np.ndarray) -> LowerFactor:
    """Factor a symmetric PSD matrix, escalating through a jitter schedule.

    The amounts added to the diagonal, tried in order, are
    ``DEFAULT_JITTER_LEVELS`` scaled by ``mean(diag(A))``.

    Raises
    ------
    AsymmetricInputError
        If ``max|A - A.T| > 1e-10 * max|A|``.
    NotFactorizableError
        If every jitter level fails.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got shape {A.shape}")
    m = A.shape[0]
    if m == 0:
        return LowerFactor(np.zeros((0, 0)), 0.0)
    scale = max(A.max(), -A.min())
    if _max_asymmetry(A) > _SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
        raise AsymmetricInputError("input matrix is not symmetric within tolerance")
    mean_diag = float(np.mean(np.diag(A)))
    for level in DEFAULT_JITTER_LEVELS:
        jitter = level * mean_diag
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(m) if jitter else A)
        except np.linalg.LinAlgError:
            continue
        return LowerFactor(L, float(jitter))
    raise NotFactorizableError(
        f"Cholesky failed at all {len(DEFAULT_JITTER_LEVELS)} jitter levels"
    )


def _max_asymmetry(A: np.ndarray) -> float:
    """``max|A - A.T|``, read tile by tile over the upper triangle.

    Entry (r, c) of ``A - A.T`` is exactly minus entry (c, r), so the upper
    tiles hold every value.  One tile-sized buffer is reused, so no N x N
    temporary is made; a NaN anywhere gives NaN, as the one-pass form does.
    """
    m = A.shape[0]
    tile = _SYMMETRY_TILE
    if m <= tile:
        return np.max(np.abs(A - A.T))
    buf = np.empty((tile, tile))
    worst = 0.0
    for i in range(0, m, tile):
        for j in range(i, m, tile):
            upper = A[i : i + tile, j : j + tile]
            out = buf[: upper.shape[0], : upper.shape[1]]
            np.subtract(upper, A[j : j + tile, i : i + tile].T, out=out)
            worst = np.maximum(worst, np.max(np.abs(out, out=out)))
    return worst


def solve_lower(L: np.ndarray, b, transpose: bool = False) -> np.ndarray:
    """Solve ``L x = b``, or ``L^T x = b`` with ``transpose``, for lower-triangular L.

    ``b`` is a vector or a matrix of right-hand sides; only L's lower
    triangle is read.  LAPACK sees the same bytes in the same orientation as
    under SciPy's ``scipy.linalg`` triangular solver with ``lower=True``: an
    F-contiguous L (a 1 x 1 one included) is passed as is, any other as its
    transpose view, upper-triangular and F-contiguous, so no copy is made.
    Solving the other orientation of a C-ordered L would copy it and change
    the last bits of the result.

    Raises
    ------
    DimensionMismatchError
        If L is not square or b's leading dimension is not L's.
    NotPositiveDefiniteError
        If L has a zero on its diagonal.
    """
    L = np.asarray(L)
    b = np.asarray(b)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or b.shape[:1] != L.shape[:1]:
        raise DimensionMismatchError(
            f"cannot solve a system of shape {L.shape} against {b.shape}"
        )
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, b, lower=1, trans=int(transpose))
    else:
        x, info = dtrtrs(L.T, b, lower=0, trans=int(not transpose))
    if info > 0:
        raise NotPositiveDefiniteError(f"zero on the diagonal of the factor at row {info - 1}")
    if info < 0:
        raise DimensionMismatchError(f"LAPACK dtrtrs rejected argument {-info}")
    return x


def rank_one_update(f: LowerFactor, v: np.ndarray) -> LowerFactor:
    """Return the factor of ``f.L @ f.L.T + v @ v.T`` in O(M^2)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != f.dim:
        raise DimensionMismatchError(f"vector length {v.shape[0]} != factor dim {f.dim}")
    L = f.L.copy()
    w = v.copy()
    m = f.dim
    for k in range(m):
        if w[k] == 0.0:
            continue
        r = np.hypot(L[k, k], w[k])
        c = r / L[k, k]
        s = w[k] / L[k, k]
        L[k, k] = r
        if k + 1 < m:
            L[k + 1 :, k] = (L[k + 1 :, k] + s * w[k + 1 :]) / c
            w[k + 1 :] = c * w[k + 1 :] - s * L[k + 1 :, k]
    return LowerFactor(L, f.jitter_used)


def remove_index(f: LowerFactor, i: int) -> LowerFactor:
    """Return the factor of the source matrix with row/column ``i`` deleted.

    Deleting row/column ``i`` leaves the leading block untouched; the
    trailing block absorbs a rank-one update with the deleted subcolumn.
    """
    m = f.dim
    if m < 2:
        raise IndexOutOfRangeError("cannot remove a row from a factor of dim < 2")
    if not 0 <= i < m:
        raise IndexOutOfRangeError(f"index {i} outside [0, {m})")
    if i == m - 1:
        return LowerFactor(f.L[:-1, :-1].copy(), f.jitter_used)
    # The three blocks that skip row and column i are copied; the trailing
    # one is written by the update (which copies its input).
    L = np.empty((m - 1, m - 1))
    L[:i, :i] = f.L[:i, :i]
    L[:i, i:] = f.L[:i, i + 1 :]
    L[i:, :i] = f.L[i + 1 :, :i]
    tail = LowerFactor(f.L[i + 1 :, i + 1 :], f.jitter_used)
    L[i:, i:] = rank_one_update(tail, f.L[i + 1 :, i]).L
    return LowerFactor(L, f.jitter_used)


def append_index(f: LowerFactor, k_cross: np.ndarray, k_self: float) -> LowerFactor:
    """Extend the factor by one row/column in O(M^2).

    ``k_cross`` holds the covariances between the new point and the current
    ones, ``k_self`` its self-covariance.  The new bottom row is
    ``(c^T, d)`` with ``c = L^{-1} k_cross`` and ``d = sqrt(k_self - c^T c)``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``k_self - c^T c <= PIVOT_FLOOR * k_self``, i.e. the new point is
        numerically linearly dependent on the current ones.
    """
    k_cross = np.asarray(k_cross, dtype=float).ravel()
    m = f.dim
    if k_cross.shape[0] != m:
        raise DimensionMismatchError(
            f"cross-covariance length {k_cross.shape[0]} != factor dim {m}"
        )
    if m > 0:
        c = solve_lower(f.L, k_cross)
        d_sq = float(k_self) - float(c @ c)
    else:
        c = k_cross
        d_sq = float(k_self)
    if k_self <= 0 or d_sq <= PIVOT_FLOOR * k_self:
        raise NotPositiveDefiniteError(
            f"residual pivot {d_sq:.3e} at or below floor for k_self {k_self:.3e}"
        )
    L = np.zeros((m + 1, m + 1))
    L[:m, :m] = f.L
    L[m, :m] = c
    L[m, m] = np.sqrt(d_sq)
    return LowerFactor(L, f.jitter_used)


def log_det(f: LowerFactor) -> float:
    """Log determinant of the factored matrix: 2 * sum(log diag(L))."""
    if f.dim == 0:
        return 0.0
    return 2.0 * float(np.sum(np.log(np.diag(f.L))))
