"""Dense Cholesky utilities with O(M^2) incremental edits.

:func:`factor` checks its input in one tiled pass over A (symmetry, scale and
finiteness: a NaN or an infinity raises) and factors A's column-major view
with LAPACK ``dpotrf``: in a copy by default, or in A's own memory with
``overwrite_a``.  For a C-ordered A that view is the transpose, whose lower
triangle LAPACK reads: A's upper triangle, equal to the lower one for the
library's exactly symmetric Grams and within the symmetry check's tolerance
of it otherwise.

Besides plain factorization with an escalating jitter schedule, this module
provides three primitives that edit a factor of a principal submatrix as
single elements are swapped in and out: a rank-one update, deletion of a
row/column, and appending of a row/column, each O(M^2).  Acceptance
criterion 13 and the oracle suite check this edit kit against fresh
factorizations.  The exchange chain does not use it: it factors each
accepted swap's submatrix afresh, so its factor carries no rounding
accumulated over earlier swaps.

Every triangular solve in the library goes through :func:`solve_lower`: one
direct LAPACK ``dtrtrs`` call, on the memory layout SciPy's own triangular
solver passes to that routine, so the results match SciPy's to the last bit
without its per-call argument handling, which at the exchange chain's sizes
costs several times the solve itself.  Both routines run in the OpenBLAS
SciPy bundles, not in numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotFactorizableError,
    NotInPlaceError,
    NotPositiveDefiniteError,
)

# Relative jitter levels tried by factor, scaled by mean(diag(A)).
DEFAULT_JITTER_LEVELS = (0.0, 1e-10, 1e-8, 1e-6)

# d^2 <= PIVOT_FLOOR * k_self means the appended point is treated as linearly
# dependent and the extension is rejected.
PIVOT_FLOOR = 1e-12

_SYMMETRY_RTOL = 1e-10

# Side of the square tiles the symmetry check reads; a matrix of at most this
# size is one tile of the same loop.
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


def factor(A: np.ndarray, overwrite_a: bool = False) -> LowerFactor:
    """Factor a symmetric PSD matrix, escalating through a jitter schedule.

    The amounts added to the diagonal, tried in order, are
    ``DEFAULT_JITTER_LEVELS`` scaled by ``mean(diag(A))``.  LAPACK ``dpotrf``
    factors A's column-major view: a C-ordered A is read through its
    transpose view, so LAPACK reads A's upper triangle.  For an exactly
    symmetric A, such as every Gram :func:`sparsegp.kernels.gram` returns,
    that is the lower triangle and L is bit for bit
    ``scipy.linalg.cholesky(A, lower=True)``; otherwise the symmetry check
    bounds the difference.

    By default that view is copied once into an F-ordered buffer, which
    becomes L, and A is never written.  With ``overwrite_a`` the buffer is
    A's own memory, with the same L: A must be a C- or F-contiguous float64
    array, and on success its memory holds L (the returned ``L`` is a view
    of it).  ``dpotrf`` writes one triangle only, so a level that fails is
    undone from the untouched mirror triangle and the saved diagonal before
    the next is tried.  The symmetry and finiteness checks raise before
    anything is written, and a failure at every level leaves the buffer, and
    so A, as it was.

    Raises
    ------
    NotFactorizableError
        If A holds a NaN or an infinity, or if every jitter level fails.
    AsymmetricInputError
        If ``max|A - A.T| > 1e-10 * max|A|``.
    NotInPlaceError
        With ``overwrite_a``, if A is not a writeable contiguous float64 array.
    """
    if overwrite_a and not (
        isinstance(A, np.ndarray)
        and A.dtype == np.float64
        and (A.flags.c_contiguous or A.flags.f_contiguous)
        and A.flags.writeable
    ):
        raise NotInPlaceError("overwrite_a needs a writeable, contiguous float64 array")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got shape {A.shape}")
    m = A.shape[0]
    if m == 0:
        return LowerFactor(np.zeros((0, 0)), 0.0)
    asymmetry, scale = _asymmetry_and_scale(A)
    if not np.isfinite(scale):
        raise NotFactorizableError("input matrix has a non-finite entry")
    if asymmetry > _SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
        raise AsymmetricInputError("input matrix is not symmetric within tolerance")
    column_major = A.T if A.flags.c_contiguous else A
    diag = column_major.diagonal().copy()
    mean_diag = float(np.mean(diag))
    work = column_major if overwrite_a else column_major.copy(order="F")
    for level in DEFAULT_JITTER_LEVELS:
        jitter = level * mean_diag
        np.fill_diagonal(work, diag + jitter)
        L, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            for j in range(1, m):  # dpotrf leaves the input above the diagonal
                L[:j, j] = 0.0
            return LowerFactor(L, float(jitter))
        if info < 0:
            raise DimensionMismatchError(f"LAPACK dpotrf rejected argument {-info}")
        _restore_lower(work, diag)
    raise NotFactorizableError(
        f"Cholesky failed at all {len(DEFAULT_JITTER_LEVELS)} jitter levels"
    )


def _restore_lower(F: np.ndarray, diag: np.ndarray) -> None:
    """Rewrite an F-ordered F's lower triangle from its upper one, and its diagonal."""
    for j in range(F.shape[0] - 1):
        F[j + 1 :, j] = F[j, j + 1 :]
    np.fill_diagonal(F, diag)


def _asymmetry_and_scale(A: np.ndarray) -> tuple[float, float]:
    """``(max|A - A.T|, max|A|)``, read tile by tile over the upper triangle.

    Entry (r, c) of ``A - A.T`` is exactly minus entry (c, r), so the upper
    tiles hold every value of the difference; each upper tile and its mirror
    are read together, so the two maxima come from one pass over A.  One
    tile-sized buffer is reused, so no N x N temporary is made; a NaN
    anywhere gives NaN in both.
    """
    m = A.shape[0]
    tile = _SYMMETRY_TILE
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the caller rejects
        buf = np.empty((min(tile, m),) * 2)
        worst = peak = 0.0
        for i in range(0, m, tile):
            for j in range(i, m, tile):
                upper = A[i : i + tile, j : j + tile]
                mirror = A[j : j + tile, i : i + tile]
                peak = np.max([peak, upper.max(), -upper.min(), mirror.max(), -mirror.min()])
                out = buf[: upper.shape[0], : upper.shape[1]]
                np.subtract(upper, mirror.T, out=out)
                worst = np.maximum(worst, np.max(np.abs(out, out=out)))
    return worst, peak


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
