"""Dense Cholesky utilities with O(M^2) incremental edits.

:func:`factor` takes a full array or a :class:`Packed` Gram.  A full array
passes one tiled check (symmetry, scale and finiteness: a NaN or an infinity
raises), the gate every full array from outside the library goes through
(:func:`as_packed` packs one after the same check), and its column-major view
is factored with LAPACK ``dpotrf`` in a copy; A is never written.  For a
C-ordered A that view is the transpose, whose lower triangle LAPACK reads:
A's upper triangle, equal to the lower one for the library's exactly
symmetric Grams and within the symmetry check's tolerance of it otherwise.
A :class:`Packed` Gram holds the lower triangle alone, in LAPACK's
rectangular full packed (RFP) storage, N(N+1)/2 floats, which it reads and
writes through two views that state the layout once.  It enters through
:func:`as_packed`, which refuses a packed factor, and cannot be asymmetric,
so it only passes a finiteness check before LAPACK ``dpftrf`` factors it in
its own storage: the Gram is consumed, and the factor takes its memory.
``factor(A, shift)`` factors ``A + shift*I`` (a noisy Gram, a jittered Kuu)
by shifting the diagonal it factors, so no caller forms the sum or shifts A.

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
costs several times the solve itself; a packed factor is solved in its own
storage by ``dtfsm``.  These routines run in the OpenBLAS SciPy bundles, not
in numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpftrf, dpotrf, dtfsm, dtfttr, dtrtrs, dtrttf

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
# size is one tile of the same loop.
_SYMMETRY_TILE = 256

# Columns of the packed storage per panel of a packed product: a panel of an
# N=4000 lower triangle (1 MB) is still in cache when it is read the second
# time, for its transpose's share of a symmetric product.  With 8 columns of
# V this takes 15.6 ms at N=4000 against 14.8 ms for the full Gram's product,
# and 1.37 ms against 1.10 ms at N=1000 (one BLAS thread, 2-core Xeon).
_PANEL = 32


class Packed:
    """The lower triangle of an N x N matrix in rectangular full packed storage.

    LAPACK's RFP layout (``transr='N'``, ``uplo='L'``) keeps the N(N+1)/2
    entries in ``rfp``, a column-major (N + off) x n1 array R written flat,
    with n1 = ceil(N/2) and off = 1 - N % 2.  ``__init__`` states the layout
    once, as two views whose lower trapezoids hold the lower triangle: the
    leading N x n1 columns (``R[off:]``) and the trailing (N - n1) x (N - n1)
    triangle, stored transposed above them (``R[:N - n1, 1 - off:].T``).
    Every other method reads and writes the matrix through these views.
    ``size`` counts the stored floats and ``shape`` is the matrix's, as for
    ``scipy.sparse``.

    A Packed with a ``source`` is a Gram: it is symmetric (the lower
    triangle is mirrored above the diagonal), and ``source(packed)`` writes
    the whole matrix into ``packed``'s storage again, which :func:`factor`
    does to undo a failed jitter level.  A Packed without one is the
    lower-triangular factor :func:`factor` made; its upper triangle is zero.
    """

    __array_ufunc__ = None  # numpy defers ``V @ packed`` and friends instead of converting

    def __init__(
        self,
        rfp: np.ndarray,
        dim: int,
        source: Callable[[Packed], None] | None = None,
    ):
        if rfp.shape != (dim * (dim + 1) // 2,):
            raise DimensionMismatchError(f"{rfp.shape} storage for a packed {dim} x {dim} matrix")
        self.rfp, self.dim, self.source = rfp, dim, source
        n1, off = (dim + 1) // 2, 1 - dim % 2
        R = rfp.reshape((dim + off, n1), order="F")
        self._lead, self._trail = R[off:], R[: dim - n1, 1 - off :].T

    @classmethod
    def from_source(cls, dim: int, source: Callable[[Packed], None]) -> Packed:
        """A Gram in new storage, written by its ``source``."""
        packed = cls(np.empty(dim * (dim + 1) // 2), dim, source)
        source(packed)
        return packed

    @property
    def size(self) -> int:
        return self.rfp.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def symmetric(self) -> bool:
        return self.source is not None

    def write(self, block, rows: int) -> None:
        """Write the lower triangle of an exactly symmetric matrix A into the storage.

        ``block(r, c)`` returns the entries ``A[r, c]`` at two slices as an
        array, and is asked for at most ``rows`` rows of A at a time, some
        entries from above the diagonal.  The leading view is written a few
        of its columns at a time, each read as A's row from the diagonal on,
        and the trailing one a few of its rows at a time; a mask keeps each
        tile's lower-triangle share.
        """
        lead, trail = self._lead, self._trail
        n, n1 = lead.shape
        upper = ~np.tri(min(rows, n1), n, -1, dtype=bool)
        for c0 in range(0, n1, rows):
            c1 = min(c0 + rows, n1)
            tile = block(slice(c0, c1), slice(c0, n))
            np.copyto(lead[c0:, c0:c1].T, tile, where=upper[: c1 - c0, : n - c0])
        for r0 in range(0, n - n1, rows):
            r1 = min(r0 + rows, n - n1)
            tile = block(slice(n1 + r0, n1 + r1), slice(n1, n1 + r1))
            np.copyto(trail[r0:r1, :r1], tile, where=np.tri(r1 - r0, r1, r0, dtype=bool))

    def diagonal(self) -> np.ndarray:
        return np.concatenate((self._lead.diagonal(), self._trail.diagonal()))

    def fill_diagonal(self, values) -> None:
        n1 = self._lead.shape[1]
        np.fill_diagonal(self._lead, values[:n1])
        np.fill_diagonal(self._trail, values[n1:])

    def column(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Column j of a symmetric matrix, read from at most three slices of the views."""
        lead = self._lead
        n1 = lead.shape[1]
        col = np.empty(self.dim) if out is None else out
        if j < n1:
            col[:j] = lead[j, :j]
            col[j:] = lead[j:, j]
        else:
            trail, jj = self._trail, j - n1
            col[:n1] = lead[j]
            col[n1:j] = trail[jj, :jj]
            col[j:] = trail[jj:, jj]
        return col

    def unpack(self) -> np.ndarray:
        """The full N x N matrix, F-ordered."""
        A = dtfttr(self.dim, self.rfp, transr="N", uplo="L")[0]
        for c0 in range(0, self.dim, _SYMMETRY_TILE):
            c1 = c0 + _SYMMETRY_TILE
            block = A[c0:c1, c0:c1]
            block[...] = _square(np.tril(block), self.symmetric)
            A[c0:c1, c1:] = A[c1:, c0:c1].T if self.symmetric else 0.0
        return A

    def __matmul__(self, V) -> np.ndarray:
        """``A @ V`` for a vector or block V, by column panels of each view.

        Each panel of the lower triangle is read for its own product and,
        for a symmetric A, once more, while it is in cache, for its
        transpose's; its small diagonal block is expanded first.
        """
        V = np.asarray(V, dtype=float)
        if V.shape[:1] != (self.dim,):
            raise DimensionMismatchError(f"cannot apply a {self.shape} matrix to {V.shape}")
        out = np.zeros(V.shape)
        for T, r in ((self._lead, 0), (self._trail, self._lead.shape[1])):
            W, Y = V[r:], out[r:]
            for c0 in range(0, T.shape[1], _PANEL):
                c1 = min(c0 + _PANEL, T.shape[1])
                Y[c0:c1] += _square(np.tril(T[c0:c1, c0:c1]), self.symmetric) @ W[c0:c1]
                B = T[c1:, c0:c1]
                Y[c1:] += B @ W[c0:c1]
                if self.symmetric:
                    Y[c0:c1] += B.T @ W[c1:]
        return out


def _square(lower: np.ndarray, symmetric: bool) -> np.ndarray:
    # A lower-triangular block, mirrored above its diagonal when symmetric.
    return lower + np.tril(lower, -1).T if symmetric else lower


def as_packed(A) -> Packed:
    """A Gram as a :class:`Packed`; the one gate of packed input.

    A :class:`Packed` Gram is returned as it is.  A full array passes the
    checks :func:`factor` makes of one, and the triangle ``factor`` would
    read (the lower one of A's column-major view) is packed into a new
    buffer; A is never written, and is the packed matrix's ``source``.

    Raises
    ------
    NotFactorizableError
        If A holds a NaN or an infinity.
    AsymmetricInputError
        If ``max|A - A.T| > 1e-10 * max|A|``, or if A is a packed factor
        (a :class:`Packed` without a ``source``), which is not a Gram.
    """
    if isinstance(A, Packed):
        if not A.symmetric:
            raise AsymmetricInputError("a packed Cholesky factor is not a Gram")
        return A
    A = _checked_full(np.asarray(A, dtype=float))
    column_major = A.T if A.flags.c_contiguous else np.asfortranarray(A)

    def source(packed: Packed) -> None:
        if packed.size:
            packed.rfp[:] = dtrttf(column_major, transr="N", uplo="L")[0]

    return Packed.from_source(A.shape[0], source)


@dataclass(frozen=True)
class LowerFactor:
    """Lower-triangular Cholesky factor: L @ L.T == source + (shift + jitter_used) I.

    ``L`` is a full array, or a :class:`Packed` one for a factor made from a
    packed Gram.  ``jitter_used`` is the multiple of the identity that
    :func:`factor` added on top of its ``shift`` before the factorization
    succeeded (0.0 in the usual well-conditioned case).
    """

    L: np.ndarray | Packed
    jitter_used: float = 0.0

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return L @ L.T."""
        L = self.L.unpack() if isinstance(self.L, Packed) else self.L
        return L @ L.T


def factor(A: np.ndarray | Packed, shift: float = 0.0) -> LowerFactor:
    """Factor ``A + shift*I`` for a symmetric A, escalating through a jitter schedule.

    The amounts added to the shifted diagonal, tried in order, are
    ``DEFAULT_JITTER_LEVELS`` scaled by ``mean(diag(A) + shift)``;
    ``jitter_used`` is the amount that succeeded, without the shift.

    A full A passes the symmetry and finiteness checks, and LAPACK ``dpotrf``
    factors its column-major view: a C-ordered A is read through its
    transpose view, so LAPACK reads A's upper triangle.  For an exactly
    symmetric A that is the lower triangle and L is bit for bit
    ``scipy.linalg.cholesky(A + shift*I, lower=True)``; otherwise the
    symmetry check bounds the difference.  Each level copies that view
    afresh into one F-ordered work buffer, which becomes L, so A is never
    written; ``dpotrf`` zeroes the buffer's upper triangle even when a level
    fails, which is why each level starts from a fresh copy.

    A :class:`Packed` A, read through :func:`as_packed`, is only checked for
    finiteness, and LAPACK ``dpftrf`` factors it in its own RFP storage, so
    the Gram is consumed: L is a :class:`Packed` factor in that storage.  A
    level that fails is undone by rewriting the storage from A's ``source``
    and putting back the diagonal A had on entry.

    Either way the checks raise before anything is written, and a failure at
    every level leaves A as it was.

    Raises
    ------
    NotFactorizableError
        If A or the shift is not finite, or if every jitter level fails.
    AsymmetricInputError
        If A is a full array and ``max|A - A.T| > 1e-10 * max|A|``, or a
        packed factor.
    """
    if not np.isfinite(shift):
        raise NotFactorizableError(f"shift {shift!r} is not finite")
    if isinstance(A, Packed):
        return _factor_packed(as_packed(A), shift)
    A = _checked_full(np.asarray(A, dtype=float))
    m = A.shape[0]
    if m == 0:
        return LowerFactor(np.zeros((0, 0)), 0.0)
    column_major = A.T if A.flags.c_contiguous else A
    work = np.empty((m, m), order="F")

    def attempt(d: np.ndarray) -> np.ndarray | None:
        work[...] = column_major
        np.fill_diagonal(work, d)
        L, info = dpotrf(work, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L
        _check_info("dpotrf", info)
        return None

    return _escalate(column_major.diagonal() + shift, attempt)


def _factor_packed(A: Packed, shift: float) -> LowerFactor:
    n = A.dim
    if n == 0:
        return LowerFactor(np.zeros((0, 0)), 0.0)
    if not (np.isfinite(A.rfp.max()) and np.isfinite(A.rfp.min())):
        raise NotFactorizableError("input matrix has a non-finite entry")
    diag = A.diagonal()

    def attempt(d: np.ndarray) -> Packed | None:
        A.fill_diagonal(d)
        L, info = dpftrf(n, A.rfp, transr="N", uplo="L", overwrite_a=1)
        if info == 0:
            A.source = None  # the storage holds the factor now, not a Gram
            return Packed(L, n)
        _check_info("dpftrf", info)
        A.source(A)  # dpftrf leaves a partial factor behind
        A.fill_diagonal(diag)
        return None

    return _escalate(diag + shift, attempt)


def _escalate(diag: np.ndarray, attempt) -> LowerFactor:
    # Try each jitter level on `diag`; `attempt` returns L, or None when its level fails.
    mean_diag = float(np.mean(diag))
    for level in DEFAULT_JITTER_LEVELS:
        jitter = level * mean_diag
        L = attempt(diag + jitter)
        if L is not None:
            return LowerFactor(L, float(jitter))
    raise NotFactorizableError(
        f"Cholesky failed at all {len(DEFAULT_JITTER_LEVELS)} jitter levels"
    )


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise DimensionMismatchError(f"LAPACK {routine} rejected argument {-info}")


def _checked_full(A: np.ndarray) -> np.ndarray:
    """The gate of a full array: square, finite and symmetric within tolerance."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got shape {A.shape}")
    asymmetry, scale = _asymmetry_and_scale(A)
    if not np.isfinite(scale):
        raise NotFactorizableError("input matrix has a non-finite entry")
    if asymmetry > _SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
        raise AsymmetricInputError("input matrix is not symmetric within tolerance")
    return A


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


def solve_lower(L: np.ndarray | Packed, b, transpose: bool = False) -> np.ndarray:
    """Solve ``L x = b``, or ``L^T x = b`` with ``transpose``, for lower-triangular L.

    ``b`` is a vector or a matrix of right-hand sides; only L's lower
    triangle is read.  A full L is solved by LAPACK ``dtrtrs``, which sees the
    same bytes in the same orientation as under SciPy's ``scipy.linalg``
    triangular solver with ``lower=True``: an F-contiguous L (a 1 x 1 one
    included) is passed as is, any other as its transpose view,
    upper-triangular and F-contiguous, so no copy is made.  Solving the other
    orientation of a C-ordered L would copy it and change the last bits of
    the result.  A :class:`Packed` L (a factor :func:`factor` made in packed
    storage, whose diagonal has no zero) is solved in that storage by LAPACK
    ``dtfsm``.  Both storages share the shape check and an empty b's result.

    Raises
    ------
    DimensionMismatchError
        If L is not square or b's leading dimension is not L's.
    NotPositiveDefiniteError
        If a full L has a zero on its diagonal.
    """
    b = np.asarray(b)
    if len(L.shape) != 2 or L.shape[0] != L.shape[1] or b.shape[:1] != L.shape[:1]:
        raise DimensionMismatchError(
            f"cannot solve a system of shape {L.shape} against {b.shape}"
        )
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if isinstance(L, Packed):
        x = dtfsm(
            1.0, L.rfp, b.reshape(L.dim, -1), transr="N", side="L", uplo="L",
            trans="T" if transpose else "N",
        )
        return x.reshape(b.shape)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, b, lower=1, trans=int(transpose))
    else:
        x, info = dtrtrs(L.T, b, lower=0, trans=int(not transpose))
    if info > 0:
        raise NotPositiveDefiniteError(f"zero on the diagonal of the factor at row {info - 1}")
    _check_info("dtrtrs", info)
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
    return 2.0 * float(np.sum(np.log(f.L.diagonal())))
