"""Tests for the incremental Cholesky kit.

Every edit operation is checked against the obvious oracle: refactorize the
edited matrix from scratch and compare.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpftrf

from sparsegp import chol, gp_exact, inducing, kernels, svgp
from sparsegp.errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotFactorizableError,
    NotPositiveDefiniteError,
)


def random_spd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return b @ b.T + scale * n * np.eye(n)


def cofactor_det(a):
    """Brute-force determinant by cofactor expansion (test oracle)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    return sum(
        (-1) ** j * a[0, j] * cofactor_det(np.delete(a[1:], j, axis=1))
        for j in range(n)
    )


class TestFactor:
    def test_identity(self):
        f = chol.factor(np.eye(3))
        assert np.array_equal(f.L, np.eye(3))
        assert f.jitter_used == 0.0

    def test_hand_worked_2x2(self):
        f = chol.factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(f.L, expected, atol=1e-14)
        assert np.allclose(f.reconstruct(), [[4.0, 2.0], [2.0, 3.0]], atol=1e-14)

    def test_rank_deficient_needs_jitter(self):
        f = chol.factor(np.ones((2, 2)))
        assert f.jitter_used == 1e-10

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(AsymmetricInputError):
            chol.factor(a)

    def test_all_levels_fail(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotFactorizableError):
            chol.factor(a)

    def test_default_schedule_scales_with_diagonal(self):
        a = 1e6 * np.ones((2, 2))
        f = chol.factor(a)
        assert f.jitter_used > 0
        assert np.max(np.abs(f.reconstruct() - a)) <= 1e-4


class TestSymmetryCheck:
    # chol.factor reads max|A - A.T| tile by tile; tiles are 256 wide.

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_equals_one_pass_max(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        asymmetry, peak = chol._asymmetry_and_scale(a)
        assert asymmetry == np.max(np.abs(a - a.T))
        assert peak == np.max(np.abs(a))
        sym = a + a.T
        asymmetry, peak = chol._asymmetry_and_scale(sym)
        assert asymmetry == np.max(np.abs(sym - sym.T)) == 0.0
        assert peak == np.max(np.abs(sym))

    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    def test_nan_propagates(self, n):
        a = random_spd(np.random.default_rng(n), n)
        a[n - 1, n // 3] = np.nan
        assert np.isnan(np.max(np.abs(a - a.T)))
        asymmetry, peak = chol._asymmetry_and_scale(a)
        assert np.isnan(asymmetry)
        assert np.isnan(peak)

    @pytest.mark.parametrize("entry", [(598, 590), (10, 590), (590, 10)])
    def test_asymmetry_in_last_partial_tile_rejected(self, entry):
        # At n = 600 the last tile row and column cover indices 512..599.
        a = random_spd(np.random.default_rng(5), 600)
        a[entry] += 1e-6 * np.max(np.abs(a))
        with pytest.raises(AsymmetricInputError):
            chol.factor(a)

    def test_peak_memory_is_the_factor(self):
        a = random_spd(np.random.default_rng(6), 1500)
        tracemalloc.start()
        try:
            chol.factor(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * a.nbytes


class TestNonFiniteInput:
    @pytest.mark.parametrize("n", [2, 300, 600])
    @pytest.mark.parametrize("where", ["upper", "mirror", "both"])
    def test_nan_in_last_partial_tile_raises(self, n, where):
        # At n = 300 and 600 the last tile row and column start at 256 and 512.
        a = random_spd(np.random.default_rng(n), n)
        if where in ("upper", "both"):
            a[n - 2, n - 1] = np.nan
        if where in ("mirror", "both"):
            a[n - 1, n - 2] = np.nan
        with pytest.raises(NotFactorizableError):
            chol.factor(a)

    @pytest.mark.parametrize("n", [2, 300, 600])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_diagonal_raises(self, n, value):
        a = random_spd(np.random.default_rng(n), n)
        a[n - 1, n - 1] = value
        with pytest.raises(NotFactorizableError):
            chol.factor(a)


def _exact_gram(n, noise=0.1):
    # kernels.gram returns an exactly symmetric matrix.
    X = np.random.default_rng(n).normal(size=(n, 1))
    K = kernels.gram(kernels.squared_exponential(1.0, [0.5]), X)
    K[np.diag_indices(n)] += noise
    return K


def _rank_deficient_gram(n, shift=0.0):
    # Five distinct points, each repeated: rank 5, exactly symmetric.  A
    # shift lowers the zero eigenvalues to -shift, below the first jitter.
    X = np.repeat(np.linspace(-1.0, 1.0, 5), -(-n // 5))[:n, None]
    K = kernels.gram(kernels.squared_exponential(1.0, [0.5]), X)
    K[np.diag_indices(n)] -= shift
    return K


class TestFactorLayout:
    """dpotrf factors one column-major work buffer in place, and that buffer is L."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 257, 600, 2000])
    def test_bit_equal_to_scipy_on_exact_grams(self, n, order):
        K = _exact_gram(n)
        assert np.array_equal(K, K.T)
        f = chol.factor(np.asarray(K, order=order))
        assert f.jitter_used == 0.0
        assert np.array_equal(f.L, scipy.linalg.cholesky(K, lower=True))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shift", [0.0, 5e-9])
    def test_lapack_sees_column_major_arrays(self, monkeypatch, order, shift):
        # Every jitter level refills and factors the same F-contiguous
        # buffer, and the level that succeeds returns it as L; A is only read.
        seen = []
        dpotrf = chol.dpotrf

        def spy(a, **kwargs):
            seen.append(a)
            return dpotrf(a, **kwargs)

        monkeypatch.setattr(chol, "dpotrf", spy)
        a = np.asarray(_rank_deficient_gram(300, shift), order=order)
        before = a.copy()
        f = chol.factor(a)
        assert len(seen) == (2 if shift == 0.0 else 3)
        assert all(buf is seen[0] for buf in seen)
        assert seen[0].flags.f_contiguous
        assert np.shares_memory(f.L, seen[0])
        assert not np.shares_memory(f.L, a)
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shift", [0.0, 5e-9])
    def test_jittered_factor_bit_equal_to_sum(self, shift):
        # One failed level without the shift, two with it.
        a = _rank_deficient_gram(300, shift)
        f = chol.factor(a)
        m = a.shape[0]
        assert f.jitter_used == (1e-10 if shift == 0.0 else 1e-8) * np.mean(np.diag(a))
        expected = scipy.linalg.cholesky(a + f.jitter_used * np.eye(m), lower=True)
        assert np.array_equal(f.L, expected)
        assert np.array_equal(a, _rank_deficient_gram(300, shift))

    def test_every_level_failing_leaves_a_unchanged(self):
        a = np.asfortranarray([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        before = a.copy()
        with pytest.raises(NotFactorizableError):
            chol.factor(a)
        assert a.tobytes() == before.tobytes()

    def test_rejected_lapack_argument_raises(self, monkeypatch):
        monkeypatch.setattr(chol, "dpotrf", lambda a, **kwargs: (a, -4))
        with pytest.raises(DimensionMismatchError, match="dpotrf rejected argument 4"):
            chol.factor(np.eye(3))


class TestFactorInPlace:
    """dpftrf factors a packed Gram in its own storage; a full array is copied."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 257, 600])
    def test_bit_equal_to_copying_factor(self, n, order):
        # The reference is dpftrf run directly on a copy of the storage.
        packed = chol.as_packed(np.asarray(_exact_gram(n), order=order))
        expected, info = dpftrf(n, packed.rfp.copy(), transr="N", uplo="L")
        assert info == 0
        f = chol.factor(packed)
        assert f.L.rfp.tobytes() == expected.tobytes()
        assert f.jitter_used == 0.0
        assert np.shares_memory(f.L.rfp, packed.rfp)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shift", [0.0, 5e-9])
    def test_jitter_retry_wider_than_a_tile(self, order, shift):
        # Duplicated points at n = 701 > _SYMMETRY_TILE, one failed level
        # without the shift and two with it.  A full array's copy is undone
        # from its mirror triangle, a packed Gram in place from its source.
        assert 701 > chol._SYMMETRY_TILE
        a = np.asarray(_rank_deficient_gram(701, shift), order=order)
        before = a.copy()
        jitter = (1e-10 if shift == 0.0 else 1e-8) * np.mean(np.diag(a))
        jittered = a + jitter * np.eye(701)
        f = chol.factor(a)
        assert f.jitter_used == jitter
        assert np.array_equal(f.L, scipy.linalg.cholesky(jittered, lower=True))
        assert a.tobytes() == before.tobytes()
        packed = chol.as_packed(a)
        g = chol.factor(packed)
        assert np.shares_memory(g.L.rfp, packed.rfp)
        assert g.jitter_used == jitter
        assert g.L.rfp.tobytes() == chol.factor(chol.as_packed(jittered)).L.rfp.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lapack_factors_the_input_itself(self, monkeypatch, order):
        seen = []
        dpftrf = chol.dpftrf

        def spy(n, a, **kwargs):
            seen.append(a)
            return dpftrf(n, a, **kwargs)

        monkeypatch.setattr(chol, "dpftrf", spy)
        packed = chol.as_packed(np.asarray(_rank_deficient_gram(300), order=order))
        chol.factor(packed)
        assert len(seen) == 2
        assert all(buf is packed.rfp for buf in seen)

    @pytest.mark.parametrize(
        "spoil", ["asymmetric", "nan-upper", "nan-mirror", "inf-diagonal"]
    )
    def test_rejected_input_is_not_written(self, spoil):
        a = _exact_gram(600)
        if spoil == "asymmetric":
            a[598, 10] += 1e-6 * np.max(np.abs(a))
        elif spoil == "nan-upper":
            a[10, 598] = np.nan
        elif spoil == "nan-mirror":
            a[598, 10] = np.nan
        else:
            a[599, 599] = np.inf
        before = a.copy()
        error = AsymmetricInputError if spoil == "asymmetric" else NotFactorizableError
        with pytest.raises(error):
            chol.factor(a)
        assert a.tobytes() == before.tobytes()

    def test_every_level_failing_leaves_a_unchanged(self):
        packed = chol.as_packed(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        before = packed.rfp.copy()
        with pytest.raises(NotFactorizableError):
            chol.factor(packed)
        assert packed.rfp.tobytes() == before.tobytes()
        assert packed.symmetric  # still a Gram, with its source

    def test_full_array_of_any_layout_is_factored_in_a_copy(self):
        a = _exact_gram(40)
        read_only = a.copy()
        read_only.flags.writeable = False
        for full in (a, a.T, read_only, a.tolist()):
            assert np.array_equal(chol.factor(full).L, scipy.linalg.cholesky(a, lower=True))
        strided = np.asfortranarray(_exact_gram(80))[::2, ::2]
        expected = scipy.linalg.cholesky(np.ascontiguousarray(strided), lower=True)
        assert np.array_equal(chol.factor(strided).L, expected)
        assert np.array_equal(a, _exact_gram(40)) and np.array_equal(read_only, a)

    def test_failed_dense_system_raises_and_leaves_the_gram(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite, also with the noise
        before = K.copy()
        with pytest.raises(NotFactorizableError):
            gp_exact.DenseSystem.from_gram(K, gp_exact.NoiseModel(0.1))
        assert K.tobytes() == before.tobytes()
        assert "consumed" in gp_exact.DenseSystem.from_gram.__doc__


def _packed_gram(n, repeat=1):
    X = np.repeat(np.random.default_rng(n).normal(size=(-(-n // repeat), 1)), repeat, axis=0)[:n]
    kern = kernels.squared_exponential(1.0, [0.5])
    return kernels.gram(kern, X), kernels.gram(kern, X, packed=True)


class TestPacked:
    """A Gram and its factor held in RFP storage (chol.Packed)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 257])
    def test_columns_and_diagonal_are_the_full_arrays(self, n):
        K, packed = _packed_gram(n)
        assert np.array_equal(packed.diagonal(), np.diag(K))
        for j in range(n):
            assert np.array_equal(packed.column(j), K[:, j])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 257, 600])
    def test_panel_products(self, n):
        K, packed = _packed_gram(n)
        rng = np.random.default_rng(n)
        for V in (rng.standard_normal(n), rng.standard_normal((n, 8))):
            exact = K @ V
            assert np.max(np.abs(packed @ V - exact)) <= 1e-13 * np.max(np.abs(exact))
        L = chol.factor(packed).L
        z = rng.standard_normal(n)
        exact = L.unpack() @ z
        assert np.max(np.abs(L @ z - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 257, 600])
    def test_factor_rebuilds_the_noisy_gram(self, n):
        K, packed = _packed_gram(n)
        system = gp_exact.DenseSystem.from_gram(packed, gp_exact.NoiseModel(0.1))
        f = system.noisy
        assert f.jitter_used == 0.0 and f.dim == n
        assert np.shares_memory(f.L.rfp, packed.rfp)
        L = f.L.unpack()
        assert np.array_equal(L, np.tril(L))
        noisy = K + 0.1 * np.eye(n)
        assert np.max(np.abs(L @ L.T - noisy)) <= 1e-12 * np.max(np.abs(noisy))
        b = np.random.default_rng(n).standard_normal((n, 3))
        for transpose in (False, True):
            x = chol.solve_lower(f.L, b, transpose=transpose)
            assert np.allclose((L.T if transpose else L) @ x, b, rtol=0.0, atol=1e-10)
        assert chol.solve_lower(f.L, b[:, 0]).shape == (n,)
        assert chol.log_det(f) == pytest.approx(np.linalg.slogdet(noisy)[1], rel=1e-12)

    @pytest.mark.parametrize("spoil", ["asymmetric", "nan-lower", "nan-upper", "inf-diagonal"])
    def test_full_array_gate_raises_as_factor_does(self, spoil):
        a = random_spd(np.random.default_rng(7), 600)
        if spoil == "asymmetric":
            a[598, 10] += 1e-6 * np.max(np.abs(a))
        elif spoil == "nan-lower":
            a[598, 10] = np.nan
        elif spoil == "nan-upper":
            a[10, 598] = np.nan
        else:
            a[599, 599] = np.inf
        error = AsymmetricInputError if spoil == "asymmetric" else NotFactorizableError
        before = a.copy()
        with pytest.raises(error):
            chol.factor(a)
        with pytest.raises(error):
            chol.as_packed(a)
        with pytest.raises(error):
            gp_exact.DenseSystem.from_gram(a, gp_exact.NoiseModel(0.1))
        assert a.tobytes() == before.tobytes()

    def test_non_finite_packed_gram_raises(self):
        _, packed = _packed_gram(9)
        packed.rfp[-1] = np.nan
        with pytest.raises(NotFactorizableError):
            chol.factor(packed)

    def test_failed_level_leaves_no_partial_factor(self):
        # Five distinct points, each repeated: the Gram has rank 5, so the
        # unjittered level fails midway.  The level that succeeds factors the
        # Gram (rebuilt from its kernel and inputs in place) plus its jitter,
        # bit for bit what a fresh Gram with that jitter gives at once.
        _, packed = _packed_gram(300, repeat=60)
        f = chol.factor(packed)
        assert f.jitter_used > 0.0
        assert np.shares_memory(f.L.rfp, packed.rfp)
        _, fresh = _packed_gram(300, repeat=60)
        fresh.fill_diagonal(fresh.diagonal() + f.jitter_used)
        g = chol.factor(fresh)
        assert g.jitter_used == 0.0
        assert g.L.rfp.tobytes() == f.L.rfp.tobytes()

    def test_every_level_failing_leaves_the_packed_gram_unchanged(self):
        _, packed = _packed_gram(8)
        packed.fill_diagonal(np.full(8, -1.0))
        before = packed.rfp.copy()
        with pytest.raises(NotFactorizableError):
            chol.factor(packed)
        assert packed.rfp.tobytes() == before.tobytes()

    def test_packed_factor_is_not_read_as_a_gram(self):
        # A Packed without a source is a factor: every Gram reader refuses
        # it through chol.as_packed before reading it, and so does a Gram
        # that factor has consumed.
        X = np.random.default_rng(3).uniform(0.0, 5.0, size=(50, 1))
        kern = kernels.squared_exponential(1.0, [0.4])
        K = kernels.gram(kern, X, packed=True)
        L = gp_exact.dense_system(X, kern, gp_exact.NoiseModel(10.0)).noisy.L
        assert not L.symmetric
        points = svgp.Points(X[:3])
        readers = [
            chol.factor,
            chol.as_packed,
            lambda G: inducing.greedy_det_init(G, 3),
            lambda G: inducing.init_sampler(G, 3, seed=0),
            lambda G: inducing.kdpp_mcmc(G, 3, steps=10, seed=0),
            lambda G: svgp.lambda_max_gap(G, np.zeros((3, 50)), 50.0, 1.0),
            lambda G: svgp.residual(points, kern, X, G),
            lambda G: gp_exact.DenseSystem.from_gram(G, gp_exact.NoiseModel(10.0)),
        ]
        factor = chol.factor(K)
        for G in (L, factor.L, K):
            before = G.rfp.copy()
            for read in readers:
                with pytest.raises(AsymmetricInputError):
                    read(G)
                assert G.rfp.tobytes() == before.tobytes()


class TestRankOneUpdate:
    def test_zero_vector_is_identity(self):
        f = chol.factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        g = chol.rank_one_update(f, np.zeros(2))
        assert np.array_equal(g.L, f.L)

    def test_unit_vector_on_identity(self):
        g = chol.rank_one_update(chol.factor(np.eye(2)), np.array([1.0, 0.0]))
        assert np.allclose(g.L, np.diag([math.sqrt(2.0), 1.0]), atol=1e-14)

    def test_matches_refactorization(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 5)
        v = rng.standard_normal(5)
        updated = chol.rank_one_update(chol.factor(a), v)
        target = chol.factor(a + np.outer(v, v))
        assert np.max(np.abs(updated.L - target.L)) <= 1e-10


class TestRemoveIndex:
    def test_remove_last_truncates(self):
        rng = np.random.default_rng(1)
        f = chol.factor(random_spd(rng, 4))
        g = chol.remove_index(f, 3)
        assert np.array_equal(g.L, f.L[:3, :3])

    def test_interior_matches_refactorization(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 4)
        g = chol.remove_index(chol.factor(a), 1)
        target = chol.factor(np.delete(np.delete(a, 1, 0), 1, 1))
        assert np.max(np.abs(g.L - target.L)) <= 1e-10

    def test_identity_shrinks(self):
        g = chol.remove_index(chol.factor(np.eye(2)), 0)
        assert np.array_equal(g.L, np.eye(1))

    def test_bad_index(self):
        f = chol.factor(np.eye(3))
        with pytest.raises(IndexOutOfRangeError):
            chol.remove_index(f, 3)
        with pytest.raises(IndexOutOfRangeError):
            chol.remove_index(chol.factor(np.eye(1)), 0)


class TestAppendIndex:
    def test_grow_identity(self):
        f = chol.factor(np.eye(1))
        g = chol.append_index(f, np.zeros(1), 1.0)
        assert np.array_equal(g.L, np.eye(2))

    def test_duplicate_column_rejected(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 3)
        f = chol.factor(a)
        with pytest.raises(NotPositiveDefiniteError):
            chol.append_index(f, a[:, 1], a[1, 1])

    def test_matches_refactorization(self):
        rng = np.random.default_rng(4)
        full = random_spd(rng, 4)
        f = chol.factor(full[:3, :3])
        g = chol.append_index(f, full[:3, 3], full[3, 3])
        target = chol.factor(full)
        assert np.max(np.abs(g.L - target.L)) <= 1e-10

    def test_append_then_remove_roundtrip(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 4)
        f = chol.factor(a)
        g = chol.remove_index(chol.append_index(f, a[:, 2] * 0.5 + 0.01, 7.0), 4)
        assert np.max(np.abs(g.L - f.L)) <= 1e-10


def _layout(L: np.ndarray, order: str) -> np.ndarray:
    if order == "C":
        return np.ascontiguousarray(L)
    if order == "F":
        return np.asfortranarray(L)
    padded = np.zeros((2 * L.shape[0], 2 * L.shape[1]))
    padded[::2, ::2] = L
    return padded[::2, ::2]  # neither C- nor F-contiguous


class TestSolveLower:
    """``solve_lower`` is bit-identical to SciPy's triangular solve."""

    @staticmethod
    def _check(L, b, transpose):
        x = chol.solve_lower(L, b, transpose=transpose)
        ref = solve_triangular(
            L, b, lower=True, trans="T" if transpose else "N", check_finite=False
        )
        assert x.shape == ref.shape
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("m", [1, 3, 10, 25])
    def test_bit_identical_to_scipy(self, m, order, transpose):
        rng = np.random.default_rng(100 + m)
        L = _layout(chol.factor(random_spd(rng, m)).L, order)
        for b in (
            rng.standard_normal(m),
            rng.standard_normal((m, 4)),
            np.asfortranarray(rng.standard_normal((m, 4))),
        ):
            self._check(L, b, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_bit_identical_at_dense_size(self, transpose):
        rng = np.random.default_rng(1000)
        L = chol.factor(random_spd(rng, 1000)).L
        self._check(L, rng.standard_normal((1000, 30)), transpose)

    def test_zero_diagonal_raises_typed_error(self):
        L = np.tril(np.ones((3, 3)))
        L[1, 1] = 0.0
        for layout in (L, np.asfortranarray(L)):
            with pytest.raises(NotPositiveDefiniteError):
                chol.solve_lower(layout, np.ones(3))

    def test_empty_right_hand_side(self):
        for b in (np.zeros(0), np.zeros((0, 3))):
            x = chol.solve_lower(np.zeros((0, 0)), b)
            ref = solve_triangular(np.zeros((0, 0)), b, lower=True, check_finite=False)
            assert x.shape == ref.shape == b.shape and x.dtype == ref.dtype

    def test_shape_mismatch_rejected(self):
        # LAPACK itself would solve the leading 3 rows of a 4-row b and return 0.
        with pytest.raises(DimensionMismatchError):
            chol.solve_lower(np.eye(3), np.ones(4))
        with pytest.raises(DimensionMismatchError):
            chol.solve_lower(np.ones((3, 2)), np.ones(3))


def test_library_has_one_triangular_solve_path():
    # Every module solves through chol.solve_lower; a name or attribute
    # ``solve_triangular`` anywhere in the package is a second path.
    package = Path(chol.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            if "solve_triangular" in names:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


class TestLogDet:
    def test_identity(self):
        assert chol.log_det(chol.factor(np.eye(5))) == 0.0

    def test_diagonal(self):
        f = chol.factor(np.diag([4.0, 9.0]))
        assert abs(chol.log_det(f) - math.log(36.0)) <= 1e-14

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 6)
        expected = math.log(cofactor_det(a))
        assert abs(chol.log_det(chol.factor(a)) - expected) <= 1e-8 * abs(expected)

    def test_conditional_variance_identity(self):
        # Removing index i lowers the log-determinant by log of the
        # conditional variance of coordinate i given the others.
        rng = np.random.default_rng(7)
        a = random_spd(rng, 5)
        f = chol.factor(a)
        for i in range(5):
            cond_var = 1.0 / np.linalg.inv(a)[i, i]
            expected = chol.log_det(f) - math.log(cond_var)
            assert abs(chol.log_det(chol.remove_index(f, i)) - expected) <= 1e-8


class TestEditSequences:
    def test_long_random_sequence_tracks_matrix(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 4)
        f = chol.factor(a)
        worst = 0.0
        for _ in range(400):
            op = rng.integers(3)
            if op == 0:
                v = rng.standard_normal(f.dim) * 0.5
                f = chol.rank_one_update(f, v)
                a = a + np.outer(v, v)
            elif op == 1 and f.dim < 10:
                cross = a @ rng.standard_normal(f.dim) * 0.1
                self_var = float(cross @ np.linalg.solve(a, cross)) + rng.uniform(0.5, 2.0)
                grown = np.zeros((f.dim + 1, f.dim + 1))
                grown[: f.dim, : f.dim] = a
                grown[: f.dim, -1] = cross
                grown[-1, : f.dim] = cross
                grown[-1, -1] = self_var
                a = grown
                f = chol.append_index(f, cross, self_var)
            elif f.dim >= 2:
                i = int(rng.integers(f.dim))
                f = chol.remove_index(f, i)
                a = np.delete(np.delete(a, i, 0), i, 1)
            err = np.max(np.abs(f.reconstruct() - a)) / np.max(np.abs(a))
            worst = max(worst, err)
        assert worst <= 1e-8
