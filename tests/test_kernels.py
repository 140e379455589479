"""Kernel evaluation and operator-spectrum tests.

Closed-form spectra are checked against exact (sympy) arithmetic, partial
sums, and the quadrature-based numeric oracle.
"""

import itertools
import math

import numpy as np
import pytest
import sympy

from sparsegp import kernels
from sparsegp.errors import (
    DimensionMismatchError,
    InvalidHyperparameterError,
    QuadratureTooCoarseError,
)


def _cov(kernel, x, x2) -> float:
    """Covariance between two single points, read from a 1 x 1 Gram."""
    return float(kernels.gram(kernel, [x], [x2])[0, 0])


class TestEval:
    def test_stationary_diagonal(self):
        k = kernels.squared_exponential(1.0, [1.0])
        assert _cov(k, [0.3], [0.3]) == 1.0

    def test_se_unit_distance(self):
        k = kernels.squared_exponential(2.0, [1.0])
        assert abs(_cov(k, [0.0], [1.0]) - 2.0 * math.exp(-0.5)) <= 1e-15

    def test_matern_half_unit_distance(self):
        k = kernels.matern_half_integer(0, 1.0, [1.0])
        assert abs(_cov(k, [0.0], [1.0]) - math.exp(-1.0)) <= 1e-15

    def test_matern_32_and_52_profiles(self):
        r = 0.7
        k1 = kernels.matern_half_integer(1, 1.0, [1.0])
        s = math.sqrt(3.0) * r
        assert abs(_cov(k1, [0.0], [r]) - (1 + s) * math.exp(-s)) <= 1e-14
        k2 = kernels.matern_half_integer(2, 1.0, [1.0])
        s = math.sqrt(5.0) * r
        expected = (1 + s + s * s / 3.0) * math.exp(-s)
        assert abs(_cov(k2, [0.0], [r]) - expected) <= 1e-14

    def test_dimension_mismatch(self):
        k = kernels.squared_exponential(1.0, [1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            _cov(k, [0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            _cov(k, [0.0], [0.0])

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidHyperparameterError):
            kernels.squared_exponential(-1.0, [1.0])
        with pytest.raises(InvalidHyperparameterError):
            kernels.squared_exponential(1.0, [0.0])
        with pytest.raises(InvalidHyperparameterError):
            kernels.matern_half_integer(-1, 1.0, [1.0])


class TestGram:
    def test_single_point(self):
        k = kernels.squared_exponential(2.5, [1.0])
        assert np.array_equal(kernels.gram(k, [[0.0]]), [[2.5]])

    def test_symmetric_psd(self):
        # Exact symmetry comes from the construction; gram has no symmetrizing pass.
        rng = np.random.default_rng(0)
        for k in (
            kernels.squared_exponential(1.0, [0.7]),
            kernels.squared_exponential(1.0, [0.7, 1.3, 0.4]),
            kernels.matern_half_integer(0, 1.0, [0.7]),
            kernels.matern_half_integer(2, 1.0, [0.7, 1.3]),
        ):
            X = rng.normal(0, 1, (40, k.dim))
            K = kernels.gram(k, X)
            assert np.array_equal(K, K.T)
            assert np.all(np.diag(K) == 1.0)
            assert np.linalg.eigvalsh(K)[0] >= -1e-10

    def test_se_equals_out_of_place_formula(self):
        # gram computes in place; the arithmetic and its order are unchanged.
        rng = np.random.default_rng(3)
        for ells in ([0.7], [0.7, 1.3, 0.4]):
            k = kernels.squared_exponential(1.7, ells)
            X = rng.normal(0, 1, (60, len(ells)))
            for X2 in (X, rng.normal(0, 1, (25, len(ells)))):
                sq = np.zeros((60, X2.shape[0]))
                for d, ell in enumerate(k.lengthscales):
                    diff = (X[:, d, None] - X2[None, :, d]) / ell
                    sq += diff * diff
                expected = k.variance * np.exp(-0.5 * sq)
                assert np.array_equal(kernels.gram(k, X, X2), expected)

    @pytest.mark.parametrize(
        "kernel",
        [
            kernels.squared_exponential(1.7, [0.7]),
            kernels.squared_exponential(1.7, [0.7, 1.3]),
            kernels.matern_half_integer(0, 1.3, [0.6]),
            kernels.matern_half_integer(1, 1.3, [0.6, 1.1]),
            kernels.matern_half_integer(2, 1.3, [0.6]),
            kernels.matern_half_integer(2, 1.3, [0.6, 1.1]),
        ],
        ids=["se-1d", "se-2d", "matern12", "matern32-2d", "matern52", "matern52-2d"],
    )
    @pytest.mark.parametrize("tile", [None, 80])
    def test_tiled_rows_equal_whole_array_formula(self, kernel, tile, monkeypatch):
        # 1000 rows in tiles of 32, or 37 rows in tiles of 2 (square) and
        # 3 (against 23 columns): each ends in a short tile.
        if tile is not None:
            monkeypatch.setattr(kernels, "_GRAM_TILE", tile)
        rng = np.random.default_rng(4)
        n = 37 if tile else 1000
        X = rng.normal(0, 1, (n, kernel.dim))
        for X2 in (X, rng.normal(0, 1, (23, kernel.dim))):
            diffs = [
                (X[:, d, None] - X2[None, :, d]) / ell for d, ell in enumerate(kernel.lengthscales)
            ]
            if kernel.family == kernels.SQUARED_EXPONENTIAL:
                sq = np.zeros((n, X2.shape[0]))
                for r in diffs:
                    sq += r * r
                expected = kernel.variance * np.exp(-0.5 * sq)
            else:
                k = kernel.matern_order
                coeffs = kernels._matern_poly_coeffs(k)
                expected = np.full((n, X2.shape[0]), kernel.variance)
                for r in diffs:
                    s = math.sqrt(2 * k + 1) * np.abs(r)
                    expected *= np.exp(-s) * np.polynomial.polynomial.polyval(s, coeffs)
            assert np.array_equal(kernels.gram(kernel, X, X2), expected)

    def test_duplicate_rows_rank_deficient(self):
        k = kernels.squared_exponential(1.0, [1.0])
        X = np.array([[0.0], [0.0], [1.0]])
        assert np.linalg.eigvalsh(kernels.gram(k, X))[0] <= 1e-10

    def test_large_random_set_stays_psd(self):
        rng = np.random.default_rng(1)
        k = kernels.squared_exponential(1.0, [0.5, 0.8])
        X = rng.uniform(-2, 2, (500, 2))
        assert np.linalg.eigvalsh(kernels.gram(k, X))[0] >= -1e-10

    def test_cross_gram_matches_product_formula(self):
        # Matern-3/2 in D = 2 is v * prod_d (1 + s_d) exp(-s_d), s_d = sqrt(3) |x_d - x'_d| / ell_d.
        rng = np.random.default_rng(2)
        ells = [0.5, 1.5]
        k = kernels.matern_half_integer(1, 1.3, ells)
        X, X2 = rng.normal(0, 1, (4, 2)), rng.normal(0, 1, (3, 2))
        K = kernels.gram(k, X, X2)
        for i, j in itertools.product(range(4), range(3)):
            expected = 1.3
            for d in range(2):
                s = math.sqrt(3.0) * abs(X[i, d] - X2[j, d]) / ells[d]
                expected *= (1 + s) * math.exp(-s)
            assert abs(K[i, j] - expected) <= 1e-15


def _se_eigenvalues(v, ell, sigma, count):
    st = kernels.se_gaussian_spectrum_tail(v, ell, sigma)
    return np.array([st.eigenvalue(m) for m in range(1, count + 1)])


class TestSEGaussianSpectrum:
    def test_closed_form_against_exact_arithmetic(self):
        # sigma^2 = 1/4, ell^2 = 1/2, v = 1: the formula constants are
        # a=1, b=1, c=sqrt(3), A=2+sqrt(3), B=2-sqrt(3), lam1=sqrt(3)-1.
        s3 = sympy.sqrt(3)
        lam1_exact = float(sympy.sqrt(2 / (2 + s3)))
        b_exact = float(1 / (2 + s3))
        lam = _se_eigenvalues(1.0, math.sqrt(0.5), 0.5, 5)
        assert abs(lam[0] - lam1_exact) <= 1e-14
        assert abs(lam[0] - (math.sqrt(3) - 1.0)) <= 1e-14
        for m in range(4):
            assert abs(lam[m + 1] / lam[m] - b_exact) <= 1e-14

    def test_geometric_ratio_any_parameters(self):
        lam = _se_eigenvalues(2.0, 0.3, 1.7, 4)
        k = kernels.se_gaussian_constants(0.3, 1.7)
        assert abs(lam[1] / lam[0] - k.B) <= 1e-14

    def test_wide_inputs_slow_decay(self):
        b_narrow = kernels.se_gaussian_constants(1.0, 1.0).B
        b_wide = kernels.se_gaussian_constants(1.0, 50.0).B
        assert b_narrow < b_wide < 1.0

    def test_invalid(self):
        with pytest.raises(InvalidHyperparameterError):
            kernels.se_gaussian_spectrum_tail(0.0, 1.0, 1.0)


class TestSEGaussianTail:
    def test_tail_zero_is_full_series(self):
        st = kernels.se_gaussian_spectrum_tail(1.0, math.sqrt(0.5), 0.5)
        B = kernels.se_gaussian_constants(math.sqrt(0.5), 0.5).B
        assert abs(st.tail(0) - st.eigenvalue(1) / (1 - B)) <= 1e-14

    def test_partial_sum_oracle(self):
        # Tail at M=5 equals the sum over m in (5, 200] plus the geometric
        # remainder beyond 200, summed term by term.
        v, ell, sigma = 1.0, math.sqrt(0.5), 0.5
        lam = _se_eigenvalues(v, ell, sigma, 200)
        B = kernels.se_gaussian_constants(ell, sigma).B
        oracle = float(np.sum(lam[5:])) + lam[-1] * B / (1 - B)
        tail = kernels.se_gaussian_spectrum_tail(v, ell, sigma).tail(5)
        assert abs(tail - oracle) <= 1e-10 * oracle
        assert abs(tail - 1.3812181046456524e-3) <= 1e-12

    def test_telescoping(self):
        v, ell, sigma = 1.3, 0.6, 1.1
        st = kernels.se_gaussian_spectrum_tail(v, ell, sigma)
        for m in range(25):
            lhs = st.tail(m) - st.tail(m + 1)
            assert abs(lhs - st.eigenvalue(m + 1)) <= 1e-12 * st.eigenvalue(m + 1)

    def test_tail_dominates_partial_sums(self):
        v, ell, sigma = 1.0, 0.8, 1.0
        lam = _se_eigenvalues(v, ell, sigma, 60)
        tail = kernels.se_gaussian_spectrum_tail(v, ell, sigma).tail(10)
        for p in (1, 5, 20, 40):
            assert tail >= np.sum(lam[10 : 10 + p])


class TestARDSpectrum:
    def test_one_dimension_degenerates(self):
        lam1d = _se_eigenvalues(1.7, 0.9, 1.2, 8)
        ard = kernels.se_ard_gaussian_spectrum([0.9], [1.2], 1.7, 8)
        assert np.allclose(ard, lam1d, rtol=1e-14)

    def test_isotropic_symmetry_and_known_ratios(self):
        # ell^2 = sigma^2 / 2 gives B = 1/2 per dimension, so the leading
        # products scale as 1, 1/2, 1/2, 1/4, ...
        ell = math.sqrt(0.5)
        ard = kernels.se_ard_gaussian_spectrum([ell, ell], [1.0, 1.0], 1.0, 4)
        ratios = ard / ard[0]
        assert np.allclose(ratios, [1.0, 0.5, 0.5, 0.25], rtol=1e-12)

    def test_enumeration_oracle(self):
        ells, sigmas = [0.7, 1.1], [1.0, 0.8]
        consts = [kernels.se_gaussian_constants(l, s) for l, s in zip(ells, sigmas)]
        per_dim = [
            math.sqrt(2 * k.a / k.A) * k.B ** np.arange(7) for k in consts
        ]
        products = sorted(
            (a * b for a, b in itertools.product(*per_dim)), reverse=True
        )
        ard = kernels.se_ard_gaussian_spectrum(ells, sigmas, 1.0, 12)
        assert np.allclose(ard, products[:12], rtol=1e-12)


def _calibrate_matern_tail_constant(order, ell, interval, m_range, quadrature_size=512):
    """Smallest c0 making ``matern_spectrum_tail``'s tail dominate the numeric tail on m_range.

    The oracle that produced the ``DEFAULT_MATERN_TAIL_C0`` entries.
    """
    kernel = kernels.matern_half_integer(order, 1.0, [ell])
    density = kernels.UniformDensity([interval[0]], [interval[1]])
    m_max = max(m_range)
    lam = kernels.nystrom_spectrum(
        kernel, density, min(quadrature_size, 8 * m_max), quadrature_size
    ).eigenvalues
    return max(float(np.sum(lam[m:])) * float(m) ** (2 * order + 1) for m in m_range)


class TestMaternTail:
    def test_direct_power(self):
        assert abs(kernels.matern_spectrum_tail(1, 1.0).tail(10) - 1e-3) <= 1e-18

    def test_doubling_m(self):
        for k in (0, 1, 2):
            st = kernels.matern_spectrum_tail(k, 0.3)
            b1 = st.tail(7)
            b2 = st.tail(14)
            assert abs(b1 / b2 - 2.0 ** (2 * k + 1)) <= 1e-12

    def test_calibrated_constant_dominates_numeric_tail(self):
        c0 = _calibrate_matern_tail_constant(1, 0.5, (0.0, 1.0), range(5, 51))
        kern = kernels.matern_half_integer(1, 1.0, [0.5])
        spec = kernels.nystrom_spectrum(kern, kernels.UniformDensity([0.0], [1.0]), 400, 512)
        bound = kernels.matern_spectrum_tail(1, c0)
        for m in range(5, 51):
            numeric = float(np.sum(spec.eigenvalues[m:]))
            assert bound.tail(m) >= numeric * (1 - 1e-12)
        # and the stored default covers the fresh calibration
        assert kernels.DEFAULT_MATERN_TAIL_C0[(1, 0.5, (0.0, 1.0))] >= c0 * 0.999


class TestSpectrumTailValues:
    def test_exact_variant_consistency(self):
        st = kernels.se_gaussian_spectrum_tail(1.0, 0.6, 1.0)
        assert st.validity == kernels.EXACT
        for m in range(1, 20):
            assert st.tail(m - 1) - st.tail(m) == pytest.approx(st.eigenvalue(m), rel=1e-12)
        tails = [st.tail(m) for m in range(30)]
        assert all(a > b > 0 for a, b in zip(tails, tails[1:]))

    def test_matern_variant_flagged_asymptotic(self):
        st = kernels.matern_spectrum_tail(1, 0.85)
        assert st.validity == kernels.ASYMPTOTIC_BOUND
        assert st.tail(10) == pytest.approx(0.85e-3)


class TestSpectrumTailTable:
    def test_se_gaussian_one_dimension_is_exact(self):
        kern = kernels.squared_exponential(1.3, [0.6])
        st = kernels.spectrum_tail(kern, kernels.GaussianDensity([0.5], [1.1]))
        assert st.validity == kernels.EXACT
        ref = kernels.se_gaussian_spectrum_tail(1.3, 0.6, 1.1)
        for m in range(1, 10):
            assert st.eigenvalue(m) == ref.eigenvalue(m)
            assert st.tail(m) == ref.tail(m)

    def test_matern_tail_scales_with_variance(self):
        dens = kernels.UniformDensity([0.0], [1.0])
        unit = kernels.spectrum_tail(kernels.matern_half_integer(1, 1.0, [0.5]), dens)
        four = kernels.spectrum_tail(kernels.matern_half_integer(1, 4.0, [0.5]), dens)
        assert unit.validity == four.validity == kernels.ASYMPTOTIC_BOUND
        assert unit.tail(10) == pytest.approx(0.85e-3)
        for m in (1, 5, 10, 40):
            assert four.tail(m) == pytest.approx(4.0 * unit.tail(m), rel=1e-15)
            assert four.eigenvalue(m) == pytest.approx(4.0 * unit.eigenvalue(m), rel=1e-15)

    def test_matern_in_two_dimensions_has_no_tail(self):
        kern = kernels.matern_half_integer(1, 1.0, [0.5, 0.5])
        dens = kernels.UniformDensity([0.0, 0.0], [1.0, 1.0])
        assert kernels.spectrum_tail(kern, dens) is None

    def test_uncalibrated_matern_has_no_tail(self):
        dens = kernels.UniformDensity([0.0], [1.0])
        assert kernels.spectrum_tail(kernels.matern_half_integer(1, 1.0, [0.3]), dens) is None
        assert kernels.spectrum_tail(kernels.matern_half_integer(2, 1.0, [0.5]), dens) is None

    def test_se_with_uniform_density_has_no_tail(self):
        kern = kernels.squared_exponential(1.0, [0.6])
        assert kernels.spectrum_tail(kern, kernels.UniformDensity([0.0], [1.0])) is None

    def test_se_in_two_dimensions_has_no_tail(self):
        kern = kernels.squared_exponential(1.0, [0.6, 0.6])
        dens = kernels.GaussianDensity([0.0, 0.0], [1.0, 1.0])
        assert kernels.spectrum_tail(kern, dens) is None


class TestNystromSpectrum:
    def test_matches_closed_form_se_gaussian(self):
        kern = kernels.squared_exponential(1.0, [0.6])
        spec = kernels.nystrom_spectrum(kern, kernels.GaussianDensity([0.0], [1.0]), 10, 2048)
        closed = _se_eigenvalues(1.0, 0.6, 1.0, 10)
        assert np.max(np.abs(spec.eigenvalues / closed - 1.0)) <= 0.01

    def test_trace_identity(self):
        kern = kernels.matern_half_integer(1, 1.7, [0.4])
        spec = kernels.nystrom_spectrum(kern, kernels.UniformDensity([0.0], [1.0]), 256, 256)
        assert abs(np.sum(spec.eigenvalues) - 1.7) <= 0.017

    def test_near_constant_kernel_is_rank_one(self):
        kern = kernels.squared_exponential(2.0, [1e6])
        spec = kernels.nystrom_spectrum(kern, kernels.UniformDensity([0.0], [1.0]), 8, 128)
        assert abs(spec.eigenvalues[0] - 2.0) <= 1e-6
        assert np.all(spec.eigenvalues[1:] <= 1e-9)

    def test_orthonormality_under_quadrature(self):
        kern = kernels.squared_exponential(1.0, [0.5])
        spec = kernels.nystrom_spectrum(kern, kernels.GaussianDensity([0.0], [1.0]), 12, 512)
        phi = spec.eigenfunctions(spec.nodes)
        gram = (phi * spec.weights[:, None]).T @ phi
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-6

    def test_mercer_partial_sums_below_diagonal(self):
        kern = kernels.squared_exponential(1.3, [0.5])
        spec = kernels.nystrom_spectrum(kern, kernels.GaussianDensity([0.0], [1.0]), 16, 512)
        x = np.linspace(-2.5, 2.5, 41)[:, None]
        partial = spec.eigenfunctions(x) ** 2 @ spec.eigenvalues
        assert np.all(partial <= 1.3 * (1 + 1e-3))

    def test_too_few_nodes_rejected(self):
        kern = kernels.squared_exponential(1.0, [0.5])
        with pytest.raises(QuadratureTooCoarseError):
            kernels.nystrom_spectrum(kern, kernels.GaussianDensity([0.0], [1.0]), 64, 32)

    def test_empirical_density_matches_gram_spectrum(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (40, 1))
        kern = kernels.squared_exponential(1.0, [0.7])
        spec = kernels.nystrom_spectrum(kern, kernels.EmpiricalDensity(X), 5, 64)
        w = np.linalg.eigvalsh(kernels.gram(kern, X))[::-1]
        assert np.allclose(spec.eigenvalues, w[:5] / 40, rtol=1e-10)

    def test_two_dimensional_tensor_grid(self):
        kern = kernels.squared_exponential(1.0, [0.8, 0.8])
        dens = kernels.GaussianDensity([0.0, 0.0], [1.0, 1.0])
        spec = kernels.nystrom_spectrum(kern, dens, 6, 1024)
        ard = kernels.se_ard_gaussian_spectrum([0.8, 0.8], [1.0, 1.0], 1.0, 6)
        assert np.max(np.abs(spec.eigenvalues / ard - 1.0)) <= 0.02
