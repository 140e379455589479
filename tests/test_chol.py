"""Tests for the incremental Cholesky kit.

Every edit operation is checked against the obvious oracle: refactorize the
edited matrix from scratch and compare.
"""

import math

import numpy as np
import pytest

from sparsegp import chol
from sparsegp.errors import (
    AsymmetricInputError,
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
