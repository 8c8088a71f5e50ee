"""Unit tests for GF(2^8) matrix algebra and code-matrix builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodingError
from repro.gf import (
    cauchy,
    identity,
    inverse,
    is_mds,
    matmul,
    matvec_data,
    rank,
    rs_generator_cauchy,
    solve,
)


def random_invertible(rng, n):
    while True:
        m = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
        try:
            inverse(m)
            return m
        except CodingError:
            continue


class TestMatmul:
    def test_identity_neutral(self):
        rng = np.random.default_rng(7)
        m = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        assert np.array_equal(matmul(identity(4), m), m)
        assert np.array_equal(matmul(m, identity(4)), m)

    def test_shape_mismatch_raises(self):
        with pytest.raises(CodingError):
            matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        b = rng.integers(0, 256, size=(4, 2), dtype=np.uint8)
        c = rng.integers(0, 256, size=(2, 5), dtype=np.uint8)
        assert np.array_equal(matmul(matmul(a, b), c), matmul(a, matmul(b, c)))


class TestInverse:
    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        m = random_invertible(rng, 5)
        assert np.array_equal(matmul(m, inverse(m)), identity(5))

    def test_singular_raises(self):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(CodingError):
            inverse(m)

    def test_non_square_raises(self):
        with pytest.raises(CodingError):
            inverse(np.zeros((2, 3), dtype=np.uint8))


class TestSolve:
    def test_solve_vector(self):
        rng = np.random.default_rng(11)
        a = random_invertible(rng, 4)
        x = rng.integers(0, 256, size=4, dtype=np.uint8)
        b = matmul(a, x[:, None])[:, 0]
        assert np.array_equal(solve(a, b), x)

    def test_solve_matrix_rhs(self):
        rng = np.random.default_rng(13)
        a = random_invertible(rng, 3)
        x = rng.integers(0, 256, size=(3, 2), dtype=np.uint8)
        b = matmul(a, x)
        assert np.array_equal(solve(a, b), x)


class TestRank:
    def test_full_rank_identity(self):
        assert rank(identity(6)) == 6

    def test_dependent_rows(self):
        m = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.uint8)
        # Row 2 = 2 * row 1 over GF(2^8).
        from repro.gf import gf_mul

        assert all(gf_mul(int(m[0, j]), 2) == m[1, j] for j in range(3))
        assert rank(m) == 2

    def test_wide_matrix(self):
        m = np.hstack([identity(3), np.ones((3, 2), dtype=np.uint8)])
        assert rank(m) == 3


class TestCodeMatrices:
    def test_cauchy_entries_nonzero(self):
        c = cauchy(6, 3)
        assert c.shape == (3, 6)
        assert np.all(c != 0)

    def test_cauchy_field_limit(self):
        with pytest.raises(CodingError):
            cauchy(200, 60)

    @pytest.mark.parametrize("k,m", [(2, 2), (4, 2), (4, 3), (6, 3)])
    def test_cauchy_generator_is_mds(self, k, m):
        assert is_mds(rs_generator_cauchy(k, m), k)

    def test_generators_systematic(self):
        assert np.array_equal(rs_generator_cauchy(5, 3)[:5], identity(5))


class TestMatvecData:
    def test_applies_coefficients(self):
        rows = [np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)]
        matrix = np.array([[3, 5]], dtype=np.uint8)
        out = matvec_data(matrix, rows)
        assert np.array_equal(out[0], np.array([3, 5], dtype=np.uint8))

    def test_column_mismatch_raises(self):
        with pytest.raises(CodingError):
            matvec_data(np.zeros((1, 3), dtype=np.uint8), [np.zeros(2, dtype=np.uint8)])
