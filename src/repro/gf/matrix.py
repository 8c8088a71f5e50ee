"""Matrix algebra over GF(2^8): multiply, invert, solve, code matrices."""

from __future__ import annotations

import numpy as np

from repro.errors import CodingError
from repro.gf.field import gf_inv
from repro.gf.tables import MUL_TABLE


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(2^8) matrices (uint8 in, uint8 out).

    Implemented row-by-row with the 64 KiB multiplication table and
    XOR-reduction; fast enough for the small (k x k) matrices used in
    erasure coding.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise CodingError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        # products[j, :] = a[i, j] * b[j, :]
        products = MUL_TABLE[a[i][:, None], b]
        out[i] = np.bitwise_xor.reduce(products, axis=0)
    return out


def matvec_data(matrix: np.ndarray, rows: list[np.ndarray]) -> list[np.ndarray]:
    """Apply a coefficient matrix to a list of equal-length data buffers.

    Returns ``len(matrix)`` new buffers where output ``i`` is
    ``xor_j matrix[i, j] * rows[j]`` over GF(2^8).
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.shape[1] != len(rows):
        raise CodingError(
            f"matrix has {matrix.shape[1]} columns but {len(rows)} buffers given"
        )
    outputs: list[np.ndarray] = []
    for i in range(matrix.shape[0]):
        acc = np.zeros_like(rows[0])
        for j, row in enumerate(rows):
            coeff = int(matrix[i, j])
            if coeff == 0:
                continue
            if coeff == 1:
                np.bitwise_xor(acc, row, out=acc)
            else:
                np.bitwise_xor(acc, MUL_TABLE[coeff][row], out=acc)
        outputs.append(acc)
    return outputs


def identity(n: int) -> np.ndarray:
    """The n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(2^8) matrix via Gauss-Jordan elimination."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise CodingError(f"cannot invert non-square matrix of shape {matrix.shape}")
    work = matrix.astype(np.int32)
    inv = np.eye(n, dtype=np.int32)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r, col] != 0), None)
        if pivot_row is None:
            raise CodingError("matrix is singular over GF(2^8)")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        pivot_inv = gf_inv(int(work[col, col]))
        work[col] = MUL_TABLE[pivot_inv][work[col]]
        inv[col] = MUL_TABLE[pivot_inv][inv[col]]
        for row in range(n):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            work[row] ^= MUL_TABLE[factor][work[col]]
            inv[row] ^= MUL_TABLE[factor][inv[col]]
    return inv.astype(np.uint8)


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over GF(2^8) (rhs may be a matrix)."""
    rhs = np.asarray(rhs, dtype=np.uint8)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    x = matmul(inverse(matrix), rhs)
    return x[:, 0] if squeeze else x


def rank(matrix: np.ndarray) -> int:
    """Rank of a GF(2^8) matrix via Gaussian elimination."""
    work = np.asarray(matrix, dtype=np.uint8).astype(np.int32).copy()
    rows, cols = work.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i, col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[[r, pivot_row]] = work[[pivot_row, r]]
        pivot_inv = gf_inv(int(work[r, col]))
        work[r] = MUL_TABLE[pivot_inv][work[r]]
        for i in range(rows):
            if i != r and work[i, col] != 0:
                work[i] ^= MUL_TABLE[int(work[i, col])][work[r]]
        r += 1
    return r


def cauchy(k: int, m: int) -> np.ndarray:
    """An ``m x k`` Cauchy matrix: entry (i, j) = 1 / (x_i + y_j).

    Uses x_i = k + i and y_j = j, which are disjoint for k + m <= 256.
    Every square submatrix of a Cauchy matrix is invertible, which makes
    the stacked (identity over Cauchy) generator matrix MDS.
    """
    if k + m > 256:
        raise CodingError(f"k + m = {k + m} exceeds GF(2^8) field size")
    out = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            out[i, j] = gf_inv((k + i) ^ j)
    return out


def rs_generator_cauchy(k: int, m: int) -> np.ndarray:
    """Systematic ``(k+m) x k`` RS generator matrix built from a Cauchy matrix."""
    return np.vstack([identity(k), cauchy(k, m)])


def is_mds(generator: np.ndarray, k: int) -> bool:
    """Check the MDS property: every k x k row-submatrix is invertible.

    Exhaustive over all row subsets; intended for tests with small k+m.
    """
    from itertools import combinations

    n = generator.shape[0]
    for subset in combinations(range(n), k):
        if rank(generator[list(subset)]) != k:
            return False
    return True
