"""Exact integer linear algebra: fraction-free Bareiss elimination over
plain integers, used by the per-mode torus sweep, whose matrices are
integral after a global unit factor is stripped.

The lane works on stacks: `int_ranks` runs one Bareiss elimination
vectorized over many matrices at once, and `int_matmul` forms their
products.  Both run on doubles behind explicit bounds and switch to
Python-int (`object`) arrays when a bound fails, so both are exact: a
double holds every integer below 2**53, and IEEE arithmetic rounds an
exact integer result to itself.  The elimination of one small matrix on
Python ints (a determinant, a rank, an integer kernel) is `g2._eliminate`.
The lane's references in the tests are the field lane of
`tests/reference.py` (Gaussian elimination over the exact scalars) and a
Fraction elimination.
"""

from __future__ import annotations

import numpy as np

# |x|, |y|, |u|, |v| < 2**26 keeps x*y - u*v below 2**53, exact in doubles,
# and the Bareiss quotient, an exact integer, rounds to itself; a product
# bounded by max|A| * max|B| * inner < 2**53 has exact partial sums too
_RANK_BOUND = 2**26
_PRODUCT_BOUND = 2**53


def _max_abs(X: np.ndarray) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    return max(-int(X.min()), int(X.max())) if X.size else 0


def _int_array(X) -> np.ndarray:
    """X as an exact integer array.  numpy reads nested lists holding
    Python ints past 2**63 as uint64 or float64, which would wrap or round,
    so such input becomes a Python-int (`object`) array.  A float, complex
    or Fraction entry raises TypeError rather than pass as an integer."""
    A = np.asarray(X)
    if A.dtype.kind != "i":
        A = np.array(X, dtype=object)
        if bad := [x for x in A.flat if not isinstance(x, (int, np.integer))]:
            raise TypeError(f"the integer kernels take integer entries, not {bad[0]!r}")
    return A


def _python_ints(X: np.ndarray) -> np.ndarray:
    """The integers of X (int64, object, or doubles below 2**53) as Python ints."""
    return (X.astype(np.int64) if X.dtype == float else X).astype(object, order="C")


def int_matmul(A, B) -> np.ndarray:
    """Exact products A[i] @ B[i] of two integer stacks (arrays, or
    sequences of matrices, of shapes (..., m, n) and (..., n, p)).

    Runs in doubles, returned as int64, when max|A| * max|B| * n < 2**53,
    and on Python ints (dtype `object`) otherwise.
    """
    A, B = _int_array(A), _int_array(B)
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    a, b = _max_abs(A), _max_abs(B)
    if a * b * A.shape[-1] < _PRODUCT_BOUND and max(a, b) < _PRODUCT_BOUND:
        return (A.astype(float) @ B.astype(float)).astype(np.int64)
    return _python_ints(A) @ _python_ints(B)


def int_ranks(stack) -> list[int]:
    """Ranks of every matrix of an integer stack of shape (s, m, n), by
    Bareiss fraction-free elimination vectorized over the leading axis.

    Each matrix takes as pivot the first nonzero row of the current
    column.  The elimination step that clears the column also zeroes the
    pivot row beyond it, so the rows still free for later pivots are
    exactly the nonzero ones, and a matrix without a pivot in a column
    (pv = prev, no nonzero entry in it) is left as it is.  The stack runs
    in doubles while every entry is below 2**26 in absolute value, where
    the exact quotient is a true division, and on Python ints (dtype
    `object`), floor-divided, for the rest of the loop once one is not.
    """
    A = _int_array(stack)
    s, m, n = A.shape
    # columns outermost, rows innermost: column c of every matrix is the
    # contiguous (s, m) slice A[c], and the loop runs over the shorter side
    # (rank(A) = rank(A^T))
    A = A.transpose(2, 0, 1) if m >= n else A.transpose(1, 0, 2)
    m, n = max(m, n), min(m, n)
    ranks = np.zeros(s, dtype=np.int64)
    if not (s and m and n):
        return ranks.tolist()
    A = np.array(A, dtype=float, order="C") if _max_abs(A) < _RANK_BOUND else _python_ints(A)
    # every entry after step c is a minor of size at most c + 2, so by
    # Hadamard's bound below R2^((c + 2) / 2), R2 the largest squared norm
    # of a row along the loop axis: no step needs a check while
    # R2^(c + 2) < 2**52.  Summed in doubles, R2 is exact below 2**52 (each
    # partial sum is an integer below it), and 2**52 or more otherwise.
    if A.dtype == float:
        R2 = int(np.einsum("cij,cij->ij", A, A).max())
    work = np.empty_like(A)
    prev = np.ones(s, dtype=A.dtype)
    at = np.arange(s)
    for c in range(n):
        col = A[c]
        p = (col != 0).argmax(axis=1)
        pv = col[at, p]
        has = pv != 0
        if not has.any():
            continue
        ranks += has
        pv = np.where(has, pv, prev)
        rest = A[c + 1 :]
        tmp = work[c + 1 :]
        prow = rest[:, at, p]
        rest *= pv[:, None]
        np.multiply(prow[:, :, None], col, out=tmp)
        rest -= tmp
        (np.true_divide if A.dtype == float else np.floor_divide)(rest, prev[:, None], out=rest)
        prev = pv
        if (
            A.dtype == float
            and R2 ** (c + 2) >= _RANK_BOUND**2
            and _max_abs(rest) >= _RANK_BOUND
        ):
            A, work, prev = _python_ints(A), np.empty(A.shape, object), _python_ints(prev)
    return ranks.tolist()
