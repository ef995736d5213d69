"""Exact linear algebra kernels.

Two lanes: generic Gaussian elimination over the exact scalars (ints and
Gaussian rationals; used by structure algebra and for kernel bases), and fraction-free Bareiss
elimination over plain integers (used by the per-mode torus sweep, whose
matrices are integral after a global unit factor is stripped).

The integer lane works on stacks: `int_ranks` runs one Bareiss elimination
vectorized over many matrices at once, and `int_matmul` forms their
products.  Both run on doubles behind explicit bounds and switch to
Python-int (`object`) arrays when a bound fails, so both are exact: a
double holds every integer below 2**53, and IEEE arithmetic rounds an
exact integer result to itself.  Its reference in the tests is the field
lane here and a Fraction elimination.
"""

from __future__ import annotations

import numpy as np

from .scalars import ONE

# |x|, |y|, |u|, |v| < 2**26 keeps x*y - u*v below 2**53, exact in doubles,
# and the Bareiss quotient, an exact integer, rounds to itself; a product
# bounded by max|A| * max|B| * inner < 2**53 has exact partial sums too
_RANK_BOUND = 2**26
_PRODUCT_BOUND = 2**53

Matrix = list  # list of rows; rows are lists of entries


def identity(n: int, one, zero) -> Matrix:
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = one
    return out


def shape(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def matmul(A: Matrix, B: Matrix, zero) -> Matrix:
    ma, na = shape(A)
    mb, nb = shape(B)
    if na != mb:
        raise ValueError(f"shape mismatch {ma}x{na} @ {mb}x{nb}")
    out = []
    for i in range(ma):
        row_a = A[i]
        row = []
        for j in range(nb):
            acc = zero
            for k in range(na):
                a = row_a[k]
                if a:
                    acc = acc + a * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def transpose(M: Matrix) -> Matrix:
    m, n = shape(M)
    return [[M[i][j] for i in range(m)] for j in range(n)]


def conjugate_transpose(M: Matrix) -> Matrix:
    m, n = shape(M)
    return [[M[i][j].conjugate() for i in range(m)] for j in range(n)]


# ---------------------------------------------------------------------------
# field lane (exact scalar entries: ints and Gaussian rationals)
# ---------------------------------------------------------------------------


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the Gaussian rationals.

    Returns (R, pivot_columns); exact: each pivot row is multiplied by the
    Gaussian-rational reciprocal of its pivot, so no int / int can make a
    float.
    """
    rows = [list(r) for r in M]
    m, n = shape(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(M: Matrix) -> int:
    if not M or not M[0]:
        return 0
    return len(rref(M)[1])


def nullspace(M: Matrix) -> list[list]:
    """Basis of the right kernel, exact."""
    m, n = shape(M)
    if n == 0:
        return []
    if m == 0:
        return identity(n, 1, 0)
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            val = R[r][fc]
            if val:
                vec[pc] = -val
        basis.append(vec)
    return basis


def invert(M: Matrix) -> Matrix:
    """Exact inverse of a small square matrix."""
    m, n = shape(M)
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(M[i]) + row for i, row in enumerate(identity(n, 1, 0))]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def columns_from_vectors(vectors: list[list]) -> Matrix:
    """Stack kernel-style vectors as the columns of a matrix."""
    if not vectors:
        return []
    n = len(vectors[0])
    return [[v[i] for v in vectors] for i in range(n)]


# ---------------------------------------------------------------------------
# integer lane (fraction-free Bareiss)
# ---------------------------------------------------------------------------


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
        if A.dtype == float and _max_abs(rest) >= _RANK_BOUND:
            A, work, prev = _python_ints(A), np.empty(A.shape, object), _python_ints(prev)
    return ranks.tolist()
