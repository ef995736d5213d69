"""Cross-validation of the exact elimination lanes: the field lane, the
stacked integer lane and a Fraction reference."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fncalc import linalg
from fncalc.scalars import GaussianRational


def reference_rank(M):
    rows = [[Fraction(x) for x in r] for r in M]
    m, n = len(rows), len(rows[0]) if rows else 0
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def test_bareiss_rank_matches_field_elimination():
    rng = random.Random(3)
    for _ in range(250):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        M = [
            [rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.4 and m >= 2:
            M[rng.randrange(m)] = [3 * x for x in M[rng.randrange(m)]]
        assert linalg.int_ranks([M]) == [reference_rank(M)]


def test_integer_nullspace_annihilates():
    # the field-lane kernel of an integer matrix, sized by the Bareiss rank
    rng = random.Random(17)
    for _ in range(120):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        basis = linalg.nullspace([[GaussianRational(x) for x in row] for row in M])
        assert len(basis) == n - linalg.int_ranks([M])[0]
        for v in basis:
            assert any(v)
            for row in M:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_field_nullspace_with_complex_entries():
    rng = random.Random(5)
    zero = GaussianRational(0)
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [
            [GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(m)
        ]
        basis = linalg.nullspace(M)
        assert len(basis) == n - linalg.rank(M)
        for v in basis:
            for row in M:
                acc = zero
                for a, b in zip(row, v):
                    acc = acc + a * b
                assert not acc


def test_exact_inverse_round_trip():
    rng = random.Random(11)
    one, zero = GaussianRational(1), GaussianRational(0)
    for _ in range(30):
        n = rng.randint(1, 5)
        while True:
            M = [
                [GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
                for _ in range(n)
            ]
            if linalg.rank(M) == n:
                break
        P = linalg.matmul(M, linalg.invert(M), zero)
        assert all(
            P[i][j] == (one if i == j else zero) for i in range(n) for j in range(n)
        )


def test_empty_shapes():
    assert linalg.rank([]) == 0
    assert linalg.nullspace([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.nullspace([[], []]) == []


# -- stacked kernels against the Fraction reference ---------------------------


def py_matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@st.composite
def int_stacks(draw, entries=st.integers(-4, 4)):
    """Up to 6 matrices of one shape, at most 8x8."""
    s, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    flat = draw(st.lists(entries, min_size=s * m * n, max_size=s * m * n))
    return [[flat[(i * m + r) * n : (i * m + r + 1) * n] for r in range(m)] for i in range(s)]


@st.composite
def deficient_stacks(draw):
    """Products U V with an inner dimension below both sides: rank-deficient."""
    s, m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8)), draw(st.integers(2, 8))
    r = draw(st.integers(1, min(m, n) - 1))
    entries = st.integers(-3, 3)
    stack = []
    for _ in range(s):
        U = [draw(st.lists(entries, min_size=r, max_size=r)) for _ in range(m)]
        V = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(r)]
        stack.append(py_matmul(U, V))
    return stack


def ranks_with_guard_record(stack):
    """int_ranks of the stack, and every |entry| bound its guard read."""
    seen = []
    original = linalg._max_abs

    def spy(X):
        seen.append(original(X))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_max_abs", spy)
        ranks = linalg.int_ranks(np.array(stack))
    return ranks, seen


@settings(max_examples=150, deadline=None)
@given(st.one_of(int_stacks(), deficient_stacks()))
def test_stacked_ranks_match_bareiss(stack):
    assert linalg.int_ranks(np.array(stack)) == [reference_rank(M) for M in stack]


@settings(max_examples=60, deadline=None)
@given(int_stacks(st.integers(-4, 4).map(lambda x: x * 2**40 + x)))
def test_stacked_ranks_near_2_40_take_the_object_lane(stack):
    ranks, seen = ranks_with_guard_record(stack)
    assert ranks == [reference_rank(M) for M in stack]
    if any(any(row) for M in stack for row in M):
        assert seen[0] >= linalg._RANK_BOUND  # the first check moves to Python ints


def test_stacked_ranks_leave_int64_mid_elimination():
    # entries start below 2**31; the first step makes 2**40 - 1
    stack = [[[2**20, 1, 0], [1, 2**20, 1], [0, 1, 2**20]], [[2**20, 2**20, 1]] * 3]
    ranks, seen = ranks_with_guard_record(stack)
    assert ranks == [reference_rank(M) for M in stack] == [3, 1]
    assert seen[0] < linalg._RANK_BOUND <= max(seen)


@pytest.mark.parametrize("big", [2**63, 2**64])
def test_integer_kernels_read_nested_lists_past_int64_exactly(big):
    # numpy reads [[big, big + 1], ...] as float64 or uint64 unless the
    # kernels ask for Python ints; det M = -1
    M = [[big, big + 1], [1, 1]]
    assert linalg.int_ranks([M]) == [reference_rank(M)] == [2]
    assert linalg.int_matmul([M], [[[1], [-1]]]).tolist() == [py_matmul(M, [[1], [-1]])]


def test_stacked_ranks_of_empty_shapes():
    assert linalg.int_ranks(np.zeros((3, 0, 4), dtype=np.int64)) == [0, 0, 0]
    assert linalg.int_ranks(np.zeros((0, 5, 4), dtype=np.int64)) == []
    assert linalg.int_ranks(np.zeros((2, 4, 5), dtype=np.int64)) == [0, 0]


@settings(max_examples=100, deadline=None)
@given(int_stacks(st.integers(-(2**40), 2**40)), st.integers(1, 8), st.data())
def test_stacked_products_match_python_ints(stack, p, data):
    n = len(stack[0][0])
    right = data.draw(
        st.lists(
            st.lists(st.lists(st.integers(-(2**40), 2**40), min_size=p, max_size=p), min_size=n, max_size=n),
            min_size=len(stack),
            max_size=len(stack),
        )
    )
    P = linalg.int_matmul(stack, right)
    assert P.tolist() == [py_matmul(A, B) for A, B in zip(stack, right)]


@pytest.mark.parametrize(
    "a, b, dtype",
    [
        (2**31, 2**30, object),  # max|A| max|B| inner = 2**62: the guard moves to Python ints
        (2**31 - 1, 2**30, np.int64),  # just below the bound
        (2**40, 2**40, object),  # far past it, where int64 would wrap
    ],
)
def test_int_matmul_guard_boundary(a, b, dtype):
    A = [[a, -a], [a, a]]
    B = [[b, b], [b, -b]]
    P = linalg.int_matmul([A], [B])
    assert P.dtype == dtype
    assert P[0].tolist() == py_matmul(A, B)
