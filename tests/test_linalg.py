"""Cross-validation of the exact elimination lanes: the field lane of the
test-side `reference`, the stacked integer lane and a Fraction reference."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
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
        basis = reference.nullspace([[GaussianRational(x) for x in row] for row in M])
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
        basis = reference.nullspace(M)
        assert len(basis) == n - reference.rank(M)
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
            if reference.rank(M) == n:
                break
        P = reference.matmul(M, reference.invert(M), zero)
        assert all(
            P[i][j] == (one if i == j else zero) for i in range(n) for j in range(n)
        )


def is_canonical(x) -> bool:
    """x is an exact scalar in canonical form: an int exactly when it is a
    real integer, never a float."""
    if type(x) is int:
        return True
    return type(x) is GaussianRational and not (x.imag == 0 and x.real.denominator == 1)


@pytest.mark.parametrize(
    "M, inverse",
    [
        ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
        ([[2, 1], [4, 4]], [[1, Fraction(-1, 4)], [-1, Fraction(1, 2)]]),
        ([[3, 0, 1], [1, 2, 0], [0, 1, 5]], None),
    ],
)
def test_int_matrices_with_non_unit_pivots_stay_exact(M, inverse):
    # int / int would be a float: each lane must return exact entries only
    n = len(M)
    R, pivots = reference.rref(M)
    assert pivots == list(range(n)) and reference.rank(M) == n
    assert all(is_canonical(x) for row in R for x in row)
    assert R == [[int(i == j) for j in range(n)] for i in range(n)]
    inv = reference.invert(M)
    assert all(is_canonical(x) for row in inv for x in row)
    if inverse is not None:
        assert inv == inverse
    assert reference.matmul(M, inv, 0) == [[int(i == j) for j in range(n)] for i in range(n)]
    # a wide int matrix, whose kernel is spanned by (-7 M^-1 1, 1)
    wide = [row + [7] for row in M]
    (v,) = reference.nullspace(wide)
    assert all(is_canonical(x) for x in v)
    assert v == [-7 * sum(row) for row in inv] + [1]
    assert py_matmul(wide, [[x] for x in v]) == [[0]] * n
    R, _ = reference.rref(wide)
    assert all(is_canonical(x) for row in R for x in row)


def test_empty_shapes():
    assert reference.rank([]) == 0
    assert reference.nullspace([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert reference.nullspace([[], []]) == []


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


def fallback_record(monkeypatch):
    """The dtype kind of every array the kernels move to Python ints."""
    kinds = []
    original = linalg._python_ints

    def spy(X):
        kinds.append(X.dtype.kind)
        return original(X)

    monkeypatch.setattr(linalg, "_python_ints", spy)
    return kinds


def test_stacked_ranks_leave_doubles_mid_elimination(monkeypatch):
    # entries start below 2**26; the first step makes 2**28 - 1, so the
    # stack and its previous pivots move from doubles to Python ints
    stack = [[[2**14, 1, 0], [1, 2**14, 1], [0, 1, 2**14]], [[2**14, 2**14, 1]] * 3]
    kinds = fallback_record(monkeypatch)
    ranks, seen = ranks_with_guard_record(stack)
    assert ranks == [reference_rank(M) for M in stack] == [3, 1]
    assert seen[0] < linalg._RANK_BOUND <= max(seen)
    assert kinds == ["f", "f"]


def test_small_entries_skip_the_step_checks():
    # after step c every entry is a minor of size <= c + 2, below
    # R2^((c + 2) / 2) by Hadamard, R2 the largest squared row norm: for
    # 0/+-1 entries on 6 columns R2 <= 6 and 6^7 < 2**52, so the guard reads
    # the input once and no step
    rng = random.Random(5)
    stack = [[[rng.choice((-1, 0, 1)) for _ in range(6)] for _ in range(9)] for _ in range(4)]
    ranks, seen = ranks_with_guard_record(stack)
    assert ranks == [reference_rank(M) for M in stack]
    assert len(seen) == 1


def test_ranks_at_the_double_bound(monkeypatch):
    # entries just below 2**26 stay in doubles: the step's products come
    # within 2**28 of 2**52 and their difference is det M = -1, still exact;
    # an entry of 2**26 moves the int64 input to Python ints before any step
    a = 2**26 - 1
    kinds = fallback_record(monkeypatch)
    M = [[a, a - 1], [a - 1, a - 2]]
    assert linalg.int_ranks([M]) == [reference_rank(M)] == [2]
    assert kinds == []
    M = [[a + 1, a + 2], [a, a + 1]]
    assert linalg.int_ranks([M]) == [reference_rank(M)] == [2]
    assert kinds == ["i"]


def test_the_double_bound_carries_the_exactness(monkeypatch):
    # det M = 1, but in doubles 2**60 - 1 rounds to 2**60 and the step
    # cancels the second pivot, so a raised bound gives a wrong rank
    M = [[2**30, 2**30 + 1], [2**30 - 1, 2**30]]
    assert linalg.int_ranks([M]) == [reference_rank(M)] == [2]
    monkeypatch.setattr(linalg, "_RANK_BOUND", 2**62)
    assert linalg.int_ranks([M]) == [1]


@settings(max_examples=100, deadline=None)
@given(int_stacks(st.integers(-(2**26), 2**26)))
def test_stacked_ranks_within_the_double_bound_match_bareiss(stack):
    assert linalg.int_ranks(np.array(stack)) == [reference_rank(M) for M in stack]


@pytest.mark.parametrize(
    "bad",
    [0.5, Fraction(1, 2), 1.0, 1j, np.float64(2.0)],
    ids=["float", "fraction", "integral-float", "complex", "float64"],
)
def test_integer_kernels_reject_non_integer_entries(bad):
    # a float lane would round 0.5 and floor-divide a Fraction as if each
    # were an integer: int_ranks([[0.5, 1], [1, 3]]) once gave rank 1
    M = [[bad, 1], [1, 3]]
    with pytest.raises(TypeError, match="integer entries"):
        linalg.int_ranks([M])
    with pytest.raises(TypeError, match="integer entries"):
        linalg.int_matmul([M], [[[2], [1]]])
    with pytest.raises(TypeError, match="integer entries"):
        linalg.int_matmul([[[2, 1]]], [M])
    with pytest.raises(TypeError, match="integer entries"):
        linalg.int_ranks(np.array([M], dtype=complex if bad == 1j else float))


@pytest.mark.parametrize("big", [2**63, 2**64])
def test_integer_kernels_read_nested_lists_past_int64_exactly(big):
    # numpy reads [[big, big + 1], ...] as float64 or uint64 unless the
    # kernels ask for Python ints; det M = -1
    M = [[big, big + 1], [1, 1]]
    assert linalg.int_ranks([M]) == [reference_rank(M)] == [2]
    assert linalg.int_matmul([M], [[[1], [-1]]]).tolist() == [py_matmul(M, [[1], [-1]])]
    # a zero factor makes the product bound 0, but an entry past the range
    # of doubles beside it must still not be converted to one
    assert linalg.int_matmul([[[big**20]]], [[[0]]]).tolist() == [[[0]]]


def test_numpy_integers_in_an_object_array_compute_on_python_ints():
    # an object array may hold int64 scalars, which wrap: the Python-int
    # lane once gave rank 1 for 2**32 I and 0 for 2**40 * 2**40
    big = np.int64(2**32)
    assert linalg.int_ranks(np.array([[[big, 0], [0, big]]], dtype=object)) == [2]
    A = np.array([[np.int64(2**40)]], dtype=object)
    assert linalg.int_matmul(A, A).tolist() == [[2**80]]


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


@settings(max_examples=150, deadline=None)
@given(st.integers(20, 30), st.integers(20, 30), st.data())
def test_int_matmul_is_exact_on_both_sides_of_2_53(bits_a, bits_b, data):
    # entries near 2**bits put max|A| max|B| inner on either side of 2**53:
    # the product is int64 below the bound and Python ints at or past it
    s, m, n, p = (data.draw(st.integers(1, 4)) for _ in range(4))
    matrices = lambda bits, r, c: st.lists(
        st.lists(st.lists(st.integers(-(2**bits), 2**bits), min_size=c, max_size=c), min_size=r, max_size=r),
        min_size=s, max_size=s,
    )
    A, B = data.draw(matrices(bits_a, m, n)), data.draw(matrices(bits_b, n, p))
    P = linalg.int_matmul(A, B)
    fits = linalg._max_abs(np.array(A)) * linalg._max_abs(np.array(B)) * n < 2**53
    assert P.dtype == (np.int64 if fits else object)
    assert P.tolist() == [py_matmul(X, Y) for X, Y in zip(A, B)]


@pytest.mark.parametrize(
    "a, b, dtype",
    [
        (2**31, 2**30, object),  # max|A| max|B| inner = 2**62: the guard moves to Python ints
        (2**26, 2**26, object),  # max|A| max|B| inner = 2**53, the bound itself
        (2**26 - 1, 2**26, np.int64),  # just below the bound, in doubles
        (2**40, 2**40, object),  # far past it, where doubles would round
    ],
)
def test_int_matmul_guard_boundary(a, b, dtype):
    A = [[a, -a], [a, a]]
    B = [[b, b], [b, -b]]
    P = linalg.int_matmul([A], [B])
    assert P.dtype == dtype
    assert P[0].tolist() == py_matmul(A, B)
