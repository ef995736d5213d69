import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fncalc.scalars import GaussianRational, _exact, imaginary, rational


def gr(a, b=0):
    return GaussianRational(Fraction(a), Fraction(b))


small = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
scalars = st.builds(GaussianRational, small, small)


def test_lowest_terms_and_positive_denominators():
    z = GaussianRational(Fraction(6, -4), Fraction(0, 5))
    assert (z._a, z._b, z._d) == (-3, 0, 2)
    assert (z.real.numerator, z.real.denominator) == (-3, 2)
    assert (z.imag.numerator, z.imag.denominator) == (0, 1)


def test_equality_is_canonical():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert hash(GaussianRational(Fraction(2, 4))) == hash(GaussianRational(Fraction(1, 2)))
    assert gr(1, 2) != gr(1, 3)


def test_hash_agrees_with_equality_across_types():
    # equal values must hash equally, or sets and dicts keep duplicates
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert GaussianRational(value) == value
        assert hash(GaussianRational(value)) == hash(value)
        assert len({GaussianRational(value), value}) == 1
    assert len({GaussianRational(1), 1, Fraction(1)}) == 1


@given(scalars)
def test_hash_of_equal_values(z):
    assert hash(GaussianRational(z.real, z.imag)) == hash(z)


def test_basic_arithmetic():
    assert gr(1, 1) * gr(1, -1) == gr(2)
    assert imaginary(1) * imaginary(1) == rational(-1)
    assert (gr(3, 2) - gr(1, 2)) == gr(2)
    assert gr(1, 2) / gr(1, 2) == gr(1)
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(5).real == Fraction(5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_float_conversion_guards_imaginary():
    assert float(gr(3, 0)) == 3.0
    with pytest.raises(ValueError):
        float(gr(0, 1))


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_conjugation_and_norm(x):
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).imag == 0
    assert (x * x.conjugate()).real == x.real**2 + x.imag**2


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_division_inverts_multiplication(x, y):
    if y:
        assert (x * y) / y == x


# -- the canonical rule: real integers are plain ints ------------------------

# +, -, * and / on (re, im) pairs of Fractions, the reference for the results
REFERENCE = {
    operator.add: lambda a, b, c, d: (a + c, b + d),
    operator.sub: lambda a, b, c, d: (a - c, b - d),
    operator.mul: lambda a, b, c, d: (a * c - b * d, a * d + b * c),
    operator.truediv: lambda a, b, c, d: (
        (a * c + b * d) / (c * c + d * d), (b * c - a * d) / (c * c + d * d)
    ),
}


def is_canonical(v) -> bool:
    """v is a plain int exactly when it is a real integer."""
    if type(v) is int:
        return True
    return type(v) is GaussianRational and not (v.imag == 0 and v.real.denominator == 1)


def check_arithmetic(x, y):
    """Every operator on x, y returns the exact reference value, in
    canonical form."""
    for op, ref in REFERENCE.items():
        if op is operator.truediv and not y:
            continue
        r = op(x, y)
        assert is_canonical(r), (op, x, y, r)
        assert (r.real, r.imag) == ref(x.real, x.imag, y.real, y.imag), (op, x, y, r)
    for r, ref in ((-x, (-x.real, -x.imag)), (x.conjugate(), (x.real, -x.imag))):
        assert is_canonical(r) and (r.real, r.imag) == ref, (x, r)


MIXED = [
    (imaginary(1), 2), (2, imaginary(1)), (gr(1, 1), gr(1, -1)), (gr(1, 2), gr(1, 2)),
    (gr(Fraction(1, 3)), 3), (gr(Fraction(1, 2), 1), gr(Fraction(1, 2), -1)), (imaginary(1), imaginary(1)),
    (gr(3, 2), gr(1, 2)), (gr(7), gr(0)), (5, gr(Fraction(5, 2))),
]


@pytest.mark.parametrize("x, y", MIXED, ids=[f"{x}|{y}" for x, y in MIXED])
def test_results_are_canonical(x, y):
    check_arithmetic(x, y)


@settings(max_examples=60, deadline=None)
@given(scalars | st.integers(-9, 9), scalars)
def test_results_are_canonical_for_sampled_operands(x, y):
    check_arithmetic(x, y)
    check_arithmetic(y, x)


def test_real_integer_results_are_ints():
    assert type(gr(1, 1) * gr(1, -1)) is int
    assert type(imaginary(1) * imaginary(1)) is int
    assert type(gr(1, 2) / gr(1, 2)) is int
    assert type(rational(1, 2) + rational(1, 2)) is int
    assert type(rational(4, 2)) is int and type(rational(1, 2)) is GaussianRational
    assert type(2 * gr(1, 1)) is GaussianRational
    assert type(-gr(3)) is int and type(gr(3).conjugate()) is int


def test_a_norm_that_ignores_the_imaginary_part_is_caught(monkeypatch):
    # the mutant returns a whenever d == 1, dropping b: i * 2 would read 0
    real_norm = GaussianRational._norm

    def broken(a, b, d):
        return a if d == 1 else real_norm(a, b, d)

    monkeypatch.setattr(GaussianRational, "_norm", staticmethod(broken))
    with pytest.raises(AssertionError):
        for x, y in MIXED:
            check_arithmetic(x, y)


@pytest.mark.parametrize(
    "value, expected",
    [(3, 3), (True, 1), (Fraction(6, 2), 3), (gr(4), 4), (gr(0), 0),
     (Fraction(1, 2), gr(Fraction(1, 2))), (gr(0, 1), imaginary(1))],
)
def test_exact_brings_values_to_canonical_form(value, expected):
    out = _exact(value)
    assert is_canonical(out) and out == expected
    assert type(out) is (int if type(expected) is int else GaussianRational)


def test_exact_rejects_inexact_values():
    with pytest.raises(TypeError):
        _exact(0.5)
