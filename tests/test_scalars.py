from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fncalc.scalars import GaussianRational, imaginary, rational


def gr(a, b=0):
    return GaussianRational(Fraction(a), Fraction(b))


small = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
scalars = st.builds(GaussianRational, small, small)


def test_lowest_terms_and_positive_denominators():
    z = GaussianRational(Fraction(6, -4), Fraction(0, 5))
    assert z.re_num == -3 and z.re_den == 2
    assert z.im_num == 0 and z.im_den == 1


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
    assert hash(GaussianRational(z.re, z.im)) == hash(z)


def test_basic_arithmetic():
    assert gr(1, 1) * gr(1, -1) == gr(2)
    assert imaginary(1) * imaginary(1) == rational(-1)
    assert (gr(3, 2) - gr(1, 2)) == gr(2)
    assert gr(1, 2) / gr(1, 2) == gr(1)
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(5).re == Fraction(5)


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
    assert (x * x.conjugate()).im == 0
    assert (x * x.conjugate()).re == x.norm_sq()


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_division_inverts_multiplication(x, y):
    if y:
        assert (x * y) / y == x
