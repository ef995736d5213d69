"""Exact scalars: plain ints and Gaussian rationals.

Every coefficient in the calculus is a Gaussian rational a + b*i with a, b
rational.  The exact scalar domain is `int | GaussianRational` under one
canonical rule: a value that a kernel, constructor or operator stores or
returns is a plain Python int when it is a real integer, and a
`GaussianRational` otherwise.  `GaussianRational` arithmetic returns its
results in that form (`_norm`), and `_exact` brings any int, Fraction or
Gaussian rational to it.  A `GaussianRational` is stored over a common
positive denominator in lowest terms, so equality is canonical and hashing
is safe; ints and Gaussian rationals agree on ==, hash and str, and both
answer `real` and `imag`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """Immutable exact complex rational (a + b*i) / d.  The calculus stores
    one only for a value that is not a real integer, which is a plain int."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        an, ad = _as_ratio(re)
        bn, bd = _as_ratio(im)
        # over the common denominator, reduced as any result is
        v = _coerce(GaussianRational._norm(an * bd, bn * ad, ad * bd))
        self._a, self._b, self._d = v._a, v._b, v._d

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussianRational":
        # internal: inputs already normalized
        v = object.__new__(cls)
        v._a = a
        v._b = b
        v._d = d
        return v

    @staticmethod
    def _norm(a: int, b: int, d: int) -> "int | GaussianRational":
        """(a + b*i) / d in canonical form: the int a when b == 0 and d == 1,
        else reduced over a positive denominator."""
        if d != 1:
            if d < 0:
                a, b, d = -a, -b, -d
            g = gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        if not b and d == 1:
            return a
        v = object.__new__(GaussianRational)
        v._a = a
        v._b = b
        v._d = d
        return v

    # -- field access ----------------------------------------------------

    @property
    def real(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return GaussianRational._norm(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return -self + other

    def __neg__(self):
        return GaussianRational._norm(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return GaussianRational._norm(
            a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a2, b2 = other._a, other._b
        n = a2 * a2 + b2 * b2
        # (a1+b1 i)(a2-b2 i) / (d1/d2 * n)
        a1, b1 = self._a, self._b
        return GaussianRational._norm(
            (a1 * a2 + b1 * b2) * other._d,
            (b1 * a2 - a1 * b2) * other._d,
            self._d * n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def conjugate(self) -> "int | GaussianRational":
        return GaussianRational._norm(self._a, -self._b, self._d)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational and (other := _coerce(other)) is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # equal values hash equally: a real value hashes like the int or
        # Fraction it equals (those two already agree with each other)
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    # -- conversions -------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __float__(self) -> float:
        if self._b:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._a / self._d

    def __repr__(self) -> str:
        return f"GaussianRational({self.real!r}, {self.imag!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return _fmt_frac(self._a, self._d)
        if self._a == 0:
            return _fmt_imag(self._b, self._d)
        sign = "+" if self._b > 0 else "-"
        return f"({_fmt_frac(self._a, self._d)}{sign}{_fmt_imag(abs(self._b), self._d)})"


def _fmt_frac(n: int, d: int) -> str:
    g = gcd(abs(n), d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"

def _fmt_imag(n: int, d: int) -> str:
    g = gcd(abs(n), d)
    n, d = n // g, d // g
    if d == 1:
        if n == 1:
            return "i"
        if n == -1:
            return "-i"
        return f"{n}i"
    return f"{n}/{d}i"


def _as_ratio(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational._raw(x.numerator, 0, x.denominator)
    return None


def _exact(x) -> "int | GaussianRational":
    """An int, Fraction or Gaussian rational in canonical form: a plain int
    when it is a real integer, else a GaussianRational."""
    if type(x) is not int:
        x = x if type(x) is GaussianRational else GaussianRational(x)
        if not x._b and x._d == 1:
            return x._a
    return x


ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def rational(num: int, den: int = 1) -> "int | GaussianRational":
    """Exact real rational num/den, in canonical form."""
    return _exact(Fraction(num, den))


def imaginary(num: int, den: int = 1) -> GaussianRational:
    """Exact purely imaginary (num/den)*i."""
    return GaussianRational(0, Fraction(num, den))
