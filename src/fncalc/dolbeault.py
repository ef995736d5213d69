"""Complex differential d^c = i(dbar - del) on R^{2m}, built from the
Dolbeault splitting.

Forms are re-expanded in the complex coframe dz_j = e^{2j-1} + i e^{2j},
dzbar_j = e^{2j-1} - i e^{2j}; the exterior derivative of a coefficient
splits into Wirtinger parts, del into the dz directions and dbar into the
dzbar directions.  This path shares no code with the Nijenhuis-Lie
derivative it cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import CoefficientFunction, DifferentialForm, _add_term, transform_terms
from .multiindex import merge_sign
from .scalars import GaussianRational, I, ONE

HALF = GaussianRational(Fraction(1, 2))
MINUS_I_HALF = GaussianRational(0, Fraction(-1, 2))
I_HALF = GaussianRational(0, Fraction(1, 2))


def _real_to_complex_matrix(m: int):
    """Rows express e^i in the coframe (dz_1..dz_m, dzbar_1..dzbar_m)."""
    n = 2 * m
    zero = GaussianRational(0)
    M = [[zero] * n for _ in range(n)]
    for j in range(1, m + 1):
        M[2 * j - 2][j - 1] = HALF
        M[2 * j - 2][m + j - 1] = HALF
        M[2 * j - 1][j - 1] = MINUS_I_HALF
        M[2 * j - 1][m + j - 1] = I_HALF
    return M


def _complex_to_real_matrix(m: int):
    """Rows express dz_j / dzbar_j back in the real coframe."""
    n = 2 * m
    zero = GaussianRational(0)
    M = [[zero] * n for _ in range(n)]
    for j in range(1, m + 1):
        M[j - 1][2 * j - 2] = ONE
        M[j - 1][2 * j - 1] = I
        M[m + j - 1][2 * j - 2] = ONE
        M[m + j - 1][2 * j - 1] = -I
    return M


def _wirtinger(coeff: CoefficientFunction, j: int, conjugate: bool) -> CoefficientFunction:
    """d/dz_j = (d_{2j-1} - i d_{2j})/2, d/dzbar_j with the plus sign."""
    a = coeff.deriv(2 * j - 1).scale(HALF)
    b = coeff.deriv(2 * j).scale(I_HALF if conjugate else MINUS_I_HALF)
    return a + b


def dc(a: DifferentialForm) -> DifferentialForm:
    """The complex differential i(dbar - del) of a polynomial form."""
    space = a.space
    if space.dim % 2:
        raise ValueError("d^c needs an even-dimensional space")
    if not space.is_affine:
        raise ValueError("d^c is implemented for the affine flavor")
    m = space.dim // 2
    cplx = transform_terms(space, a.terms, _real_to_complex_matrix(m))

    out: dict = {}

    def accumulate(frame_index: int, coeff, idx):
        ms = merge_sign((frame_index,), idx)
        if ms is None:
            return
        sign, merged = ms
        _add_term(out, merged, coeff if sign > 0 else -coeff)

    for idx, coeff in cplx.items():
        for j in range(1, m + 1):
            # dbar contributes +, del contributes -, overall factor i
            dbar = _wirtinger(coeff, j, conjugate=True)
            if dbar:
                accumulate(m + j, dbar.scale(I), idx)
            ddel = _wirtinger(coeff, j, conjugate=False)
            if ddel:
                accumulate(j, ddel.scale(-I), idx)

    real_terms = transform_terms(space, out, _complex_to_real_matrix(m))
    return DifferentialForm._of(space, a.degree + 1, real_terms)
