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

from .exterior import DifferentialForm, _add_term, _partial, transform_terms
from .multiindex import merge_sign
from .scalars import GaussianRational, I

HALF = GaussianRational(Fraction(1, 2))
MINUS_I_HALF = GaussianRational(0, Fraction(-1, 2))
I_HALF = GaussianRational(0, Fraction(1, 2))


def _real_to_complex_matrix(m: int):
    """Rows express e^i in the coframe (dz_1..dz_m, dzbar_1..dzbar_m)."""
    n = 2 * m
    M = [[0] * n for _ in range(n)]
    for j in range(1, m + 1):
        M[2 * j - 2][j - 1] = HALF
        M[2 * j - 2][m + j - 1] = HALF
        M[2 * j - 1][j - 1] = MINUS_I_HALF
        M[2 * j - 1][m + j - 1] = I_HALF
    return M


def _complex_to_real_matrix(m: int):
    """Rows express dz_j / dzbar_j back in the real coframe."""
    n = 2 * m
    M = [[0] * n for _ in range(n)]
    for j in range(1, m + 1):
        M[j - 1][2 * j - 2] = 1
        M[j - 1][2 * j - 1] = I
        M[m + j - 1][2 * j - 2] = 1
        M[m + j - 1][2 * j - 1] = -I
    return M


# i(dbar - del) of d/dx^p as factors on the complex coframe directions
# (m + j, j) = (dzbar_j, dz_j), for p = 2j - 1 and p = 2j, by the Wirtinger
# derivatives d/dzbar_j = (d_{2j-1} + i d_{2j})/2, d/dz_j = (d_{2j-1} - i d_{2j})/2
_DC_FACTORS = ((I_HALF, MINUS_I_HALF), (-HALF, -HALF))


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
    for (idx, key), coeff in cplx.items():
        for pos, e in enumerate(key):
            if not e:
                continue
            new, factor = _partial(key, pos, True)
            val = coeff * factor
            j = pos // 2 + 1
            for frame, f in zip((m + j, j), _DC_FACTORS[pos % 2]):
                if ms := merge_sign((frame,), idx):
                    sign, merged = ms
                    _add_term(out, (merged, new), val * f if sign > 0 else -(val * f))

    real_terms = transform_terms(space, out, _complex_to_real_matrix(m))
    return DifferentialForm._of(space, a.degree + 1, real_terms)
