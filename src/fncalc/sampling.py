"""Seeded random generators for property suites.

All suites draw from random.Random(seed) so identical configurations
reproduce identical samples, reports, and exit codes.  Sampled
coefficients are small integers, so under the canonical rule of `scalars`
they are stored as plain ints, never as Gaussian rationals.
"""

from __future__ import annotations

from random import Random

from .exterior import (
    CoefficientFunction,
    DifferentialForm,
    ModelSpace,
    VectorField,
    VectorValuedForm,
)
from .multiindex import all_indices


def random_coefficient(space: ModelSpace, rng: Random, coeff_degree: int = 2) -> CoefficientFunction:
    """Sparse polynomial (or Fourier sum) with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        if space.is_affine:
            key = [0] * space.dim
            for _ in range(rng.randint(0, coeff_degree)):
                key[rng.randrange(space.dim)] += 1
        else:
            key = [rng.randint(-1, 1) for _ in range(space.dim)]
        value = rng.randint(-3, 3)
        if value:
            terms[tuple(key)] = value
    return CoefficientFunction(space, terms)


def random_form(space: ModelSpace, degree: int, rng: Random, max_terms: int = 2) -> DifferentialForm:
    idxs = all_indices(space.dim, degree)
    if not idxs:
        return DifferentialForm.zero(space, degree)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[idxs[rng.randrange(len(idxs))]] = random_coefficient(space, rng)
    return DifferentialForm(space, degree, terms)


def random_vvform(space: ModelSpace, rng: Random, max_degree: int = 3) -> VectorValuedForm:
    degree = rng.randint(0, max_degree)
    comps = []
    for _ in range(space.dim):
        if rng.random() < 0.5:
            comps.append(random_form(space, degree, rng))
        else:
            comps.append(DifferentialForm.zero(space, degree))
    if not any(comps):
        comps[rng.randrange(space.dim)] = random_form(space, degree, rng)
    return VectorValuedForm(space, degree, comps)


def random_vector_field(space: ModelSpace, rng: Random) -> VectorField:
    return VectorField(
        space, [random_coefficient(space, rng) for _ in range(space.dim)]
    )
