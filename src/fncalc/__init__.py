"""Exact exterior calculus with the Frolicher-Nijenhuis bracket.

Computational core: exact forms on flat R^n / T^n, the FN graded Lie
bracket, Maurer-Cartan verification for parallel forms, per-Fourier-mode
cohomology of the flat 7-torus, G2 structure algebra, and the derived
L-infinity brackets of flat associative planes.
"""

from .scalars import GaussianRational, rational, imaginary
from .exterior import (
    AFFINE,
    TOROIDAL,
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    ModelSpace,
    SpaceMismatch,
    VectorField,
    VectorValuedForm,
    affine_space,
    codifferential,
    contract_metric,
    ext_deriv,
    evaluate,
    flat,
    flat_pairing,
    hodge_star,
    insert_vector,
    laplacian,
    sharp,
    torus_space,
    volume_form,
    wedge,
)
from .bracket import (
    MaurerCartanResult,
    fn_bracket,
    lie_tensor,
    mc_check,
    nijenhuis_lie,
    vf_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "rational",
    "imaginary",
    "AFFINE",
    "TOROIDAL",
    "CoefficientFunction",
    "DegreeError",
    "DifferentialForm",
    "ModelSpace",
    "SpaceMismatch",
    "VectorField",
    "VectorValuedForm",
    "affine_space",
    "codifferential",
    "contract_metric",
    "ext_deriv",
    "evaluate",
    "flat",
    "flat_pairing",
    "hodge_star",
    "insert_vector",
    "laplacian",
    "sharp",
    "torus_space",
    "volume_form",
    "wedge",
    "MaurerCartanResult",
    "fn_bracket",
    "lie_tensor",
    "mc_check",
    "nijenhuis_lie",
    "vf_bracket",
]
