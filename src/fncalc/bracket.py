"""The Frolicher-Nijenhuis bracket and the derivations it governs.

The bracket on decomposables alpha^k (x) X, beta^l (x) Y is

    [a (x) X, b (x) Y] = a^b (x) [X,Y] + a^(L_X b) (x) Y - (L_Y a)^b (x) X
                         + (-1)^k (da^(i_X b) (x) Y + (i_Y a)^db (x) X)

and every tangent-valued form here is the finite sum of its frame
decomposables alpha_i (x) e_i, so the bracket is evaluated by bilinear
extension over frame pairs.  With constant frame fields [e_i, e_j] = 0,
L_{e_i} is the termwise coordinate derivative and i_{e_i} the frame
insertion, which is what the implementation uses.  The derivations run
the exterior module's flat-map kernels directly and wrap only their
results as forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    VectorField,
    VectorValuedForm,
    contract_metric,
    _add_terms,
    _d_terms,
    _deriv_terms,
    _insert_frame_terms,
    _insert_terms,
    _same_space,
    _scalar_terms,
    _wedge_terms,
)


def vf_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket of vector fields, [X,Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    _same_space(X, Y)
    n = X.space.dim
    comps = []
    for i in range(n):
        total: dict = {}
        for j in range(1, n + 1):
            xj = X.components[j - 1]
            yj = Y.components[j - 1]
            if xj:
                d = Y.components[i].deriv(j)
                if d:
                    _add_terms(total, (xj * d).terms)
            if yj:
                d = X.components[i].deriv(j)
                if d:
                    _add_terms(total, (yj * d).terms, negate=True)
        comps.append(CoefficientFunction._of(X.space, total))
    return VectorField(X.space, comps)


def lie_tensor(X: VectorField, K: VectorValuedForm) -> VectorValuedForm:
    """Tensor Lie derivative of K along X by the Leibniz rule
    L_X(a (x) Y) = (L_X a) (x) Y + a (x) [X, Y], with L_X a by the Cartan
    formula iota_X d a + d iota_X a.

    Independent of the bracket formula; serves as its oracle for the
    vector-field case.
    """
    _same_space(X, K)
    affine = K.space.is_affine
    xs = [_scalar_terms(f) for f in X.components]
    comps = [{} for _ in xs]
    for i, alpha in enumerate(K.components, 1):
        if not alpha:
            continue
        a = alpha.terms
        _insert_terms(xs, _d_terms(a, affine), comps[i - 1])
        _add_terms(comps[i - 1], _d_terms(_insert_terms(xs, a), affine))
        # [X, e_i] = -sum_j (d_i X^j) e_j
        for j, xj in enumerate(xs, 1):
            _wedge_terms(a, _deriv_terms(xj, i, affine), comps[j - 1], True)
    comps = [DifferentialForm._of(K.space, K.degree, c) for c in comps]
    return VectorValuedForm(K.space, K.degree, comps)


def nijenhuis_lie(K, a: DifferentialForm) -> DifferentialForm:
    """Lie derivative along a tangent-valued k-form,
    L_K a = i_K(da) + (-1)^k d(i_K a); a degree-k derivation."""
    if isinstance(K, VectorField):
        K = VectorValuedForm.from_vector_field(K)
    _same_space(K, a)
    affine = a.space.is_affine
    parts = [alpha.terms for alpha in K.components]
    out = _insert_terms(parts, _d_terms(a.terms, affine))
    # i_K of a function vanishes, so the second term is empty on 0-forms
    _add_terms(out, _d_terms(_insert_terms(parts, a.terms), affine), K.degree % 2)
    return DifferentialForm._of(a.space, K.degree + a.degree, out)


def fn_bracket(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """Frolicher-Nijenhuis bracket, the graded Lie bracket on tangent-valued
    forms for which L_[K,L] = [L_K, L_L]."""
    if isinstance(K, VectorField):
        K = VectorValuedForm.from_vector_field(K)
    if isinstance(L, VectorField):
        L = VectorValuedForm.from_vector_field(L)
    _same_space(K, L)
    space = K.space
    affine = space.is_affine
    degree = K.degree + L.degree
    # one flat {(multi-index, key): scalar} accumulator per frame direction;
    # every term is a product of two flat maps, wedged straight into it
    comps = [{} for _ in range(space.dim)]
    odd_k = K.degree % 2
    alphas = [(i, a.terms, _d_terms(a.terms, affine)) for i, a in enumerate(K.components, 1) if a]
    betas = [(j, b.terms, _d_terms(b.terms, affine)) for j, b in enumerate(L.components, 1) if b]
    for i, alpha, d_alpha in alphas:
        for j, beta, d_beta in betas:
            # [e_i, e_j] = 0, so the bracket term of the formula drops out;
            # a product with an empty derived or inserted factor is skipped
            if t := _deriv_terms(beta, i, affine):
                _wedge_terms(alpha, t, comps[j - 1])
            if t := _deriv_terms(alpha, j, affine):
                _wedge_terms(t, beta, comps[i - 1], True)
            if d_alpha and (t := _insert_frame_terms(i, beta)):
                _wedge_terms(d_alpha, t, comps[j - 1], odd_k)
            if d_beta and (t := _insert_frame_terms(j, alpha)):
                _wedge_terms(t, d_beta, comps[i - 1], odd_k)
    comps = [DifferentialForm._of(space, degree, c) for c in comps]
    return VectorValuedForm(space, degree, comps)


@dataclass(frozen=True)
class MaurerCartanResult:
    """Outcome of a Maurer-Cartan check, with the bracket as witness."""

    holds: bool
    contraction: VectorValuedForm
    witness: VectorValuedForm | None

    def __bool__(self) -> bool:
        return self.holds


def mc_check(psi: DifferentialForm) -> MaurerCartanResult:
    """Whether the metric contraction of an even-degree form is a
    Maurer-Cartan element: [c(psi), c(psi)] = 0 exactly."""
    if psi.degree % 2 or psi.degree < 2:
        raise DegreeError(
            f"Maurer-Cartan check needs even degree >= 2, got {psi.degree}"
        )
    hat = contract_metric(psi)
    bracket = fn_bracket(hat, hat)
    if bracket:
        return MaurerCartanResult(False, hat, bracket)
    return MaurerCartanResult(True, hat, None)
