"""The Frolicher-Nijenhuis bracket and the derivations it governs.

The bracket on decomposables alpha^k (x) X, beta^l (x) Y is

    [a (x) X, b (x) Y] = a^b (x) [X,Y] + a^(L_X b) (x) Y - (L_Y a)^b (x) X
                         + (-1)^k (da^(i_X b) (x) Y + (i_Y a)^db (x) X)

and every tangent-valued form here is the finite sum of its frame
decomposables alpha_i (x) e_i, so the bracket is evaluated by bilinear
extension over frame pairs.  With constant frame fields [e_i, e_j] = 0,
L_{e_i} is the termwise coordinate derivative and i_{e_i} the frame
insertion, which is what the implementation uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    VectorField,
    VectorValuedForm,
    coefficient_deriv,
    contract_metric,
    ext_deriv,
    insert_frame,
    insert_vvform,
    wedge,
    _add_terms,
    _same_space,
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
    L_X(a (x) Y) = (L_X a) (x) Y + a (x) [X, Y].

    Independent of the bracket formula; serves as its oracle for the
    vector-field case.
    """
    from .exterior import lie_vector_form

    _same_space(X, K)
    n = K.space.dim
    comps = [{} for _ in range(n)]
    for i in range(1, n + 1):
        alpha = K.components[i - 1]
        if not alpha:
            continue
        _add_terms(comps[i - 1], lie_vector_form(X, alpha).terms)
        # [X, e_i] = -sum_j (d_i X^j) e_j
        for j in range(1, n + 1):
            d = X.components[j - 1].deriv(i)
            if d:
                _add_terms(comps[j - 1], alpha.mul_function(d).terms, negate=True)
    comps = [DifferentialForm._of(K.space, K.degree, c) for c in comps]
    return VectorValuedForm(K.space, K.degree, comps)


def nijenhuis_lie(K, a: DifferentialForm) -> DifferentialForm:
    """Lie derivative along a tangent-valued k-form,
    L_K a = i_K(da) + (-1)^k d(i_K a); a degree-k derivation."""
    if isinstance(K, VectorField):
        K = VectorValuedForm.from_vector_field(K)
    _same_space(K, a)
    first = insert_vvform(K, ext_deriv(a))
    if K.degree == 0 and a.degree == 0:
        return first
    second = ext_deriv(insert_vvform(K, a))
    if K.degree % 2:
        return first - second
    return first + second


def fn_bracket(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """Frolicher-Nijenhuis bracket, the graded Lie bracket on tangent-valued
    forms for which L_[K,L] = [L_K, L_L]."""
    if isinstance(K, VectorField):
        K = VectorValuedForm.from_vector_field(K)
    if isinstance(L, VectorField):
        L = VectorValuedForm.from_vector_field(L)
    _same_space(K, L)
    space = K.space
    n = space.dim
    degree = K.degree + L.degree
    # one sparse {multi-index: coefficient} accumulator per frame direction
    comps = [{} for _ in range(n)]
    odd_k = K.degree % 2

    d_alpha = [ext_deriv(a) if a else None for a in K.components]
    d_beta = [ext_deriv(b) if b else None for b in L.components]

    for i in range(1, n + 1):
        alpha = K.components[i - 1]
        if not alpha:
            continue
        for j in range(1, n + 1):
            beta = L.components[j - 1]
            if not beta:
                continue
            # [e_i, e_j] = 0, so the bracket term of the formula drops out
            _add_terms(comps[j - 1], wedge(alpha, coefficient_deriv(beta, i)).terms)
            _add_terms(comps[i - 1], wedge(coefficient_deriv(alpha, j), beta).terms, True)
            da = d_alpha[i - 1]
            ib = insert_frame(i, beta)
            if da and ib:
                _add_terms(comps[j - 1], wedge(da, ib).terms, odd_k)
            ia = insert_frame(j, alpha)
            db = d_beta[j - 1]
            if ia and db:
                _add_terms(comps[i - 1], wedge(ia, db).terms, odd_k)
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
