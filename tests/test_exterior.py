"""First-order operators and algebra on the flat models."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fncalc import linfty
from fncalc.bracket import fn_bracket, lie_tensor, nijenhuis_lie, vf_bracket
from fncalc.dolbeault import _complex_to_real_matrix, _real_to_complex_matrix, dc
from fncalc.exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    SpaceMismatch,
    VectorField,
    affine_space,
    codifferential,
    coefficient_deriv,
    contract_metric,
    ext_deriv,
    evaluate,
    flat_pairing,
    hodge_star,
    insert_vector,
    laplacian,
    torus_space,
    volume_form,
    wedge,
)
from fncalc.exterior import (
    VectorValuedForm,
    _add_term,
    _insert_frame_terms,
    _star_terms,
    _wedge_terms,
    insert_frame,
    transform_terms,
)
from fncalc.g2 import g2_type_project
from fncalc.multiindex import all_indices
from reference import lie_vector_form
from fncalc.sampling import (
    random_coefficient,
    random_form,
    random_vector_field,
    random_vvform,
)
from fncalc.scalars import GaussianRational

R2 = affine_space(2)
R4 = affine_space(4)
R7 = affine_space(7)
T2 = torus_space(2)
T3 = torus_space(3)
T4 = torus_space(4)


def e(space, *idx):
    return DifferentialForm.coframe(space, idx)


def x(space, j):
    return CoefficientFunction.coordinate(space, j)


class TestWedge:
    def test_basis_product(self):
        assert wedge(e(R2, 1), e(R2, 2)) == e(R2, 1, 2)

    def test_antisymmetry_on_repeats(self):
        assert not wedge(e(R2, 1), e(R2, 1))

    def test_graded_commutativity_sign(self):
        assert wedge(e(R2, 2), e(R2, 1)) == -e(R2, 1, 2)

    def test_above_top_degree_is_zero(self):
        out = wedge(e(R2, 1, 2), e(R2, 1))
        assert out.degree == 3 and not out

    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatch):
            wedge(e(R2, 1), e(R4, 1))

    def test_bilinear_associative_graded_commutative_on_samples(self):
        rng = random.Random(2)
        for _ in range(30):
            p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            a = random_form(R4, p, rng)
            b = random_form(R4, q, rng)
            c = random_form(R4, r, rng)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            sign = -1 if (p * q) % 2 else 1
            assert wedge(a, b) == wedge(b, a).scale(sign)


class TestCoefficientFunction:
    # seeded oracles for the product and the derivative of scalar
    # functions, which run on the form kernels `_wedge_terms` and
    # `_deriv_terms`; a third of the samples carry Gaussian rationals
    @staticmethod
    def samples(space, seed, count=40):
        rng = random.Random(seed)
        c = GaussianRational(Fraction(1, 3), 1)
        for n in range(count):
            f, g = (random_coefficient(space, rng, 3) for _ in range(2))
            yield rng, (f.scale(c) if n % 3 else f), g

    def test_product_value_is_the_product_of_values(self):
        for rng, f, g in self.samples(R4, 23):
            p = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            assert (f * g).eval_exact(p) == f.eval_exact(p) * g.eval_exact(p)

    def test_toroidal_product_keys_add(self):
        for _, f, g in self.samples(T3, 24):
            expected = {}
            for k1, v1 in f.terms.items():
                for k2, v2 in g.terms.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    expected[key] = expected.get(key, 0) + v1 * v2
            assert f * g == CoefficientFunction(T3, expected)

    @pytest.mark.parametrize("space", [R4, T3], ids=str)
    def test_deriv_obeys_leibniz_over_the_product(self, space):
        for rng, f, g in self.samples(space, 25):
            j = rng.randint(1, space.dim)
            assert (f * g).deriv(j) == f.deriv(j) * g + f * g.deriv(j)
        for j in (0, space.dim + 1):
            with pytest.raises(ValueError, match="out of range"):
                f.deriv(j)


class TestExteriorDerivative:
    def test_coordinate_differential(self):
        assert ext_deriv(DifferentialForm.from_scalar(x(R2, 1))) == e(R2, 1)

    def test_leibniz_on_monomial(self):
        a = e(R2, 2).mul_function(x(R2, 1))
        assert ext_deriv(a) == e(R2, 1, 2)

    def test_fourier_derivative(self):
        f = CoefficientFunction.fourier(T2, (1, 0))
        df = ext_deriv(DifferentialForm.from_scalar(f))
        expected = DifferentialForm(T2, 1, {(1,): f.scale(GaussianRational(0, 1))})
        assert df == expected

    def test_d_squared_zero_on_samples(self):
        rng = random.Random(3)
        for space in (R4, torus_space(3)):
            for _ in range(25):
                a = random_form(space, rng.randint(0, space.dim - 1), rng)
                assert not ext_deriv(ext_deriv(a))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((R4, T3)),
        st.sampled_from(("sampled", "constant", "mixed", "top")),
        st.randoms(use_true_random=False),
    )
    def test_matches_frame_sum_of_coefficient_derivatives(self, space, kind, rnd):
        # ext_deriv differentiates only along live coordinates; the honest
        # lane d a = sum_j e^j ^ d_j a differentiates along every one
        degree = space.dim if kind == "top" else rnd.randint(0, space.dim)
        if kind == "constant":
            a = constant_form(space, degree, rnd)
        else:
            a = random_form(space, degree, rnd)
            if kind == "mixed":
                a = a + constant_form(space, degree, rnd)
        honest = DifferentialForm.zero(space, degree + 1)
        for j in range(1, space.dim + 1):
            honest = honest + wedge(e(space, j), coefficient_deriv(a, j))
        assert ext_deriv(a) == honest
        assert not ext_deriv(ext_deriv(a))

    def test_derivation_over_wedge(self):
        rng = random.Random(4)
        for _ in range(20):
            p = rng.randint(0, 2)
            a = random_form(R4, p, rng)
            b = random_form(R4, rng.randint(0, 2), rng)
            sign = -1 if p % 2 else 1
            assert ext_deriv(wedge(a, b)) == wedge(ext_deriv(a), b) + wedge(
                a, ext_deriv(b)
            ).scale(sign)


class TestInsertion:
    def test_frame_insertions(self):
        assert insert_frame(1, e(R2, 1, 2)) == e(R2, 2)
        assert insert_frame(2, e(R2, 1, 2)) == -e(R2, 1)
        assert not insert_frame(3, e(R4, 1, 2))

    def test_insertion_kills_scalars(self):
        X = VectorField.frame(R2, 1)
        assert not insert_vector(X, DifferentialForm.from_scalar(x(R2, 1)))

    def test_degree_minus_one_derivation(self):
        rng = random.Random(5)
        for _ in range(20):
            X = random_vector_field(R4, rng)
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            a = random_form(R4, p, rng)
            b = random_form(R4, q, rng)
            sign = -1 if p % 2 else 1
            lhs = insert_vector(X, wedge(a, b))
            rhs = wedge(a, insert_vector(X, b)).scale(sign) if q else DifferentialForm.zero(R4, lhs.degree)
            if p:  # insertion of a scalar factor contributes nothing
                rhs = rhs + wedge(insert_vector(X, a), b)
            assert lhs == rhs


class TestVectorValuedInsertion:
    def test_decomposable_definition(self):
        K = VectorValuedForm.decomposable(e(R4, 1), 2)
        assert insert_vector(K, e(R4, 2)) == e(R4, 1)
        assert insert_vector(K, e(R4, 2, 3)) == e(R4, 1, 3)

    def test_kills_scalars(self):
        K = VectorValuedForm.decomposable(e(R4, 1), 1)
        f = DifferentialForm.from_scalar(x(R4, 1))
        assert not insert_vector(K, f)

    def test_derivation_of_degree_k_minus_one(self):
        rng = random.Random(6)
        for _ in range(15):
            k = rng.randint(1, 2)
            K = VectorValuedForm(
                R4, k, [random_form(R4, k, rng) for _ in range(4)]
            )
            p = rng.randint(0, 2)
            a = random_form(R4, p, rng)
            b = random_form(R4, rng.randint(0, 2), rng)
            sign = -1 if ((k - 1) * p) % 2 else 1
            lhs = insert_vector(K, wedge(a, b))
            rhs = wedge(insert_vector(K, a), b) + wedge(a, insert_vector(K, b)).scale(sign)
            assert lhs == rhs


class TestLieDerivative:
    def test_translation_derivative(self):
        a = e(R2, 2).mul_function(x(R2, 1))
        assert lie_vector_form(VectorField.frame(R2, 1), a) == e(R2, 2)

    def test_constant_form_is_invariant(self):
        assert not lie_vector_form(VectorField.frame(R2, 1), e(R2, 2))

    def test_scaling_field(self):
        # Cartan formula on the radial-type field x^1 e_1 applied to e^1
        X = VectorField(R2, [x(R2, 1), CoefficientFunction.zero(R2)])
        assert lie_vector_form(X, e(R2, 1)) == e(R2, 1)


class TestHodgeStar:
    def test_complementary_block(self):
        assert hodge_star(e(R7, 1, 2, 3)) == e(R7, 4, 5, 6, 7)

    def test_unit_to_volume(self):
        assert hodge_star(DifferentialForm.unit(R7)) == volume_form(R7)

    def test_involution_sign(self):
        rng = random.Random(7)
        for space in (R4, R7):
            for _ in range(15):
                l = rng.randint(0, space.dim)
                a = random_form(space, l, rng)
                sign = -1 if (l * (space.dim - l)) % 2 else 1
                assert hodge_star(hodge_star(a)) == a.scale(sign)

    def test_pairing_identity(self):
        # a ^ *b = <a,b> vol with the bilinear coefficient pairing
        rng = random.Random(8)
        for _ in range(20):
            l = rng.randint(0, 4)
            a = random_form(R4, l, rng)
            b = random_form(R4, l, rng)
            lhs = wedge(a, hodge_star(b))
            rhs = volume_form(R4).mul_function(flat_pairing(a, b))
            assert lhs == rhs

    def test_coefficients_pass_through_on_torus(self):
        f = CoefficientFunction.fourier(T2, (1, -1))
        a = DifferentialForm(T2, 1, {(1,): f})
        assert hodge_star(a) == DifferentialForm(T2, 1, {(2,): f})


def constant_form(space, degree, rng):
    """Random constant form with small Gaussian-integer coefficients, whose
    float products and sums are exact."""
    terms = {}
    for idx in all_indices(space.dim, degree):
        val = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        if val and rng.random() < 0.5:
            terms[idx] = CoefficientFunction.constant(space, val)
    return DifferentialForm(space, degree, terms)


def float_image(form):
    return {(idx, ()): complex(c.constant_value()) for idx, c in form.coefficients().items()}


class TestSparseKernels:
    def test_float_kernels_match_exact_operators(self):
        # the pointwise lane runs the same kernels on floats: their value on
        # the float images must be the float image of the exact operator
        rng = random.Random(12)
        for _ in range(40):
            space = rng.choice((R4, R7))
            p = rng.randint(0, space.dim)
            q = rng.randint(0, space.dim - p)
            a, b = constant_form(space, p, rng), constant_form(space, q, rng)
            fa, fb = float_image(a), float_image(b)
            assert _wedge_terms(fa, fb) == float_image(wedge(a, b))
            assert _star_terms(fa, space.dim) == float_image(hodge_star(a))
            for i in range(1, space.dim + 1):
                assert _insert_frame_terms(i, fa) == float_image(insert_frame(i, a))


def laplace_minor(matrix, rows, cols):
    """det(M[rows, cols]) by Laplace expansion along the first row."""
    if not rows:
        return GaussianRational(1)
    total = GaussianRational(0)
    for pos, c in enumerate(cols):
        sub = laplace_minor(matrix, rows[1:], cols[:pos] + cols[pos + 1:])
        term = matrix[rows[0] - 1][c - 1] * sub
        total = total + (term if pos % 2 == 0 else -term)
    return total


def laplace_transform(n, terms, matrix):
    """The coframe change of flat form terms with every minor expanded on
    its own, adding the terms in the same order as transform_terms."""
    out = {}
    for (idx, key), coeff in terms.items():
        for target in all_indices(n, len(idx)):
            det = laplace_minor(matrix, idx, target)
            if det:
                _add_term(out, (target, key), coeff * det)
    return out


def rational_matrix(n, rng):
    return [
        [GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n)]
        for _ in range(n)
    ]


class TestTransformTerms:
    def check(self, space, terms, matrix):
        out = transform_terms(space, terms, matrix)
        # same values and the same dict order as the honest lane
        assert list(out.items()) == list(laplace_transform(space.dim, terms, matrix).items())
        assert all(coeff for coeff in out.values())
        return out

    def test_scalars_and_top_degree(self):
        rng = random.Random(31)
        f = random_coefficient(R4, rng)
        M = rational_matrix(4, rng)
        scalar = DifferentialForm.from_scalar(f).terms
        assert self.check(R4, scalar, M) == scalar
        det = laplace_minor(M, (1, 2, 3, 4), (1, 2, 3, 4))
        top = DifferentialForm(R4, 4, {(1, 2, 3, 4): f})
        assert self.check(R4, top.terms, M) == top.scale(det).terms

    def test_dolbeault_matrices(self):
        rng = random.Random(32)
        for m in (1, 2, 3):
            space = affine_space(2 * m)
            to_c, to_r = _real_to_complex_matrix(m), _complex_to_real_matrix(m)
            for degree in range(2 * m + 1):
                a = random_form(space, degree, rng, max_terms=3)
                back = self.check(space, self.check(space, a.terms, to_c), to_r)
                assert back == a.terms

    def test_seeded_rational_matrices(self):
        rng = random.Random(33)
        for space in (R4, affine_space(5)):
            n = space.dim
            for _ in range(4):
                M = rational_matrix(n, rng)
                for degree in range(n + 1):
                    self.check(space, random_form(space, degree, rng, max_terms=3).terms, M)

    def test_singular_matrix(self):
        rng = random.Random(34)
        M = rational_matrix(4, rng)
        M[2] = [x + y for x, y in zip(M[0], M[1])]
        top = DifferentialForm(R4, 4, {(1, 2, 3, 4): x(R4, 1) + CoefficientFunction.constant(R4, 2)})
        assert self.check(R4, top.terms, M) == {}
        for degree in range(4):
            self.check(R4, random_form(R4, degree, rng, max_terms=3).terms, M)


class TestCodifferentialLaplacian:
    def test_zero_on_scalars(self):
        assert not codifferential(DifferentialForm.from_scalar(x(R4, 1)))

    def test_linear_coefficient_divergence(self):
        for space in (R2, R4, R7):
            a = DifferentialForm(space, 1, {(1,): x(space, 1)})
            expected = DifferentialForm.from_scalar(
                CoefficientFunction.constant(space, -1)
            )
            assert codifferential(a) == expected

    def test_constant_forms_are_coclosed(self):
        assert not codifferential(e(R4, 1, 2))

    def test_codifferential_squares_to_zero(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_form(R4, rng.randint(1, 4), rng)
            assert not codifferential(codifferential(a))

    def test_laplacian_of_constant(self):
        assert not laplacian(e(R4, 1, 2))

    def test_laplacian_fourier_eigenvalue(self):
        t = torus_space(2)
        f = CoefficientFunction.fourier(t, (1, 0))
        a = DifferentialForm.from_scalar(f)
        assert laplacian(a) == a

    def test_laplacian_mode_formula_vs_expansion(self):
        t3 = torus_space(3)
        f = CoefficientFunction.fourier(t3, (1, 1, 0))
        a = DifferentialForm(t3, 1, {(3,): f})
        direct = ext_deriv(codifferential(a)) + codifferential(ext_deriv(a))
        assert laplacian(a) == a.scale(2) == direct

    def test_laplacian_commutes_with_d_dstar_star(self):
        rng = random.Random(10)
        for space in (torus_space(3), R4):
            for _ in range(12):
                a = random_form(space, rng.randint(0, 3), rng)
                assert laplacian(ext_deriv(a)) == ext_deriv(laplacian(a))
                assert laplacian(codifferential(a)) == codifferential(laplacian(a))
                assert laplacian(hodge_star(a)) == hodge_star(laplacian(a))


class TestMetricContraction:
    def test_two_form_expansion(self):
        out = contract_metric(e(R2, 1, 2))
        assert out.components[0] == e(R2, 2)
        assert out.components[1] == -e(R2, 1)

    def test_three_form_expansion(self):
        out = contract_metric(e(R4, 1, 2, 3))
        assert out.components[0] == e(R4, 2, 3)
        assert out.components[1] == -e(R4, 1, 3)
        assert out.components[2] == e(R4, 1, 2)
        assert not out.components[3]

    def test_symplectic_style_form(self):
        omega = e(R4, 1, 2) + e(R4, 3, 4)
        out = contract_metric(omega)
        assert out.components[0] == e(R4, 2)
        assert out.components[1] == -e(R4, 1)
        assert out.components[2] == e(R4, 4)
        assert out.components[3] == -e(R4, 3)

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            contract_metric(DifferentialForm.unit(R4))


class TestEvaluation:
    def test_evaluate_matches_insertions(self):
        a = e(R4, 1, 2)
        v = evaluate(a, [VectorField.frame(R4, 1), VectorField.frame(R4, 2)])
        assert v.constant_value() == GaussianRational(1)
        v = evaluate(a, [VectorField.frame(R4, 2), VectorField.frame(R4, 1)])
        assert v.constant_value() == GaussianRational(-1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.randoms(use_true_random=False),
)
def test_wedge_degree_bookkeeping(p, q, rnd):
    a = random_form(R4, p, rnd)
    b = random_form(R4, q, rnd)
    assert wedge(a, b).degree == p + q


def test_mixed_flavor_coefficients_rejected():
    with pytest.raises(ValueError):
        CoefficientFunction(R2, {(-1, 0): GaussianRational(1)})
    with pytest.raises(SpaceMismatch):
        DifferentialForm(R2, 1, {(1,): x(R4, 1)})


def test_degree_stored_explicitly_for_zero_forms():
    z = DifferentialForm.zero(R4, 3)
    assert z.degree == 3 and not z
    assert (z + z).degree == 3
    with pytest.raises(DegreeError):
        z + DifferentialForm.zero(R4, 2)


@pytest.mark.parametrize(
    "op",
    [
        lambda: x(R2, 1) * 1.5,
        lambda: x(R2, 1) + 1,
        lambda: e(R2, 1) + 1,
        lambda: e(R2, 1).scale(1.5),
        lambda: DifferentialForm(R2, 1, {(1,): 1}),
        lambda: DifferentialForm(R2, 3, {(1, 2, 3): 0}),
        lambda: VectorField.frame(R2, 1) + 1,
        lambda: VectorValuedForm.zero(R2, 1) + 1,
        lambda: linfty.NormalValuedForm.zero(PLANE_MODEL, 0) + 1,
    ],
    ids=["function-times-float", "function-plus-int", "form-plus-int",
         "form-scale-float", "form-with-int-coefficient",
         "above-top-degree-with-int-coefficient", "vector-field-plus-int",
         "tangent-valued-form-plus-int", "normal-valued-form-plus-int"],
)
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


PLANE_MODEL = linfty.FlatAssociativeModel.from_plane((1, 2, 4))
OTHER_PLANE_MODEL = linfty.FlatAssociativeModel.from_plane((1, 2, 3))

# one builder per value type; each call builds a new, equal value
VALUE_BUILDERS = {
    "function": lambda: x(R2, 1).scale(3) + CoefficientFunction.constant(R2, 1),
    "form": lambda: e(R4, 1, 3) - e(R4, 2, 4).scale(Fraction(1, 2)),
    "vector-field": lambda: VectorField.frame(T2, 2).scale(-1),
    "tangent-valued-form": lambda: VectorValuedForm.decomposable(e(R2, 1), 2),
    "normal-valued-form": lambda: linfty.NormalValuedForm.decomposable(
        PLANE_MODEL, DifferentialForm.coframe(linfty.PLANE_SPACE, (2,)), 3
    ),
}


@pytest.mark.parametrize("build", VALUE_BUILDERS.values(), ids=list(VALUE_BUILDERS))
def test_values_are_immutable_and_hash_by_value(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != -a and {a, b, -a} == {b, -b}
    name = type(a).__name__
    for slot in type(a).__slots__:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(a, slot, None)
    assert a == b


@pytest.mark.parametrize(
    "a, b, error, message",
    [
        (CoefficientFunction.zero(R2), CoefficientFunction.zero(T2), SpaceMismatch,
         "mixed model spaces R^2 and T^2"),
        (DifferentialForm.zero(R4, 2), DifferentialForm.zero(R4, 3), DegreeError,
         "cannot add degrees 2 and 3"),
        (VectorField.zero(R2), VectorField.zero(R4), SpaceMismatch,
         "mixed model spaces R^2 and R^4"),
        (VectorValuedForm.zero(R2, 1), VectorValuedForm.zero(R2, 2), DegreeError,
         "cannot add tangent-valued forms of different degrees"),
        (linfty.NormalValuedForm.zero(OTHER_PLANE_MODEL, 0),
         linfty.NormalValuedForm.zero(PLANE_MODEL, 0), ValueError,
         "mismatched normal-valued forms"),
    ],
    ids=list(VALUE_BUILDERS),
)
def test_values_differing_in_a_tag_are_unequal_and_do_not_add(a, b, error, message):
    assert not a and not b and a != b
    for op in (a.__add__, a.__sub__):
        with pytest.raises(error) as info:
            op(b)
        assert type(info.value) is error and str(info.value) == message


def is_canonical_scalar(v) -> bool:
    """v is a plain int exactly when it is a real integer: never a float,
    and never a GaussianRational that holds a real integer."""
    if type(v) is int:
        return True
    return type(v) is GaussianRational and not (v.imag == 0 and v.real.denominator == 1)


def assert_canonical(value):
    """value equals the validating public constructor re-run on its terms,
    holds no zero coefficient at any level, and stores every coefficient in
    the canonical scalar form."""
    if isinstance(value, CoefficientFunction):
        assert all(is_canonical_scalar(v) and v for v in value.terms.values())
        assert CoefficientFunction(value.space, value.terms) == value
    elif isinstance(value, DifferentialForm):
        assert all(
            type(idx) is tuple and type(key) is tuple and is_canonical_scalar(v) and v
            for (idx, key), v in value.terms.items()
        )
        assert DifferentialForm(value.space, value.degree, value.coefficients()) == value
        for coeff in value.coefficients().values():
            assert_canonical(coeff)
    else:  # vector fields, tangent- and normal-valued forms
        for part in value.components:
            assert_canonical(part)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((R4, T4)), st.randoms(use_true_random=False))
def test_operator_outputs_pass_the_validating_constructors(space, rnd):
    # kernels build their outputs with the trusted constructors; a term the
    # public constructors would reject or prune must never reach a value
    n = space.dim
    a = random_form(space, rnd.randint(0, n), rnd)
    b = random_form(space, rnd.randint(0, n), rnd)
    f, g = random_coefficient(space, rnd), random_coefficient(space, rnd)
    X, Y = random_vector_field(space, rnd), random_vector_field(space, rnd)
    K = random_vvform(space, rnd, max_degree=2)
    L = random_vvform(space, rnd, max_degree=2)
    c, i = rnd.randint(-2, 2), rnd.randint(1, n)
    outputs = [
        f + g, f - g, -f, f * g, f * c, f.scale(c), f.deriv(i),
        a + a.scale(c), a - a, -a, a.scale(c), a.mul_function(f), a.mul_function(f - f),
        wedge(a, b), ext_deriv(a), insert_vector(X, a), insert_frame(i, a),
        insert_vector(K, a), coefficient_deriv(a, i), lie_vector_form(X, a),
        hodge_star(a), codifferential(a), laplacian(a), flat_pairing(a, a),
        nijenhuis_lie(K, a), nijenhuis_lie(X, a), fn_bracket(K, L),
        vf_bracket(X, Y), lie_tensor(X, K), X - Y.scale(c), K - K.scale(c),
        evaluate(a, ([X, Y] * n)[:a.degree]),
    ]
    if a.degree:
        outputs.append(contract_metric(a))
    if space.is_affine:
        outputs.append(dc(a))
        omega = linfty.NormalValuedForm.decomposable(
            PLANE_MODEL, random_form(linfty.PLANE_SPACE, rnd.randint(0, 1), rnd), rnd.randint(1, 4)
        )
        outputs += [linfty.vertical_lift(omega), linfty.multibracket(PLANE_MODEL, [omega])]
        outputs.append(g2_type_project(random_form(R7, 3, rnd), "3_27"))
    for value in outputs:
        assert_canonical(value)


@pytest.mark.parametrize("space", [R4, T4], ids=str)
def test_int_lane_equals_the_gaussian_rational_lane(space):
    # sampled coefficients are ints, so the kernels run on plain ints (and
    # on i k factors on the torus); the same inputs scaled by 1/5 hold only
    # Gaussian rationals, since no sampled |c| <= 3 is a multiple of 5, and
    # the operators' results scaled back must agree
    rng = random.Random(19)
    fifth = Fraction(1, 5)
    for _ in range(25):
        a, b = (random_form(space, rng.randint(0, 4), rng) for _ in range(2))
        X = random_vector_field(space, rng)
        K, L = (random_vvform(space, rng, max_degree=2) for _ in range(2))
        cases = [
            (wedge, (a, b)), (ext_deriv, (a,)), (insert_vector, (X, a)),
            (lambda a: insert_frame(2, a), (a,)), (insert_vector, (K, a)), (hodge_star, (a,)),
            (fn_bracket, (K, L)), (nijenhuis_lie, (K, a)), (lie_tensor, (X, K)),
        ]
        if space.is_affine:
            cases.append((dc, (a,)))
        for op, ints in cases:
            fifths = [v.scale(fifth) for v in ints]
            for v in fifths:
                for part in getattr(v, "components", [v]):
                    assert all(type(c) is GaussianRational for c in part.terms.values())
            fast = op(*ints)
            assert_canonical(fast)
            if space.is_affine and op is not dc:  # d^c passes through i/2 factors
                for part in getattr(fast, "components", [fast]):
                    assert all(type(c) is int for c in part.terms.values()), op
            assert op(*fifths).scale(5 ** len(ints)) == fast, op
