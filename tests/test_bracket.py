"""The graded bracket on tangent-valued forms and its governing laws."""

import random

import pytest

from reference import lie_vector_form
from fncalc.bracket import (
    fn_bracket,
    lie_tensor,
    mc_check,
    nijenhuis_lie,
    vf_bracket,
)
from fncalc.exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    VectorField,
    VectorValuedForm,
    affine_space,
    contract_metric,
    wedge,
)
from fncalc.sampling import random_form, random_vector_field, random_vvform
from fncalc.scalars import GaussianRational

R2 = affine_space(2)
R4 = affine_space(4)


def e(space, *idx):
    return DifferentialForm.coframe(space, idx)


def x(space, j):
    return CoefficientFunction.coordinate(space, j)


def sign(p: int) -> int:
    return -1 if p % 2 else 1


class TestVectorFieldBracket:
    def test_constant_fields_commute(self):
        assert not vf_bracket(VectorField.frame(R2, 1), VectorField.frame(R2, 2))

    def test_coordinate_computation(self):
        X = VectorField.frame(R2, 1)
        Y = VectorField(R2, [CoefficientFunction.zero(R2), x(R2, 1)])
        assert vf_bracket(X, Y) == VectorField.frame(R2, 2)

    def test_componentwise_formula_vs_action_on_functions(self):
        # frozen case: [x^1 e_1, x^1 e_2] = x^1 e_2
        X = VectorField(R2, [x(R2, 1), CoefficientFunction.zero(R2)])
        Y = VectorField(R2, [CoefficientFunction.zero(R2), x(R2, 1)])
        B = vf_bracket(X, Y)
        assert B == VectorField(R2, [CoefficientFunction.zero(R2), x(R2, 1)])
        # oracle: the bracket acts on functions as XY - YX
        rng = random.Random(1)
        for _ in range(10):
            f = DifferentialForm.from_scalar(
                CoefficientFunction(R2, {(2, 0): GaussianRational(1), (1, 1): GaussianRational(3)})
            )
            lhs = lie_vector_form(B, f)
            rhs = lie_vector_form(X, lie_vector_form(Y, f)) - lie_vector_form(
                Y, lie_vector_form(X, f)
            )
            assert lhs == rhs


class TestTensorLieDerivative:
    def test_constants_are_invariant(self):
        K = VectorValuedForm.decomposable(e(R4, 2), 3)
        assert not lie_tensor(VectorField.frame(R4, 1), K)

    def test_translation(self):
        K = VectorValuedForm.decomposable(e(R4, 2).mul_function(x(R4, 1)), 3)
        out = lie_tensor(VectorField.frame(R4, 1), K)
        assert out == VectorValuedForm.decomposable(e(R4, 2), 3)

    def test_leibniz_route_agrees_with_bracket_route(self):
        rng = random.Random(2)
        X = VectorField(R2, [CoefficientFunction.zero(R2), x(R2, 2)])
        K = VectorValuedForm.decomposable(e(R2, 1), 1)
        assert lie_tensor(X, K) == fn_bracket(
            VectorValuedForm.from_vector_field(X), K
        )
        for _ in range(40):
            space = R4 if rng.random() < 0.5 else R2
            Xr = random_vector_field(space, rng)
            Kr = random_vvform(space, rng, max_degree=2)
            assert lie_tensor(Xr, Kr) == fn_bracket(
                VectorValuedForm.from_vector_field(Xr), Kr
            )


class TestNijenhuisLie:
    def test_scalar_case_reduces_to_insertion_of_differential(self):
        from fncalc.exterior import insert_vector, ext_deriv

        rng = random.Random(3)
        for _ in range(15):
            K = random_vvform(R4, rng, max_degree=1)
            if K.degree != 1:
                continue
            f = DifferentialForm.from_scalar(x(R4, rng.randint(1, 4)))
            assert nijenhuis_lie(K, f) == insert_vector(K, ext_deriv(f))

    def test_complex_rotation_derivative_matches_independent_dc(self):
        # with the symplectic-style contraction on R^2, the derivative of
        # x^1 is the second coframe vector
        omega_hat = contract_metric(e(R2, 1, 2))
        out = nijenhuis_lie(omega_hat, DifferentialForm.from_scalar(x(R2, 1)))
        assert out == e(R2, 2)

    def test_degree_zero_agrees_with_vector_lie_derivative(self):
        rng = random.Random(4)
        for _ in range(50):
            X = random_vector_field(R4, rng)
            a = random_form(R4, rng.randint(0, 3), rng)
            assert nijenhuis_lie(
                VectorValuedForm.from_vector_field(X), a
            ) == lie_vector_form(X, a)

    def test_degree_k_derivation_over_wedge(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(1, 2)
            K = VectorValuedForm(R4, k, [random_form(R4, k, rng) for _ in range(4)])
            p = rng.randint(0, 2)
            a = random_form(R4, p, rng)
            b = random_form(R4, rng.randint(0, 2), rng)
            s = sign(k * p)
            lhs = nijenhuis_lie(K, wedge(a, b))
            rhs = wedge(nijenhuis_lie(K, a), b) + wedge(a, nijenhuis_lie(K, b)).scale(s)
            assert lhs == rhs


class TestBracket:
    def test_constant_decomposables_commute(self):
        K = VectorValuedForm.decomposable(e(R4, 1), 2)
        L = VectorValuedForm.decomposable(e(R4, 2), 3)
        assert not fn_bracket(K, L)

    def test_degree_zero_reduces_to_vector_bracket(self):
        X = VectorField.frame(R2, 1)
        Y = VectorField(R2, [CoefficientFunction.zero(R2), x(R2, 1)])
        out = fn_bracket(
            VectorValuedForm.from_vector_field(X), VectorValuedForm.from_vector_field(Y)
        )
        assert out.to_vector_field() == vf_bracket(X, Y)

    def test_frozen_mixed_degree_value(self):
        # [e^1 (x) e_1, x^1 e^2 (x) e_2] = e^{12} (x) e_2 by direct expansion
        K = VectorValuedForm.decomposable(e(R2, 1), 1)
        L = VectorValuedForm.decomposable(e(R2, 2).mul_function(x(R2, 1)), 2)
        assert fn_bracket(K, L) == VectorValuedForm.decomposable(e(R2, 1, 2), 2)

    def test_action_homomorphism_on_samples(self):
        rng = random.Random(6)
        for _ in range(40):
            K1 = random_vvform(R4, rng, max_degree=2)
            K2 = random_vvform(R4, rng, max_degree=2)
            a = random_form(R4, rng.randint(0, 2), rng)
            lhs = nijenhuis_lie(fn_bracket(K1, K2), a)
            s = sign(K1.degree * K2.degree)
            rhs = nijenhuis_lie(K1, nijenhuis_lie(K2, a)) - nijenhuis_lie(
                K2, nijenhuis_lie(K1, a)
            ).scale(s)
            assert lhs == rhs

    def test_graded_antisymmetry_on_samples(self):
        rng = random.Random(7)
        for _ in range(50):
            K = random_vvform(R4, rng)
            L = random_vvform(R4, rng)
            s = sign(K.degree * L.degree)
            assert not fn_bracket(K, L) + fn_bracket(L, K).scale(s)

    def test_graded_jacobi_on_samples(self):
        rng = random.Random(8)
        for _ in range(25):
            Ks = [random_vvform(R4, rng, max_degree=2) for _ in range(3)]
            p1, p2, p3 = (K.degree for K in Ks)
            total = fn_bracket(Ks[0], fn_bracket(Ks[1], Ks[2])).scale(sign(p1 * p3))
            total = total + fn_bracket(Ks[1], fn_bracket(Ks[2], Ks[0])).scale(sign(p2 * p1))
            total = total + fn_bracket(Ks[2], fn_bracket(Ks[0], Ks[1])).scale(sign(p3 * p2))
            assert not total


class TestMaurerCartan:
    def test_constant_even_form_passes(self):
        assert mc_check(e(R2, 1, 2)).holds

    def test_dual_of_g2_form_passes(self):
        from fncalc.g2 import standard_phi
        from fncalc.exterior import hodge_star

        star_phi = hodge_star(standard_phi().phi)
        assert mc_check(star_phi).holds

    def test_non_parallel_probe_fails_with_frozen_witness(self):
        psi = e(R2, 1, 2).mul_function(x(R2, 1))
        result = mc_check(psi)
        assert not result.holds
        expected = VectorValuedForm.decomposable(
            e(R2, 1, 2).mul_function(x(R2, 1)).scale(4), 2
        )
        assert result.witness == expected

    def test_odd_degree_rejected(self):
        with pytest.raises(DegreeError):
            mc_check(e(R2, 1))
        with pytest.raises(DegreeError):
            mc_check(DifferentialForm.unit(R2))
