"""Structure algebra of the standard positive 3-form and its companions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from fncalc import g2
from fncalc.bracket import fn_bracket, mc_check, nijenhuis_lie
from fncalc.dolbeault import dc
from fncalc.exterior import (
    CoefficientFunction,
    DifferentialForm,
    VectorField,
    affine_space,
    contract_metric,
    evaluate,
    hodge_star,
    insert_frame,
    wedge,
)
from fncalc.sampling import random_form
from fncalc.scalars import GaussianRational

R7 = affine_space(7)
R4 = affine_space(4)
STANDARD = g2.standard_phi(R7)


def frame(i):
    return VectorField.frame(R7, i)


def const_form(space, degree, rng, density=0.5):
    from fncalc.multiindex import all_indices

    terms = {}
    for idx in all_indices(space.dim, degree):
        if rng.random() < density:
            v = rng.randint(-3, 3)
            if v:
                terms[idx] = CoefficientFunction.constant(space, v)
    return DifferentialForm(space, degree, terms)


class TestStandardForm:
    def test_term_values(self):
        phi = STANDARD.phi
        assert evaluate(phi, [frame(1), frame(2), frame(3)]).constant_value() == GaussianRational(1)
        assert not evaluate(phi, [frame(1), frame(2), frame(4)])
        assert evaluate(phi, [frame(2), frame(5), frame(7)]).constant_value() == GaussianRational(-1)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            g2.standard_phi(affine_space(6))

    def test_positivity_at_sample_points(self):
        for pt in [(0,) * 7, tuple(Fraction(n, 3) for n in range(7))]:
            m = g2.metric_from_3form(STANDARD, pt)
            assert m.exact


class TestInducedMetric:
    def test_standard_calibration_is_identity(self):
        m = g2.metric_from_3form(STANDARD)
        one, zero = GaussianRational(1), GaussianRational(0)
        assert m.exact
        assert all(
            m.matrix[i][j] == (one if i == j else zero)
            for i in range(7)
            for j in range(7)
        )

    def test_linear_pullback_transforms_metric(self):
        A = [[Fraction(2 if i == 0 and j == 0 else (1 if i == j else 0)) for j in range(7)] for i in range(7)]
        pulled = g2.pullback_3form(A, STANDARD)
        m = g2.metric_from_3form(pulled).as_array()
        expected = np.diag([4.0, 1, 1, 1, 1, 1, 1])
        assert np.abs(m - expected).max() < 1e-9

    def test_degenerate_form_rejected(self):
        # dropping enough terms makes the density matrix singular
        bad = DifferentialForm(R7, 3, {(1, 2, 3): CoefficientFunction.constant(R7, 1)})
        with pytest.raises(g2.NonPositiveFormError):
            g2.metric_from_3form(g2.G2Structure(R7, bad))


def honest_gram(phi, point):
    """B(x,y) vol = i_x phi ^ i_y phi ^ phi from the public form operators,
    evaluated at the point after the products."""
    vol = tuple(range(1, 8))
    B = []
    for i in range(1, 8):
        row = []
        for j in range(1, 8):
            w = wedge(wedge(insert_frame(i, phi), insert_frame(j, phi)), phi)
            coeff = w.coefficients().get(vol, CoefficientFunction.zero(R7))
            row.append(coeff.eval_exact(point))
        B.append(row)
    return B


class TestGramMatrix:
    def test_standard_form(self):
        B = g2.gram_matrix(STANDARD.phi, (0,) * 7)
        assert B == honest_gram(STANDARD.phi, (0,) * 7)
        assert B == [[GaussianRational(6 if i == j else 0) for j in range(7)] for i in range(7)]

    def test_seeded_pullbacks(self):
        from fncalc.suites import random_glplus

        rng = random.Random(5)
        for _ in range(3):
            A, _ = random_glplus(rng)
            phi = g2.pullback_3form(A, STANDARD).phi
            B = g2.gram_matrix(phi, (0,) * 7)
            assert B == honest_gram(phi, (0,) * 7)
            assert any(B[i][j] for i in range(7) for j in range(7) if i != j)
            # all 49 entries are computed, so symmetry is a check
            assert B == [list(col) for col in zip(*B)]

    def test_non_constant_form_at_a_rational_point(self):
        # a non-constant phi is frozen with eval_exact before the products
        terms = STANDARD.phi.coefficients()
        terms[(1, 2, 7)] = CoefficientFunction.coordinate(R7, 1).scale(
            GaussianRational(Fraction(1, 2))
        )
        terms[(2, 4, 6)] = terms[(2, 4, 6)] + CoefficientFunction.coordinate(
            R7, 3
        ) * CoefficientFunction.coordinate(R7, 5)
        phi = DifferentialForm(R7, 3, terms)
        assert not phi.is_constant()
        pt = (Fraction(1, 3), -2, Fraction(5, 7), 1, 0, Fraction(-1, 2), 3)
        B = g2.gram_matrix(phi, pt)
        assert B == honest_gram(phi, pt)
        assert B != g2.gram_matrix(phi, (0,) * 7)


class TestCrossProductTensor:
    def test_vanishes_on_coordinate_associative_plane(self):
        X = g2.chi(STANDARD)
        vals = [evaluate(c, [frame(1), frame(2), frame(3)]) for c in X.components]
        assert not any(vals)

    def test_nonzero_on_non_associative_triple(self):
        X = g2.chi(STANDARD)
        vals = [evaluate(c, [frame(1), frame(2), frame(4)]) for c in X.components]
        nonzero = [i for i, v in enumerate(vals, start=1) if v]
        assert nonzero == [7]
        # the sign is convention-dependent; record rather than assert
        assert vals[6].constant_value() in (GaussianRational(1), GaussianRational(-1))

    def test_dual_form_is_maurer_cartan(self):
        assert mc_check(hodge_star(STANDARD.phi)).holds

    def test_pointwise_map_matches_exact_tensor(self):
        T_exact = g2.chi_tensor_exact(STANDARD)
        T_num = g2.cayley_map(STANDARD)
        assert np.abs(T_exact - T_num).max() < 1e-12

    def test_equivariance_sampled(self):
        rng = random.Random(0)
        base = g2.cayley_map(STANDARD)
        from fncalc.suites import random_glplus

        for _ in range(5):
            A, arr = random_glplus(rng)
            lhs = g2.cayley_map(g2.pullback_3form(A, STANDARD))
            rhs = g2.pullback_chi_tensor(arr, base)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_injectivity_witness(self):
        rng = random.Random(1)
        from fncalc.suites import random_glplus

        A, _ = random_glplus(rng)
        other = g2.pullback_3form(A, STANDARD)
        assert np.abs(g2.cayley_map(other) - g2.cayley_map(STANDARD)).max() > 1e-6

    def test_torsion_free_bracket_vanishes_exactly(self):
        X = g2.chi(STANDARD)
        assert not fn_bracket(X, X)

    def test_non_closed_perturbation_breaks_the_bracket(self):
        terms = STANDARD.phi.coefficients()
        terms[(1, 2, 7)] = CoefficientFunction.coordinate(R7, 1).scale(
            GaussianRational(Fraction(1, 2))
        )
        perturbed = g2.G2Structure(R7, DifferentialForm(R7, 3, terms))
        pt = (0.31, 0.12, -0.21, 0.44, 0.05, -0.37, 0.5)
        assert g2.numeric_bracket_of_chi(STANDARD, pt) < 1e-6
        assert g2.numeric_bracket_of_chi(perturbed, pt) > 1e-6


def einsum_pullback(A, T):
    """The natural action as one unoptimized numpy contraction."""
    return np.einsum("pa,qb,rc,ds,pqrs->abcd", A, A, A, np.linalg.inv(A), T)


class TestPullbackKernel:
    # the sparse kernel fixes numpy's unoptimized summation order, so its
    # floats must equal the einsum's bit for bit, not merely closely

    def test_chi_tensor_bits(self):
        from fncalc.suites import random_glplus

        rng = random.Random(21)
        T = g2.cayley_map(STANDARD)
        for _ in range(24):
            _, arr = random_glplus(rng)
            assert np.array_equal(g2.pullback_chi_tensor(arr, T), einsum_pullback(arr, T))

    def test_dense_tensor_bits(self):
        from fncalc.suites import random_glplus

        rng = random.Random(22)
        nprng = np.random.default_rng(22)
        for _ in range(6):
            _, arr = random_glplus(rng)
            T = nprng.standard_normal((7, 7, 7, 7))
            T[nprng.random((7, 7, 7, 7)) < 0.3] = 0.0
            assert np.array_equal(g2.pullback_chi_tensor(arr, T), einsum_pullback(arr, T))

    def test_zero_tensor(self):
        from fncalc.suites import random_glplus

        _, arr = random_glplus(random.Random(23))
        T = np.zeros((7, 7, 7, 7))
        out = g2.pullback_chi_tensor(arr, T)
        assert out.shape == (7, 7, 7, 7)
        assert np.array_equal(out, einsum_pullback(arr, T))
        assert not out.any()


class TestMultisymplectic:
    def test_symplectic_form_on_r4(self):
        assert g2.multisymplectic_check(g2.kahler_form(2))

    def test_dual_g2_form(self):
        assert g2.multisymplectic_check(hodge_star(STANDARD.phi))

    def test_degenerate_two_form_on_r3(self):
        r3 = affine_space(3)
        psi = DifferentialForm.coframe(r3, (1, 2))
        assert not g2.multisymplectic_check(psi)


class TestTypeDecomposition:
    def test_projection_ranks(self):
        assert g2.projection_matrix_rank("2_7") == 7
        assert g2.projection_matrix_rank("2_14") == 14
        assert g2.projection_matrix_rank("3_1") == 1
        assert g2.projection_matrix_rank("3_7") == 7
        assert g2.projection_matrix_rank("3_27") == 27

    def test_seven_component_contains_frame_insertions(self):
        contraction = insert_frame(1, STANDARD.phi)
        assert g2.g2_type_project(contraction, "2_7") == contraction
        assert not g2.g2_type_project(contraction, "2_14")

    def test_completeness_and_idempotence_degree2(self):
        rng = random.Random(2)
        for _ in range(8):
            b = const_form(R7, 2, rng)
            p7 = g2.g2_type_project(b, "2_7")
            p14 = g2.g2_type_project(b, "2_14")
            assert p7 + p14 == b
            assert g2.g2_type_project(p7, "2_7") == p7
            assert g2.g2_type_project(p14, "2_14") == p14
            assert not g2.g2_type_project(p7, "2_14")
            assert not g2.g2_type_project(p14, "2_7")

    def test_completeness_and_idempotence_degree3(self):
        rng = random.Random(3)
        for _ in range(8):
            b = const_form(R7, 3, rng)
            parts = {c: g2.g2_type_project(b, c) for c in ("3_1", "3_7", "3_27")}
            assert parts["3_1"] + parts["3_7"] + parts["3_27"] == b
            for c, p in parts.items():
                assert g2.g2_type_project(p, c) == p
            assert not g2.g2_type_project(parts["3_7"], "3_1")
            assert not g2.g2_type_project(parts["3_27"], "3_7")

    def test_degree2_pieces_are_eigenspaces_of_star_phi_wedge(self):
        # beta -> *(phi ^ beta) is 2 on Lambda^2_7 and -1 on Lambda^2_14
        rng = random.Random(4)
        for _ in range(6):
            b = const_form(R7, 2, rng)
            for component, eigenvalue in (("2_7", 2), ("2_14", -1)):
                p = g2.g2_type_project(b, component)
                assert p, component
                assert hodge_star(wedge(STANDARD.phi, p)) == p.scale(GaussianRational(eigenvalue))

    def test_wrong_degree_rejected(self):
        with pytest.raises(Exception):
            g2.g2_type_project(DifferentialForm.coframe(R7, (1,)), "2_7")

    def test_variable_coefficients_project_pointwise(self):
        b = DifferentialForm(
            R7, 2, {(1, 2): CoefficientFunction.coordinate(R7, 3)}
        )
        p7 = g2.g2_type_project(b, "2_7")
        p14 = g2.g2_type_project(b, "2_14")
        assert p7 + p14 == b


class TestCompanionStructures:
    def test_all_parallel_forms_are_maurer_cartan(self):
        aux = g2.auxiliary_structures()
        assert mc_check(aux["kahler_r4"]).holds
        assert mc_check(aux["kahler_r6"]).holds
        assert mc_check(aux["spin7"]).holds
        w = aux["kahler_r6"]
        half_square = wedge(w, w).scale(GaussianRational(Fraction(1, 2)))
        assert mc_check(half_square).holds

    def test_spin7_form_has_fourteen_terms(self):
        phi8 = g2.spin7_form()
        assert phi8.degree == 4 and phi8.space.dim == 8
        assert len(phi8.coefficients()) == 14


class TestComplexDifferential:
    def test_coordinate_pin(self):
        omega_hat = contract_metric(g2.kahler_form(2))
        x1 = DifferentialForm.from_scalar(CoefficientFunction.coordinate(R4, 1))
        assert nijenhuis_lie(omega_hat, x1) == dc(x1) == DifferentialForm.coframe(R4, (2,))

    def test_matches_lie_derivative_on_samples(self):
        rng = random.Random(4)
        omega_hat = contract_metric(g2.kahler_form(2))
        for _ in range(30):
            a = random_form(R4, rng.randint(0, 3), rng)
            assert nijenhuis_lie(omega_hat, a) == dc(a)

    def test_dc_squares_to_zero(self):
        rng = random.Random(5)
        for _ in range(15):
            a = random_form(R4, rng.randint(0, 2), rng)
            assert not dc(dc(a))
