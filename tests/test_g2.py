"""Structure algebra of the standard positive 3-form and its companions."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import numpy as np
import pytest

import reference
from fncalc import g2, linalg
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
    torus_space,
    wedge,
)
from fncalc.multiindex import all_indices, index_position, space_dim
from fncalc.sampling import random_form
from fncalc.scalars import GaussianRational

R7 = affine_space(7)
R4 = affine_space(4)
STANDARD = g2.standard_phi(R7)


def frame(i):
    return VectorField.frame(R7, i)


def const_form(space, degree, rng, density=0.5):
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

    def test_standard_metric_entries_are_plain_ints(self):
        # the canonical rule of `scalars`: a real integer is stored as an int
        matrix = g2.metric_from_3form(g2.standard_phi()).matrix
        assert all(type(x) is int for row in matrix for x in row)

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


def field_det(M):
    """Determinant by elimination over the rationals, the reference for the
    fraction-free _det."""
    rows = [[Fraction(x) for x in row] for row in M]
    n, det = len(rows), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def assert_spans_the_field_kernel(basis, M):
    """The integer vectors are primitive and as many as the field lane's
    kernel vectors of M, and each of those, scaled to integers, lies in
    their span."""
    field = reference.nullspace(M)
    assert len(basis) == len(field)
    for v in basis:
        assert all(type(x) is int for x in v) and gcd(*v) == 1
    for w in field:
        w = [Fraction(x) if isinstance(x, int) else x.real for x in w]
        scale = lcm(*(x.denominator for x in w))
        scaled = [int(x * scale) for x in w]
        assert linalg.int_ranks([basis + [scaled]]) == [len(basis)]


def honest_metric(phi, point=(0,) * 7):
    """The normalized metric from honest_gram and field_det, each float
    converted from its exact rational."""
    B = [[x.real for x in row] for row in honest_gram(phi, point)]
    Bf = np.array([[float(x) for x in row] for row in B])
    return (6.0 ** (-2.0 / 9.0)) * float(field_det(B)) ** (-1.0 / 9.0) * Bf


def mixed_denominator_phi():
    # the standard form with e^123 scaled by 1/3 and e^145 by 2/5: positive,
    # since the coframe scalings reach any positive coefficients of phi
    terms = STANDARD.phi.coefficients()
    terms[(1, 2, 3)] = CoefficientFunction.constant(R7, GaussianRational(Fraction(1, 3)))
    terms[(1, 4, 5)] = CoefficientFunction.constant(R7, GaussianRational(Fraction(2, 5)))
    return DifferentialForm(R7, 3, terms)


def affine_phi():
    terms = STANDARD.phi.coefficients()
    terms[(1, 2, 7)] = CoefficientFunction.coordinate(R7, 1).scale(
        GaussianRational(Fraction(1, 2))
    )
    terms[(2, 4, 6)] = terms[(2, 4, 6)] + CoefficientFunction.coordinate(
        R7, 3
    ) * CoefficientFunction.coordinate(R7, 5)
    return DifferentialForm(R7, 3, terms)


def seeded_pullbacks(seed, count):
    from fncalc.suites import random_glplus

    rng = random.Random(seed)
    return [g2.pullback_3form(random_glplus(rng)[0], STANDARD) for _ in range(count)]


class TestGramMatrix:
    def check(self, phi, point, D):
        """gram_matrix gives D^3 B on Python ints, B the honest Gram."""
        B, got_D = g2.gram_matrix(phi, point)
        assert got_D == D
        assert all(type(x) is int for row in B for x in row)
        assert B == [[D**3 * x for x in row] for row in honest_gram(phi, point)]
        return B

    def test_standard_form(self):
        B = self.check(STANDARD.phi, (0,) * 7, 1)
        assert B == [[6 if i == j else 0 for j in range(7)] for i in range(7)]

    def test_seeded_pullbacks(self):
        for pulled in seeded_pullbacks(5, 3):
            D = lcm(*(x.real.denominator for x in pulled.phi.terms.values()))
            assert D > 1
            B = self.check(pulled.phi, (0,) * 7, D)
            assert any(B[i][j] for i in range(7) for j in range(7) if i != j)
            # all 49 entries are computed, so symmetry is a check
            assert B == [list(col) for col in zip(*B)]

    def test_mixed_denominators(self):
        self.check(mixed_denominator_phi(), (0,) * 7, 15)

    def test_non_constant_form_at_a_rational_point(self):
        # a non-constant phi is frozen with eval_exact before the products
        phi = affine_phi()
        assert not phi.is_constant()
        pt = (Fraction(1, 3), -2, Fraction(5, 7), 1, 0, Fraction(-1, 2), 3)
        # the coefficient at e^127 is 1/6 there, and x5 = 0 leaves e^246 at 1
        B = self.check(phi, pt, 6)
        assert B != self.check(phi, (0,) * 7, 1)

    def test_non_real_form_is_rejected_before_any_product(self, monkeypatch):
        terms = STANDARD.phi.coefficients()
        terms[(1, 2, 3)] = CoefficientFunction.constant(R7, GaussianRational(1, 1))
        structure = g2.G2Structure(R7, DifferentialForm(R7, 3, terms))

        def product(*args):
            raise AssertionError("a product was formed")

        for kernel in ("_insert_frame_terms", "_wedge_terms", "_star_terms", "transform_terms"):
            monkeypatch.setattr(g2, kernel, product)
        with pytest.raises(g2.NonPositiveFormError, match="non-real"):
            g2.metric_from_3form(structure)
        with pytest.raises(g2.NonPositiveFormError, match="non-real"):
            g2.pullback_3form(np.eye(7, dtype=int).tolist(), structure)


class TestIntegerLane:
    def test_bareiss_det_equals_field_elimination(self):
        rng = random.Random(11)
        mats = [[[rng.randint(-6, 6) * (rng.random() < 0.7) for _ in range(n)] for _ in range(n)]
                for n in (1, 2, 3, 5, 7, 7, 7, 7) for _ in range(6)]
        mats.append([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # two swaps: det +1
        mats.append([[0, 1], [1, 0]])  # one swap: det -1
        mats.append([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # singular
        mats.append([[0, 0], [3, 4]])  # no pivot in the first column
        mats.append([])  # 0 x 0: det 1
        zero_column = [[1, 0, 2], [3, 0, 4], [5, 0, 6]]
        mats.append(zero_column)
        cycle = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
        mats.append(cycle)  # three swaps: det -1
        grams = [g2.gram_matrix(p.phi, (0,) * 7)[0] for p in seeded_pullbacks(6, 2)]
        mats += grams + [[[2**70 * x for x in row] for row in M] for M in grams]
        for M in mats:
            det = g2._det(M)
            assert type(det) is int
            assert det == field_det(M), M
        assert g2._det([[1, 2], [3, 4]]) == -2
        assert (g2._det([]), g2._det(zero_column), g2._det(cycle)) == (1, 0, -1)
        for M in grams:  # one more swap flips the sign; a 2**70 scale multiplies by 2**490
            assert g2._det([M[1], M[0], *M[2:]]) == -g2._det(M) != 0
            assert g2._det([[2**70 * x for x in row] for row in M]) == 2**490 * g2._det(M)

    def test_kernel_spans_the_field_kernel(self):
        # seeded integer matrices, a zero and a full-rank one among them: the
        # integer basis has the field lane's size, is primitive and annihilated,
        # and each field-lane vector, scaled to integers, lies in its span
        rng = random.Random(29)
        cases = [[[0] * 4 for _ in range(3)], [[2, 0, 1], [0, 3, 1], [1, 1, 0]], [[5, -3, 7, 0, 2]]]
        for _ in range(150):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            M = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.3 and m >= 2:
                M[rng.randrange(m)] = [2 * x for x in M[rng.randrange(m)]]
            cases.append(M)
        for M in cases:
            n = len(M[0])
            basis = g2._kernel(M, n)
            assert_spans_the_field_kernel(basis, [[GaussianRational(x) for x in row] for row in M])
            assert len(basis) == n - linalg.int_ranks([M])[0]
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M)
        assert g2._kernel([[1, 0], [0, 1]], 2) == []
        assert g2._kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_metric_floats_are_those_of_the_exact_rationals(self):
        # a wrong power of D in either float conversion changes these bits
        forms = [p.phi for p in seeded_pullbacks(7, 3)] + [mixed_denominator_phi()]
        for phi in forms:
            metric = g2.metric_from_3form(g2.G2Structure(R7, phi))
            assert not metric.exact
            assert np.array_equal(metric.as_array(), honest_metric(phi))

    def test_pullback_equals_the_exact_coframe_change(self):
        from fncalc.exterior import transform_terms
        from fncalc.suites import random_glplus

        rng = random.Random(8)
        doubling = [[2 * (i == j) for j in range(7)] for i in range(7)]
        for structure in (STANDARD, g2.G2Structure(R7, mixed_denominator_phi())):
            # the doubling map pulls the standard form back to integers
            for A in (random_glplus(rng)[0], doubling):
                rows = [[GaussianRational(x) for x in row] for row in A]
                expected = transform_terms(R7, structure.phi.terms, rows)
                got = g2.pullback_3form(A, structure).phi.terms
                # same values in the same order, each an int exactly when it
                # is a real integer
                assert list(got.items()) == list(expected.items())
                assert all(
                    type(v) is int or type(v) is GaussianRational and v.real.denominator > 1
                    for v in got.values()
                )

    def test_each_structure_builds_its_metric_once_per_point(self, monkeypatch):
        calls = []
        real = g2.gram_matrix
        monkeypatch.setattr(g2, "gram_matrix", lambda phi, point: calls.append(point) or real(phi, point))
        st = g2.standard_phi()
        first = g2.metric_from_3form(st)
        assert g2.metric_from_3form(st, (Fraction(0),) * 7) is first
        g2.chi(st)
        g2.cayley_map(st)
        assert len(calls) == 1
        g2.metric_from_3form(st, (1,) + (0,) * 6)
        g2.metric_from_3form(g2.standard_phi())
        assert len(calls) == 3


def loop_form_to_tensor(coeffs, degree):
    """The permutation loop that _form_to_tensor replaces."""
    T = np.zeros((7,) * degree)
    for (idx, _), val in coeffs.items():
        base = tuple(i - 1 for i in idx)
        for perm in permutations(range(degree)):
            inv = sum(perm[a] > perm[b] for a in range(degree) for b in range(a + 1, degree))
            T[tuple(base[p] for p in perm)] = (-1 if inv % 2 else 1) * val
    return T


class TestFormToTensor:
    def test_equals_the_permutation_loop_bit_for_bit(self):
        from fncalc.multiindex import all_indices

        rng = random.Random(9)
        for degree in (1, 2, 3, 4):
            for _ in range(4):
                coeffs = {
                    (idx, ()): rng.choice((0.0, -0.0, rng.uniform(-3, 3), -1e-300))
                    for idx in all_indices(7, degree)
                    if rng.random() < 0.5
                }
                got, expected = g2._form_to_tensor(coeffs, degree), loop_form_to_tensor(coeffs, degree)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not g2._form_to_tensor({}, 3).any()


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


def row_loop_pullback(A, T):
    """The kernel's earlier form, one np.flatnonzero per nonzero row (p, q, r)."""
    Ainv = np.linalg.inv(A)
    out = np.zeros(7**4)
    for p, q, r in zip(*np.nonzero(T.any(axis=3))):
        ABC = ((A[p][:, None] * A[q]).ravel()[:, None] * A[r]).ravel()
        row = T[p, q, r]
        s, *more = np.flatnonzero(row)
        acc = np.multiply.outer(ABC, Ainv[:, s]) * row[s]
        for s in more:
            acc += np.multiply.outer(ABC, Ainv[:, s]) * row[s]
        out += acc.ravel()
    return out.reshape((7,) * 4)


class TestPullbackKernel:
    # the sparse kernel fixes numpy's unoptimized summation order, so its
    # floats must equal the einsum's bit for bit, not merely closely

    def test_equals_the_row_loop_bit_for_bit(self):
        from fncalc.suites import random_glplus

        rng = random.Random(24)
        nprng = np.random.default_rng(24)
        tensors = [g2.cayley_map(STANDARD), g2.cayley_map(g2.G2Structure(R7, mixed_denominator_phi()))]
        for _ in range(4):
            T = nprng.standard_normal((7, 7, 7, 7))
            T[nprng.random((7, 7, 7, 7)) < 0.6] = 0.0
            tensors.append(T)
        for T in tensors:
            _, arr = random_glplus(rng)
            assert np.array_equal(g2.pullback_chi_tensor(arr, T), row_loop_pullback(arr, T))

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

    def test_gram_determinant_equals_the_field_rank(self):
        # seeded constant real forms with rational coefficients on R^2 to
        # R^6: psi is multisymplectic iff v -> i_v psi has rank n in the
        # field lane of the reference
        rng = random.Random(31)
        verdicts = []
        for _ in range(320):
            n = rng.randint(2, 6)
            space = affine_space(n)
            degree, density = rng.randint(1, n), rng.choice((0.3, 0.6, 0.9))
            terms = {
                idx: CoefficientFunction.constant(space, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for idx in all_indices(n, degree)
                if rng.random() < density
            }
            psi = DifferentialForm(space, degree, terms)
            verdicts.append(g2.multisymplectic_check(psi))
            assert verdicts[-1] == (reference.rank(contraction_matrix(psi)) == n), psi
        assert 50 <= sum(verdicts) <= len(verdicts) - 50  # both verdicts are well sampled

    def test_non_real_form_raises(self):
        psi = DifferentialForm.coframe(R4, (1, 2)) + DifferentialForm.coframe(
            R4, (3, 4), GaussianRational(0, 1)
        )
        with pytest.raises(ValueError, match="real coefficients"):
            g2.multisymplectic_check(psi)


def contraction_matrix(psi):
    """The matrix of v -> i_v psi on the frame bases, exact entries."""
    n = psi.space.dim
    pos = index_position(n, psi.degree - 1)
    rows = [[0] * n for _ in range(space_dim(n, psi.degree - 1))]
    for i in range(1, n + 1):
        for (idx, _), val in insert_frame(i, psi).terms.items():
            rows[pos[idx]][i - 1] = val
    return rows


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

    def test_closed_form_projections_equal_the_gram_projections(self):
        # every (component, basis form) pair: 2 * 21 + 3 * 35 = 147
        pairs = 0
        for component, (degree, _) in g2.G2_COMPONENTS.items():
            for idx in all_indices(7, degree):
                basis = DifferentialForm.coframe(R7, idx)
                expected = reference.gram_type_project(basis, component)
                assert g2.g2_type_project(basis, component) == expected, (component, idx)
                pairs += 1
        assert pairs == 147

    def test_closed_form_projections_of_variable_coefficients(self):
        # seeded polynomial forms, each with an x^3 e^{1,2(,3)} term
        rng = random.Random(32)
        x3 = CoefficientFunction.coordinate(R7, 3)
        for component, (degree, _) in g2.G2_COMPONENTS.items():
            first = DifferentialForm.coframe(R7, tuple(range(1, degree + 1)))
            b = random_form(R7, degree, rng, max_terms=4) + first.mul_function(x3)
            expected = reference.gram_type_project(b, component)
            assert g2.g2_type_project(b, component) == expected, component

    def test_projections_on_the_torus_equal_those_on_r7(self):
        # the spans are built on the form's own space
        T7 = torus_space(7)
        for component, (degree, _) in g2.G2_COMPONENTS.items():
            for idx in random.Random(33).sample(all_indices(7, degree), 5):
                flat = g2.g2_type_project(DifferentialForm.coframe(R7, idx), component)
                on_torus = g2.g2_type_project(DifferentialForm.coframe(T7, idx), component)
                assert on_torus.space == T7 and on_torus.terms == flat.terms

    @pytest.mark.parametrize("degree", [2, 3])
    def test_span_check_catches_a_dropped_term(self, monkeypatch, degree):
        # i_{e_1} phi (degree 2) or i_{e_1} *phi (degree 3) without its last
        # term has squared norm 2 or 3, not its span's 3 or 4
        real = g2.insert_frame

        def dropped(i, a):
            out = real(i, a)
            if i == 1:
                *_, last = out.terms
                out = DifferentialForm._of(
                    out.space, out.degree, {k: v for k, v in out.terms.items() if k != last}
                )
            return out

        monkeypatch.setattr(g2, "insert_frame", dropped)
        with pytest.raises(ValueError, match="not orthonormal"):
            g2._type_spans.__wrapped__(R7, degree)  # the uncached build

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
        assert mc_check(g2.kahler_form(2)).holds
        assert mc_check(g2.kahler_form(3)).holds
        assert mc_check(g2.spin7_form()).holds
        w = g2.kahler_form(3)
        half_square = wedge(w, w).scale(GaussianRational(Fraction(1, 2)))
        assert mc_check(half_square).holds

    def test_spin7_form_has_fourteen_terms(self):
        phi8 = g2.spin7_form()
        assert phi8.degree == 4 and phi8.space.dim == 8
        assert len(phi8.coefficients()) == 14


def stabilizer_matrix(psi):
    """The matrix of X -> X.psi on the basis E_ab - E_ba, a < b, by the
    exact form operations: column (a, b) holds e^a ^ i_b psi - e^b ^ i_a psi
    on the frame basis of psi's degree."""
    n, pos = psi.space.dim, index_position(psi.space.dim, psi.degree)
    e = lambda a: DifferentialForm.coframe(psi.space, (a,))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    M = [[GaussianRational(0)] * len(pairs) for _ in range(space_dim(n, psi.degree))]
    for c, (a, b) in enumerate(pairs):
        image = wedge(e(a), insert_frame(b, psi)) - wedge(e(b), insert_frame(a, psi))
        for (idx, _), val in image.terms.items():
            M[pos[idx]][c] = val
    return M


def acting(X, psi):
    """X.psi = sum_ab X_ab e^a ^ i_b psi, by the exact form operations."""
    out = DifferentialForm.zero(psi.space, psi.degree)
    for a, row in enumerate(X, 1):
        for b, x in enumerate(row, 1):
            if x:
                out = out + wedge(DifferentialForm.coframe(psi.space, (a,)), insert_frame(b, psi)).scale(x)
    return out


def stabilizer_cases():
    from fncalc.suites import named_psi

    return [
        pytest.param(lambda: hodge_star(STANDARD.phi), 14, id="star-phi"),
        pytest.param(lambda: STANDARD.phi, 14, id="phi"),
        pytest.param(lambda: g2.kahler_form(2), 4, id="kahler-r4"),
        pytest.param(lambda: g2.kahler_form(3), 9, id="kahler-r6"),
        pytest.param(g2.spin7_form, 21, id="spin7-r8"),
        pytest.param(lambda: named_psi("toroidal:7:e{1,2,3,4} + e{1,2,3,5}"), 9, id="torus-pair"),
        pytest.param(
            lambda: named_psi("toroidal:7:e{1,2,3,4} - e{1,5,6,7} + 2 e{2,4,6,7}"), 2, id="toroidal"
        ),
    ]


class TestStabilizer:
    @pytest.mark.parametrize("form, dim", stabilizer_cases())
    def test_a_primitive_basis_of_the_stabilizer_in_so_n(self, form, dim):
        psi = form()
        n = psi.space.dim
        gens = g2.stabilizer(psi)
        assert len(gens) == dim
        for X in gens:
            assert all(X[a][b] == -X[b][a] for a in range(n) for b in range(n))
            assert not acting(X, psi)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert_spans_the_field_kernel([[X[a][b] for a, b in pairs] for X in gens], stabilizer_matrix(psi))

    def test_a_rational_form_has_the_stabilizer_of_its_integer_multiple(self):
        psi = hodge_star(STANDARD.phi)
        gens = g2.stabilizer(psi.scale(Fraction(2, 3)))
        assert len(gens) == 14 and gens == g2.stabilizer(psi.scale(2**70))


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
