"""Per-mode blocks and dimension bookkeeping on the 7-torus."""

import copy
import inspect
import math
import multiprocessing
import random
import tracemalloc
from functools import cache, partial
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from fncalc import bracket, exterior, g2, linalg, torus
from fncalc.exterior import (
    CoefficientFunction,
    DifferentialForm,
    VectorValuedForm,
    contract_metric,
    insert_frame,
    sharp,
    wedge,
)
from fncalc.multiindex import all_indices, index_position, space_dim
from fncalc.scalars import GaussianRational
from fncalc.suites import SuiteConfig, named_psi, run_suite

CALC = torus.default_calculus()
K1 = (1, 0, 0, 0, 0, 0, 0)
K0 = (0,) * 7
UNITS = [tuple(int(i == j) for i in range(7)) for j in range(7)]
TEMPLATED = ("L", "Lstar", "d", "dstar")  # the kinds with integer templates
# a toroidal psi beyond the G2 default, with a non-unit coefficient
TOROIDAL = "toroidal:7:e{1,2,3,4} - e{1,5,6,7} + 2 e{2,4,6,7}"
# a rational psi, whose templates hold it scaled by the lcm 6
RATIONAL = "toroidal:7:1/2 e{1,2,3,4} + 3 e{1,2,5,6} - 2/3 e{3,4,5,7} + e{2,4,6,7}"


def random_mode(rng, bound=1):
    return tuple(rng.randint(-bound, bound) for _ in range(7))


def lane_mismatches(calc, modes):
    """The (kind, domain degree) pairs whose template block differs from the
    honest block at some mode."""
    return {
        (kind, m)
        for kind in TEMPLATED
        for m in reference.templates(calc, kind)
        for k in modes
        if reference._strip_i(reference.block(calc, kind, m, k))
        != reference.template_block(calc, kind, m, k)
    }


def ad_matrix(psi_hat, k):
    """The honest bracket differential on mode-k vector fields, from
    `fn_bracket`, as a matrix into component-major coefficients of
    tangent-valued 3-forms."""
    k = tuple(k)
    block, pos = space_dim(7, 3), index_position(7, 3)
    M = [[GaussianRational(0)] * 7 for _ in range(7 * block)]
    for c in range(7):
        X = sharp(reference.mode_form(k, (c + 1,)))
        image = bracket.fn_bracket(psi_hat, VectorValuedForm.from_vector_field(X))
        for s, comp in enumerate(image.components):
            for (idx, _), val in reference._mode_terms(k, comp).items():
                M[s * block + pos[idx]][c] = val
    return M


def ad_mismatches(calc, modes):
    """The modes at which sum_j k_j T^ad_j differs from the stripped honest
    bracket differential of the calculus' lcm-scaled psi."""
    psi_hat = contract_metric(reference.integral_psi(calc))
    return [
        k for k in modes
        if reference._strip_i(ad_matrix(psi_hat, k)) != np.tensordot(k, calc.ad, 1).tolist()
    ]


AD_MODES = UNITS + random.Random(17).sample(sorted(product((-1, 0, 1), repeat=7)), 6)


class TestModeBlocks:
    def test_shapes(self):
        assert reference.shape(reference.block(CALC, "L", 0, K1)) == (35, 1)
        assert reference.shape(reference.block(CALC, "Lstar", 3, K1)) == (1, 35)
        assert reference.shape(reference.block(CALC, "d", 3, K1)) == (35, 35)
        assert reference.shape(reference.block(CALC, "lap", 3, K1)) == (35, 35)
        # a degree out of range has no block in either lane
        for kind, m in (("L", 5), ("Lstar", 2), ("d", 7), ("dstar", 0)):
            honest = reference.block(CALC, kind, m, K1)
            assert honest == reference.template_block(CALC, kind, m, K1) == []

    def test_invariants_on_sampled_modes(self):
        # d o d = 0 and lap = |k|^2 id at sampled modes and degrees
        rng = random.Random(0)
        zero = GaussianRational(0)
        for _ in range(3):
            k, l = random_mode(rng, bound=2), rng.randint(0, 5)
            d_up, d = reference.block(CALC, "d", l + 1, k), reference.block(CALC, "d", l, k)
            comp = reference.matmul(d_up, d, zero)
            assert not any(map(any, comp))
            k2 = GaussianRational(sum(x * x for x in k))
            lap = reference.block(CALC, "lap", l, k)
            assert lap == [[k2 if i == j else zero for j in range(len(lap))] for i in range(len(lap))]

    def test_d_block_is_wedge_with_frequency(self):
        # d(exp(i x^1)) = i exp(i x^1) e^1: single entry i in the row of e^1
        col = [row[0] for row in reference.block(CALC, "d", 0, K1)]
        assert col[0] == GaussianRational(0, 1)
        assert not any(col[1:])

    def test_zero_mode_blocks_vanish(self):
        assert not any(any(row) for row in reference.block(CALC, "L", 0, K0))
        assert not any(any(row) for row in reference.block(CALC, "d", 3, K0))

    def test_template_combination_equals_direct_assembly(self):
        # the symbol-formula templates and the honest lane agree on all 24
        # (kind, domain degree) pairs at the 7 unit modes, which covers every
        # k by linearity, and at sampled modes, for the G2 and a toroidal psi
        rng = random.Random(1)
        modes = UNITS + [random_mode(rng, bound=2) for _ in range(4)]
        for calc in (CALC, torus.ModeCalculus(named_psi(TOROIDAL))):
            assert sum(len(reference.templates(calc, kind)) for kind in TEMPLATED) == 24
            assert lane_mismatches(calc, modes) == set()

    def test_lane_comparison_catches_a_flipped_adjoint_sign(self, monkeypatch):
        # the sweep takes L* and d* as torus._adjoint, -L^T and -d^T; the
        # honest lane starring through formal_adjoint is what holds that sign
        real = exterior.formal_adjoint
        monkeypatch.setattr(exterior, "formal_adjoint", lambda op, a: -real(op, a))  # d*
        monkeypatch.setattr(reference, "formal_adjoint", lambda op, a: -real(op, a))  # L*
        calc = torus.ModeCalculus()
        expected = {(kind, m) for kind in ("Lstar", "dstar") for m in reference.templates(calc, kind)}
        assert lane_mismatches(calc, UNITS) == expected

    def test_lane_comparison_catches_a_flipped_insertion_entry(self, monkeypatch):
        real = torus._assemble

        def flipped(deg_in, deg_out, image):
            M = real(deg_in, deg_out, image)
            if (deg_in, deg_out) == (1, 3):  # iota on Lambda^1, a fast-lane primitive
                r, c = next((r, c) for r, row in enumerate(M) for c, x in enumerate(row) if x)
                M[r][c] = -M[r][c]
            return M

        monkeypatch.setattr(torus, "_assemble", flipped)
        # the honest lane assembles through its own binding of _assemble
        bad = lane_mismatches(torus.ModeCalculus(), UNITS)
        assert {kind for kind, _ in bad} == {"L", "Lstar"} and ("L", 0) in bad

    def test_templates_build_without_the_form_engine(self, monkeypatch):
        calls = []
        for module, name in (
            (reference, "mode_matrix"), (reference, "_strip_i"), (reference, "nijenhuis_lie"),
            (bracket, "nijenhuis_lie"), (bracket, "fn_bracket"),
            (reference, "formal_adjoint"), (exterior, "formal_adjoint"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, partial(lambda n, f, *a: calls.append(n) or f(*a), name, real))
        for psi in (None, named_psi(TOROIDAL)):
            calc = torus.ModeCalculus(psi)
            assert sum(len(reference.templates(calc, kind)) for kind in TEMPLATED) == 24
            assert calc.ad.shape == (7, 7 * 35, 7)
        assert calls == []

    @pytest.mark.parametrize("psi", [None, RATIONAL], ids=["star-phi", "rational"])
    def test_ad_template_equals_the_bracket(self, psi):
        # sum_j k_j T^ad_j against fn_bracket on mode-k vector fields, at
        # the unit modes, which cover every k by linearity, and sampled ones
        calc = torus.ModeCalculus(psi and named_psi(psi))
        assert ad_mismatches(calc, AD_MODES) == []

    def test_ad_comparison_catches_a_dropped_term(self):
        # without v_s psi_hat_j, component s of T^ad_j v is -eps_j iota_v psi_hat_s
        calc = copy.copy(CALC)
        calc.ad, pos = calc.ad.copy(), index_position(7, 3)
        for j, comp in enumerate(contract_metric(reference.integral_psi(calc)).components):
            for (idx, _), val in comp.terms.items():
                assert type(val) is int  # the lcm-scaled psi is integral
                for s in range(7):
                    calc.ad[j, 35 * s + pos[idx], s] -= val
        assert ad_mismatches(calc, UNITS) == UNITS

    def test_ad_comparison_catches_a_flipped_contraction_entry(self, monkeypatch):
        # one entry of one iota_v psi_hat_s, the insertion into a 3-form
        real, flipped = torus._insert_frame_terms, []

        def flip_once(i, terms):
            out = real(i, terms)
            if not flipped and out and all(len(idx) == 3 for idx, _ in terms):
                key = next(iter(out))
                out[key] = -out[key]
                flipped.append(key)
            return out

        monkeypatch.setattr(torus, "_insert_frame_terms", flip_once)
        calc = torus.ModeCalculus()
        assert flipped and ad_mismatches(calc, AD_MODES)

    def test_nonconstant_psi_rejected(self):
        psi = DifferentialForm(
            torus.T7, 4, {(1, 2, 3, 4): CoefficientFunction.fourier(torus.T7, K1)}
        )
        with pytest.raises(ValueError):
            torus.check_psi(psi)
        with pytest.raises(ValueError):
            torus.ModeCalculus(psi)


class TestAdjointness:
    def test_direct_conjugate_transpose_at_sampled_modes(self):
        rng = random.Random(2)
        modes = [random_mode(rng, 2) for _ in range(4)] + [K1]
        for k in modes:
            for up, down, shift in (("d", "dstar", 1), ("L", "Lstar", 3)):
                for m in range(8 - shift):
                    H = reference.conjugate_transpose(reference.block(CALC, up, m, k))
                    assert H == reference.block(CALC, down, m + shift, k), (up, m)


def honest_summary(k):
    """mode_summary's entries recomputed from directly assembled exact
    blocks with the field-lane rank and product over Gaussian rationals."""
    zero = GaussianRational(0)
    L = [reference.block(CALC, "L", m, k) for m in range(8)]  # [] past degree 4
    Ls = [reference.block(CALC, "Lstar", m, k) for m in range(8)]  # [] below degree 3

    harmonic, cohomology, regular = [], [], []
    for l in range(8):
        dim = space_dim(7, l)
        up, down = L[l], Ls[l]
        harmonic.append(dim - reference.rank(up + down))
        rank_in = reference.rank(L[l - 3]) if l >= 3 else 0
        cohomology.append(dim - reference.rank(up) - rank_in)
        if l < 3:
            regular.append(True)
            continue
        rank_Ls = reference.rank(down)
        ok = (dim - rank_Ls) + rank_in == dim
        regular.append(
            ok and reference.rank(reference.matmul(down, L[l - 3], zero)) == rank_in
        )
    ad = ad_matrix(contract_metric(CALC.psi), k)
    out = {
        "k": list(k),
        "harmonic": harmonic,
        "cohomology": cohomology,
        "regular": regular,
        "vector_kernel": 7 - reference.rank(ad),
    }
    if any(k):
        for l in (3, 4, 7):
            r = reference.rank(L[l - 3])
            out[f"symbol_{l}"] = torus._classify(r, space_dim(7, l), space_dim(7, l - 3))
    return out


def image_in_span(basis, D):
    """dim(span(basis) cap Im D) in the field lane: dim span(basis) +
    rank D - rank [basis | D]."""
    if not basis or not D:
        return 0
    B = reference.columns_from_vectors(basis)
    return len(basis) + reference.rank(D) - reference.rank([b + d for b, d in zip(B, D)])


HONEST_FIELDS = ("kernel", "image", "harmonic", "d_part", "dstar_part")  # of a split's dims


def honest_decomposition(k):
    """The split report at every degree, recomputed from directly assembled
    exact blocks: the L ranks, and kernel bases of the harmonic stacks by
    field-lane elimination, intersected with the images of d and d*."""
    def blk(kind, m):  # [] out of range
        return reference.block(CALC, kind, m, k)

    bases = [  # ker [L out of degree m ; L* out of degree m]
        reference.nullspace(blk("L", m) + blk("Lstar", m)) for m in range(8)
    ]
    out = []
    for l in range(8):
        dstar_part = image_in_span(bases[l], blk("dstar", l + 1))
        up_d_part = image_in_span(bases[l + 1], blk("d", l)) if l <= 6 else 0
        out.append({
            "kernel": space_dim(7, l) - reference.rank(blk("L", l)),
            "image": reference.rank(blk("L", l - 3)),
            "harmonic": len(bases[l]),
            "d_part": image_in_span(bases[l], blk("d", l - 1)),
            "dstar_part": dstar_part,
            "up_d_part": up_d_part,
        })
    return out


class TestDimensions:
    def test_zero_mode_harmonics_are_all_constants(self):
        s = reference.mode_summary(CALC, K0)
        dims = [space_dim(7, l) for l in range(8)]
        assert s["harmonic"] == s["cohomology"] == dims

    def test_unit_mode_values(self):
        s = reference.mode_summary(CALC, K1)
        assert s["harmonic"] == [0, 0, 9, 27, 27, 9, 0, 0]
        assert s["cohomology"] == s["harmonic"]
        assert all(s["regular"])
        assert s["symbol_3"] == "injective"
        assert s["symbol_7"] == "surjective"
        assert s["vector_kernel"] == 0

    def test_low_degrees_vanish_at_nonzero_modes(self):
        rng = random.Random(3)
        for _ in range(6):
            k = random_mode(rng)
            if not any(k):
                continue
            harmonic = reference.mode_summary(CALC, k)["harmonic"]
            for l in (0, 1, 6, 7):
                assert harmonic[l] == 0

    def test_middle_degree_positive_at_unit_mode(self):
        assert reference.mode_summary(CALC, K1)["harmonic"][2] > 0

    def test_summary_matches_honest_lane(self):
        # the integer-template lane against exact assembly with field ranks
        rng = random.Random(4)
        for _ in range(3):
            k = random_mode(rng, 2)
            assert reference.mode_summary(CALC, k) == honest_summary(k), k

    def test_large_frequencies_stay_exact(self):
        # blocks are homogeneous in k, so every rank at c*k equals the rank
        # at k: c = 2**40 trips the double guards of the rank (2**26) and
        # the product (2**53), and c = 2**61 forms the blocks on Python ints
        k = (1, -1, 0, 1, 0, 0, 1)
        base = reference.mode_summary(CALC, k)
        for c in (2**40, 2**61):
            assert {**reference.mode_summary(CALC, tuple(c * x for x in k)), "k": base["k"]} == base

    def test_a_huge_psi_scale_changes_no_row(self):
        # psi coefficients of 2**70 give Python-int (object) templates, whose
        # rows equal those of the unscaled psi, the split and ad included
        psi = named_psi(TOROIDAL)
        calc, big = torus.ModeCalculus(psi), torus.ModeCalculus(psi.scale(2**70))
        assert big.L[0].dtype == object and big.d[0].dtype == np.int64
        modes = [K0, K1, (1, -1, 0, 1, 0, 0, 1), (0, 2, -1, 0, 0, 1, 0)]
        assert big.mode_summaries(modes, 3) == calc.mode_summaries(modes, 3)

    def test_duality_and_conjugation_symmetry(self):
        rng = random.Random(5)
        for _ in range(5):
            k = random_mode(rng, 2)
            h = reference.mode_summary(CALC, k)["harmonic"]
            h_minus = reference.mode_summary(CALC, tuple(-x for x in k))["harmonic"]
            for l in range(8):
                assert h[l] == h_minus[7 - l] == h_minus[l]

    def test_regularity_direct_subspace_route(self):
        # cross-check the product-rank shortcut against an explicit
        # kernel-basis intersection computation in the field lane
        rng = random.Random(6)
        for _ in range(3):
            k = random_mode(rng)
            regular = reference.mode_summary(CALC, k)["regular"]
            for l in (3, 4, 5, 6, 7):
                L = reference.block(CALC, "L", l - 3, k)
                Lstar = reference.block(CALC, "Lstar", l, k)
                dim = space_dim(7, l)
                ker_basis = reference.nullspace(Lstar)
                expected = (
                    len(ker_basis) + reference.rank(L) == dim
                    and image_in_span(ker_basis, L) == 0
                )
                assert regular[l] == expected


class TestStructuralChecks:
    def test_anticommutation_zero_mode(self):
        assert reference.anticommutation_check(CALC, K0)

    def test_anticommutation_unit_and_sampled_modes(self):
        assert reference.anticommutation_check(CALC, K1)
        rng = random.Random(7)
        k = random_mode(rng, 2)
        assert reference.anticommutation_check(CALC, k)

    def test_anticommutation_linear_identity_all_frequencies(self):
        assert CALC.anticommutation_linear_check()

    def test_anticommutation_linear_check_fails_on_each_changed_l_entry(self):
        # adding 1 to entry (a, 0, 0) of any L template breaks a symmetrized
        # product P[a, b] + P[b, a] for some pair: all 35 changes fail
        passed = []
        for m, a in product(CALC.L, range(7)):
            calc = copy.copy(CALC)
            calc.L = {**CALC.L, m: CALC.L[m].copy()}
            calc.L[m][a, 0, 0] += 1
            if calc.anticommutation_linear_check():
                passed.append((m, a))
        assert len(CALC.L) * 7 == 35 and passed == []

    @pytest.mark.parametrize(
        "kept, ones",
        [(("L", 0), ("d", 2)), (("L", 4), ("d", 4))],
        ids=["dstar3-L0-on-degree-0", "L4-dstar5-on-degree-5"],
    )
    def test_anticommutation_linear_check_sees_one_sided_products(self, kept, ones):
        # every template zero except L (kept) and an all-ones d_m, so d*_{m+1}
        # = -d_m^T is all minus ones: on Lambda^0 only d*_3 L_0 is in range,
        # on Lambda^5 only L_4 d*_5, so that one product alone must vanish,
        # and here it does not
        calc = copy.copy(CALC)
        for kind in ("L", "d"):
            setattr(calc, kind, {m: np.zeros_like(T) for m, T in getattr(CALC, kind).items()})
        getattr(calc, kept[0])[kept[1]] = getattr(CALC, kept[0])[kept[1]]
        getattr(calc, ones[0])[ones[1]] = np.ones_like(getattr(CALC, ones[0])[ones[1]])
        assert not calc.anticommutation_linear_check()

    @pytest.mark.parametrize(
        "kind, m, entry",
        [("L", 1, (0, 0)), ("d", 1, (0, 0)), ("dstar", 3, (0, 0)), ("lap", 2, (0, 1))],
        ids=["L", "d", "dstar", "lap"],
    )
    def test_anticommutation_fails_on_a_changed_entry(self, monkeypatch, kind, m, entry):
        # a changed d, d* or lap entry breaks only its own identity (L d =
        # -d L, L d* = -d* L, L lap = lap L), so each identity is needed;
        # a changed L entry breaks the first two, never L lap = lap L
        honest = reference.block

        def changed(calc, kind_, m_, k):
            M = honest(calc, kind_, m_, k)
            if (kind_, m_) == (kind, m):
                M = [list(row) for row in M]
                M[entry[0]][entry[1]] += GaussianRational(1)
            return M

        monkeypatch.setattr(reference, "block", changed)
        assert not reference.anticommutation_check(CALC, K1)
        assert not reference.anticommutation_check(CALC, (1, -1, 0, 2, 0, 0, 1))

    def test_one_form_kernel_characterization(self):
        assert reference.one_form_kernel_check(CALC, K0)
        assert reference.one_form_kernel_check(CALC, K1)
        rng = random.Random(8)
        for _ in range(3):
            assert reference.one_form_kernel_check(CALC, random_mode(rng, 2))

    def test_one_form_kernel_check_stays_exact_at_large_frequencies(self):
        # c = 2**40 puts the stripped blocks past the double rank bound, and
        # c = 2**61 forms them on Python ints
        k = (1, -1, 0, 1, 0, 0, 1)
        for c in (1, 2**40, 2**61):
            assert reference.one_form_kernel_check(CALC, tuple(c * x for x in k)), c

    def test_one_form_kernel_check_for_a_rational_psi(self):
        # the templates hold psi scaled by the lcm of its denominators, so the
        # check must agree with the one for that integer multiple
        rational = torus.ModeCalculus(
            named_psi("toroidal:7:1/2 e{1,2,3,4} - 1/2 e{1,5,6,7} + e{2,4,6,7}")
        )
        integer = torus.ModeCalculus(named_psi(TOROIDAL))
        for k in (K1, (1, -1, 0, 1, 0, 0, 1), K0):
            verdicts = [reference.one_form_kernel_check(calc, k) for calc in (rational, integer)]
            assert verdicts == [True, True], k

    @pytest.mark.parametrize("c", [1, 2**40, 2**61])
    def test_one_form_kernel_check_fails_for_a_wrong_dual_form(self, c):
        wrong = DifferentialForm.coframe(torus.T7, (1, 2, 3))
        for k in (K1, (1, -1, 0, 2, 0, 0, 1)):
            assert not reference.one_form_kernel_check(CALC, tuple(c * x for x in k), wrong), k

    def test_vector_kernel_dims(self):
        assert reference.mode_summary(CALC, K0)["vector_kernel"] == 7
        rng = random.Random(9)
        for _ in range(5):
            k = random_mode(rng)
            if any(k):
                assert reference.mode_summary(CALC, k)["vector_kernel"] == 0

    def test_symbol_classification_examples(self):
        rng = random.Random(10)
        for _ in range(5):
            k = random_mode(rng, 2)
            if not any(k):
                continue
            s = reference.mode_summary(CALC, k)
            assert s["symbol_3"] == "injective"
            assert s["symbol_7"] == "surjective"
            assert s["symbol_4"] == "injective"
        # the symbol is a direction: the zero mode has none
        assert not any(key.startswith("symbol") for key in reference.mode_summary(CALC, K0))


class TestDecomposition:
    def test_zero_mode_is_all_harmonic_forms(self):
        dims = reference.mode_summary(CALC, K0, 2)["split"]
        assert dims["split"]["harmonic_forms"] == dims["harmonic"] == 21
        assert dims["split"]["d_part"] == dims["split"]["dstar_part"] == 0

    def test_nonzero_mode_splits(self):
        for l in (2, 3, 4, 5):
            summary = reference.mode_summary(CALC, K1, l)
            dims = summary["split"]
            assert dims["split"]["harmonic_forms"] == 0
            parts = dims["split"]["d_part"] + dims["split"]["dstar_part"]
            assert dims["harmonic"] == parts == summary["harmonic"][l]
            assert dims["cohomology"] == dims["kernel"] - dims["image"] == summary["cohomology"][l]
            # the split rides on the same row as the sweep's own fields
            assert {**summary, "split": None} == {**reference.mode_summary(CALC, K1), "split": None}

    def test_sampled_modes_split_consistently(self):
        rng = random.Random(11)
        for _ in range(2):
            k = random_mode(rng)
            if not any(k):
                continue
            for l in (2, 3):
                dims = reference.mode_summary(CALC, k, l)["split"]  # built only if consistent
                assert dims["harmonic"] == dims["split"]["d_part"] + dims["split"]["dstar_part"]

    def test_stacked_split_matches_honest_lane(self):
        rng = random.Random(14)
        modes = [K0] + UNITS
        modes += [random_mode(rng, 2) for _ in range(3)]
        honest = [honest_decomposition(k) for k in modes]
        # the repeated mixed list spans two stacks of _CHUNK modes
        reps = torus._CHUNK // len(modes) + 1
        assert torus._CHUNK < len(modes * reps) <= 2 * torus._CHUNK
        for l in range(8):
            rows = torus.sweep_modes(partial(CALC.mode_summaries, degree=l), modes * reps, jobs=1)
            stacked = [r["split"] for r in rows]
            assert stacked == [reference.mode_summary(CALC, k, l)["split"] for k in modes] * reps
            for k, dims, expected in zip(modes, stacked, honest):
                # d carries the coexact part one-to-one into degree l + 1
                assert expected[l]["up_d_part"] == dims["split"]["dstar_part"], (k, l)
                flat = {**dims, **dims["split"]}
                assert {f: flat[f] for f in HONEST_FIELDS} == {f: expected[l][f] for f in HONEST_FIELDS}

    def test_split_invariants_are_construction_checks(self):
        # a split whose parts miss the harmonic dimension, or whose coexact
        # part d does not carry one-to-one, is a broken invariant
        ranks = dict.fromkeys(range(5), 0)
        assert torus._split_report(K1, 3, 1, ranks, 0, 1, 1)["split"]["dstar_part"] == 1
        with pytest.raises(ValueError, match="must add up to the harmonic dimension"):
            torus._split_report(K1, 3, 2, ranks, 0, 1, 1)
        with pytest.raises(ValueError, match="must map the coexact part isomorphically"):
            torus._split_report(K1, 3, 1, ranks, 0, 1, 0)

    def test_negative_cohomology_is_a_broken_invariant(self):
        # a kernel (35 - rank L_3) below the image (rank L_0) raises at every
        # mode; at the zero mode the parts always add up, so only it can
        dims = torus._split_report(K0, 3, 0, {3: 0, 0: 1}, 0, 0, 0)
        assert (dims["kernel"], dims["image"], dims["cohomology"]) == (35, 1, 34)
        for k in (K0, K1):
            with pytest.raises(ValueError, match="negative cohomology dimension"):
                torus._split_report(k, 3, 0, {3: 35, 0: 1}, 0, 0, 0)

    def test_large_frequency_splits_stay_exact(self):
        # c = 2**40 trips the guards of the product and the rank, and
        # c = 2**61 forms the blocks on Python ints
        k = (1, -1, 0, 1, 0, 0, 1)
        for l in range(8):
            base = reference.mode_summary(CALC, k, l)["split"]
            for c in (2**40, 2**61):
                big = tuple(c * x for x in k)
                assert reference.mode_summary(CALC, big, l)["split"] == base, (c, l)


class TestModeArithmetic:
    def test_wedge_adds_frequencies(self):
        a = reference.mode_form((1, 0, 0, 0, 0, 0, 0), (1,))
        b = reference.mode_form((0, 1, 0, 0, 0, 0, 0), (2,))
        prod = wedge(a, b)
        assert list(prod.coefficients()) == [(1, 2)]
        assert list(prod.coefficients()[(1, 2)].terms) == [(1, 1, 0, 0, 0, 0, 0)]

    def test_mode_matrix_rejects_mode_mixing_operators(self):
        shift = CoefficientFunction.fourier(torus.T7, (0, 1, 0, 0, 0, 0, 0))
        with pytest.raises(AssertionError):
            reference.mode_matrix(K1, 0, 0, lambda f: f.mul_function(shift))


class TestGrowthAndSymbols:
    def test_harmonic_count_grows_with_the_frequency_bound(self):
        # witnesses at |k|_inf = 2 add strictly positive dimensions on top
        # of the bound-1 total
        for k in ((2, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0), (1, 2, 0, -1, 0, 0, 2)):
            harmonic = reference.mode_summary(CALC, k)["harmonic"]
            for l in (2, 3, 4, 5):
                assert harmonic[l] > 0

    def test_degree3_block_injective_for_all_low_frequencies(self):
        # the degree-3 map has a one-dimensional domain; injectivity means
        # the combined template column is nonzero, checked exhaustively
        from itertools import product

        cols = CALC.L[0]  # 7 unit-frequency 35x1 matrices
        unit_cols = [[row[0] for row in M] for M in cols]
        for k in product((-2, -1, 0, 1, 2), repeat=7):
            if not any(k):
                continue
            nonzero = False
            for r in range(35):
                if sum(kj * unit_cols[j][r] for j, kj in enumerate(k) if kj):
                    nonzero = True
                    break
            assert nonzero, k


class TestRealComplexBookkeeping:
    def test_pairwise_real_dimension_convention(self):
        rng = random.Random(12)
        for _ in range(4):
            k = random_mode(rng)
            if not any(k):
                continue
            h = reference.mode_summary(CALC, k)["harmonic"]
            h_minus = reference.mode_summary(CALC, tuple(-x for x in k))["harmonic"]
            for l in (2, 3):
                assert h[l] + h_minus[l] == 2 * h[l]


def test_small_sweep_serial_equals_parallel(monkeypatch):
    # 2.5 stacks of shuffled modes span three stacks; the serial stacked
    # sweep, a fork pool of two workers and one-mode summaries give equal
    # rows, in order, with and without a degree split
    modes = random.Random(13).sample(sorted(product((-1, 0, 1), repeat=7)), 5 * torus._CHUNK // 2)
    assert len(modes) > 2 * torus._CHUNK
    sizes = []
    ctx = multiprocessing.get_context("fork")
    real_pool = ctx.Pool
    monkeypatch.setattr(ctx, "Pool", lambda processes: sizes.append(processes) or real_pool(processes))
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    for degree in (None, 3):
        summarize = partial(CALC.mode_summaries, degree=degree)
        serial = torus.sweep_modes(summarize, modes, jobs=1)
        parallel = torus.sweep_modes(summarize, modes, jobs=2)
        assert serial == parallel == [reference.mode_summary(CALC, k, degree) for k in modes]
        assert [s["k"] for s in serial] == [list(k) for k in modes]
        assert ("split" in serial[0]) == (degree is not None)
    assert sizes == [2, 2]


@pytest.mark.parametrize(
    "fields", [("harmonic", "cohomology"), ("symbols", "regular"), ("vector_kernel",)]
)
def test_field_restricted_rows_equal_the_full_rows(monkeypatch, fields):
    # each suite's field set, with and without a split, serially and in a
    # fork pool of two workers, gives the full rows restricted to its fields;
    # 2.5 stacks of modes span three stacks, so the pool has work for both
    modes = random.Random(13).sample(sorted(product((-1, 0, 1), repeat=7)), 5 * torus._CHUNK // 2)
    assert len(modes) > 2 * torus._CHUNK
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    symbols = ("symbol_3", "symbol_4", "symbol_7") if "symbols" in fields else ()
    keys = {"k", "split", *fields, *symbols}
    for degree in (None, 3):
        full = torus.sweep_modes(partial(CALC.mode_summaries, degree=degree), modes, jobs=1)
        expected = [{key: v for key, v in r.items() if key in keys} for r in full]
        summarize = partial(CALC.mode_summaries, degree=degree, fields=fields)
        for jobs in (1, 2):
            assert torus.sweep_modes(summarize, modes, jobs=jobs) == expected


@pytest.mark.parametrize("degree", [None, 2])
def test_a_default_sweep_stack_stays_in_doubles(monkeypatch, degree):
    # the sweep's speed is the double lane: one stack of the default G2
    # sweep at |k|_inf <= 1 (the zero mode, the unit modes and seeded
    # others), plain and with the degree-2 split, never moves a rank or a
    # product to Python ints
    others = sorted(set(product((-1, 0, 1), repeat=7)) - {K0, *UNITS})
    modes = [K0, *UNITS, *random.Random(16).sample(others, torus._CHUNK - 8)]
    moved = []
    real = linalg._python_ints
    monkeypatch.setattr(linalg, "_python_ints", lambda X: moved.append(X.dtype) or real(X))
    rows = CALC.mode_summaries(modes, degree, fields=("harmonic", "cohomology"))
    assert len(rows) == torus._CHUNK and moved == []
    # the spy sees a stack whose entries leave the bound
    CALC.mode_summaries([tuple(2**30 * x for x in K1)], degree, fields=("harmonic", "cohomology"))
    assert moved


# a psi whose nonzero rows differ between modes; all nonzero rows of the
# G2 default are equal, so it alone would not see rows copied to a wrong line
PAIR = "toroidal:7:e{1,2,3,4} + e{1,2,3,5}"
ALL_MODES = sorted(product((-1, 0, 1), repeat=7))


@cache
def calculus(psi):
    return CALC if psi is None else torus.ModeCalculus(named_psi(psi))


def exhaustive_equals_lines(psi, degree, fields, jobs_list=(1, 2)):
    """Whether `sweep`, at one mode per orbit (a certified psi) or per
    rational line, gives the exhaustive lane's rows at |k|_inf <= 1 for
    each `jobs`."""
    calc = calculus(psi)
    summarize = partial(calc.mode_summaries, degree=degree, fields=fields)
    exhaustive = torus.sweep_modes(summarize, ALL_MODES, jobs=2)
    return all(reference.expand(calc.sweep(1, jobs, degree, fields)) == exhaustive for jobs in jobs_list)


@pytest.mark.parametrize("psi", [None, PAIR], ids=["star-phi", "pair"])
@pytest.mark.parametrize(
    "degree, fields",
    [
        *(
            pytest.param(degree, ("harmonic", "cohomology"), id=f"cohomology-degree-{degree}")
            for degree in (None, *range(8))
        ),
        pytest.param(None, ("symbols", "regular", "vector_kernel"), id="symbols"),
    ],
)
def test_line_sweep_equals_the_exhaustive_lane(monkeypatch, psi, degree, fields):
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    assert exhaustive_equals_lines(psi, degree, fields)


def test_line_representatives_at_unit_frequency():
    # at |k|_inf <= 1 every nonzero mode is primitive, so its line holds
    # it and -k: 1093 lines and the zero mode
    assert torus._primitive(K0) == K0
    reps = {torus._primitive(k) for k in ALL_MODES}
    assert len(reps) == 1094
    for k in ALL_MODES:
        p = torus._primitive(k)
        assert k in (p, tuple(-x for x in p))
        assert next((x for x in p if x), 1) > 0


@pytest.mark.parametrize("psi", [None, PAIR], ids=["star-phi", "pair"])
@pytest.mark.parametrize("degree", [None, 2, 4])
def test_a_mode_has_the_row_of_its_primitive_representative(psi, degree):
    # seeded modes up to |k|_inf <= 3 with their multiples 2k, 3k and -k:
    # each row is its representative's with "k" set to the mode's own
    calc = calculus(psi)
    rng = random.Random(21)
    base = [random_mode(rng, bound) for bound in (1, 1, 1, 2, 3, 3)]
    base = [k for k in base if any(k)] + [K1]
    ks = [tuple(c * x for x in b) for b in base for c in (1, 2, 3, -1)]
    ks = [k for k in ks if max(map(abs, k)) <= 3] + [K0]
    assert len(ks) > 16 and max(max(map(abs, k)) for k in ks) == 3
    reps = [torus._primitive(k) for k in ks]
    for k, p in zip(ks, reps):  # k = +-gcd(k) p, first nonzero entry of p positive
        g = math.gcd(*k)
        assert k in {tuple(s * g * x for x in p) for s in (1, -1)}
        assert p == K0 or next(x for x in p if x) > 0
    rows = calc.mode_summaries(ks, degree)
    rep_rows = calc.mode_summaries(reps, degree)
    assert rows == [{**row, "k": list(k)} for row, k in zip(rep_rows, ks)]


@pytest.mark.parametrize(
    "line",
    [
        lambda k: tuple(map(abs, k)),  # a sign lost coordinatewise
        lambda k: tuple(sorted(k)),  # entries moved between directions
    ],
    ids=["abs", "sorted"],
)
def test_a_wrong_line_map_fails_the_equivalence(monkeypatch, line):
    # rows copied from a mode off the line differ for the pair psi
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    monkeypatch.setattr(torus, "_primitive", line)
    assert not exhaustive_equals_lines(PAIR, None, ("harmonic", "cohomology"), jobs_list=(1,))


# -- the orbit certificate ----------------------------------------------------


def line_lane(calc, max_freq, degree=None, fields=torus.FIELDS, jobs=1):
    """The rows of every mode at |k|_inf <= max_freq, each computed at its
    rational line's `_primitive` representative: the sweep without the
    orbit certificate."""
    modes = list(product(range(-max_freq, max_freq + 1), repeat=7))
    reps = sorted({torus._primitive(k) for k in modes})
    summarize = partial(calc.mode_summaries, degree=degree, fields=fields)
    rows = dict(zip(reps, torus.sweep_modes(summarize, reps, jobs)))
    return reference.expand(({k: torus._primitive(k) for k in modes}, rows))


def orbit_tangent_rank(gens):
    return linalg.int_ranks([[[X[i][0] for X in gens] for i in range(7)]])[0]


def cayley(A):
    """(I - A)^-1 (I + A), a rational rotation, for a skew integer A."""
    I_minus, I_plus = (
        [[GaussianRational(int(i == j) + sign * x) for j, x in enumerate(row)] for i, row in enumerate(A)]
        for sign in (-1, 1)
    )
    return reference.matmul(reference.invert(I_minus), I_plus, 0)


def moved_psi(psi, g):
    """psi re-expanded in the coframe that the rotation g moves, through the
    minors of g (`exterior.transform_terms`)."""
    return DifferentialForm._of(psi.space, psi.degree, exterior.transform_terms(psi.space, psi.terms, g))


SIGNED_PERMUTATION = [[(-1) ** i * int(j == (3 * i + 2) % 7) for j in range(7)] for i in range(7)]
SKEW = [[0] * 7 for _ in range(7)]
for (a, b), v in {(0, 1): 1, (1, 2): 1, (2, 3): 1}.items():  # rotated, *phi has 29 terms, not 7
    SKEW[a][b], SKEW[b][a] = v, -v
ROTATIONS = {"signed-permutation": SIGNED_PERMUTATION, "cayley": cayley(SKEW)}


@cache
def rotated(name):
    return torus.ModeCalculus(moved_psi(CALC.psi, ROTATIONS[name]))


def test_the_g2_orbit_is_certified():
    # stab(*phi) is g2, of dimension 14, and its orbit tangent at E1 has rank 6
    gens = g2.stabilizer(CALC.psi)
    assert len(gens) == 14 and orbit_tangent_rank(gens) == 6
    assert CALC.orbit_certified


@pytest.mark.parametrize("psi, dim, rank", [(PAIR, 9, 3), (TOROIDAL, 2, 0)], ids=["pair", "toroidal"])
def test_a_psi_without_a_transitive_stabilizer_is_not_certified(psi, dim, rank):
    calc = calculus(psi)
    gens = g2.stabilizer(calc.psi)
    assert len(gens) == dim and orbit_tangent_rank(gens) == rank
    assert not calc.orbit_certified


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_a_rotated_star_phi_is_certified_and_its_orbit_rows_equal_the_line_lane(name):
    g = ROTATIONS[name]
    assert reference.matmul(g, reference.transpose(g), 0) == reference.identity(7, 1, 0)
    calc = rotated(name)
    assert calc.psi != CALC.psi
    assert len(g2.stabilizer(calc.psi)) == 14 and calc.orbit_certified
    for degree, fields in ((None, ("harmonic", "cohomology")), (3, ("harmonic",))):
        assert reference.expand(calc.sweep(1, 1, degree, fields)) == line_lane(calc, 1, degree, fields)
    fields = ("symbols", "regular", "vector_kernel")
    assert reference.expand(calc.sweep(1, 1, None, fields)) == line_lane(calc, 1, None, fields)


def test_a_huge_psi_scale_keeps_the_certificate():
    # Python-int (object) templates and generators give the same verdicts
    assert torus.ModeCalculus(CALC.psi.scale(2**70)).orbit_certified
    assert not torus.ModeCalculus(named_psi(PAIR).scale(2**70)).orbit_certified


# -- step 2 of the certificate, proved on the builder -------------------------

UNIT_4FORMS = list(all_indices(7, 4))  # the I of the 35 unit 4-forms e^I
ROTATION_BASIS = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]  # the 21 E_ab - E_ba


def unit_calculi():
    return [torus.ModeCalculus(DifferentialForm.coframe(torus.T7, I)) for I in UNIT_4FORMS]


UNIT_CALCULI = cache(unit_calculi)


def moved_units(a, b):
    """The matrix C of X = E_ab - E_ba on the unit 4-forms, X.e^I = sum_J
    C[I, J] e^J, from the form engine: e^a ^ i_b e^I - e^b ^ i_a e^I, the
    action that `g2.stabilizer` annihilates."""
    e = partial(DifferentialForm.coframe, torus.T7)
    pos = {J: n for n, J in enumerate(UNIT_4FORMS)}
    C = np.zeros((len(UNIT_4FORMS),) * 2, dtype=np.int64)
    for n, I in enumerate(UNIT_4FORMS):
        moved = wedge(e((a,)), insert_frame(b, e(I))) - wedge(e((b,)), insert_frame(a, e(I)))
        for (J, _), val in moved.terms.items():
            C[n, pos[J]] = val
    return C


def builder_mismatches(calcs):
    """The (family, I, (a, b)) at which the defect of a template family of
    the calculus of e^I under X = E_ab - E_ba (`reference.intertwining_defects`)
    is not the template of X.e^I: its L template for L, 0 for d, its ad
    template for ad.  The calculi are stacked on an axis after j, so each
    X takes one pass, and the templates of X.e^I are the unit templates
    combined by `moved_units` (the builder is linear in the integer psi)."""
    unit = SimpleNamespace(
        d=calcs[0].d,
        L={m: np.stack([c.L[m] for c in calcs], 1) for m in calcs[0].L},
        ad=np.stack([c.ad for c in calcs], 1),
    )
    out = set()
    for a, b in ROTATION_BASIS:
        X = np.zeros((7, 7), dtype=np.int64)
        X[a - 1, b - 1], X[b - 1, a - 1] = 1, -1
        C = moved_units(a, b)
        for (kind, m), D in reference.intertwining_defects(unit, X).items():
            if kind == "d":
                wrong = [D.any()] * len(calcs)
            else:
                T = unit.ad if m is None else unit.L[m]
                wrong = (D != np.tensordot(C, T, (1, 1)).swapaxes(0, 1)).any(axis=(0, 2, 3))
            out |= {((kind, m), I, (a, b)) for I, w in zip(UNIT_4FORMS, wrong) if w}
    return out


def test_the_builder_intertwines_so7_on_the_unit_4forms():
    # for all 35 x 21 pairs (e^I, X), L's defect is the L template of X.e^I,
    # d's is 0 and ad's the ad template of X.e^I; the builder is linear in
    # psi, so this holds for every psi and every X in so(7), and for X in
    # stab(psi) every defect is 0.  420 of the pairs move e^I.
    assert sum(int(moved_units(a, b).any(axis=1).sum()) for a, b in ROTATION_BASIS) == 420
    assert builder_mismatches(UNIT_CALCULI()) == set()


@pytest.mark.parametrize("psi", [None, TOROIDAL, RATIONAL], ids=["star-phi", "toroidal", "rational"])
def test_the_templates_are_the_unit_templates_combined_by_the_integer_psi(psi):
    # the linearity that carries the basis identity to every psi
    calc = CALC if psi is None else calculus(psi)
    coeffs = {I: int(val.real) for (I, _), val in reference.integral_psi(calc).terms.items()}
    units = dict(zip(UNIT_4FORMS, UNIT_CALCULI()))
    combine = lambda T: sum(c * T(units[I]) for I, c in coeffs.items())
    assert all((calc.L[m] == combine(lambda u: u.L[m])).all() for m in calc.L)
    assert (calc.ad == combine(lambda u: u.ad)).all()


def test_a_flipped_psi_hat_entry_fails_the_basis_identity(monkeypatch):
    # the e^{234} entry of psi_hat_1 = i_{e_1} psi negated in the iota build:
    # only e^{1234} has it, and the L and ad identities break at e^{1234}
    # and wherever X.e^I, whose templates combine e^{1234}'s, involves it
    real = torus._insert_frame_terms

    def flipped(i, terms):
        out = real(i, terms)
        return {key: -val if i == 1 and key[0] == (2, 3, 4) else val for key, val in out.items()}

    monkeypatch.setattr(torus, "_insert_frame_terms", flipped)
    wrong = builder_mismatches(unit_calculi())
    at = UNIT_4FORMS.index((1, 2, 3, 4))
    assert {I for _, I, _ in wrong} == {(1, 2, 3, 4)} | {
        I for a, b in ROTATION_BASIS for I, row in zip(UNIT_4FORMS, moved_units(a, b)) if row[at]
    }
    assert {kind for (kind, _), _, _ in wrong} == {"L", "ad"}


# single-entry template changes (kind, domain degree, entry), each of which
# breaks the intertwining identity
TEMPLATE_CHANGES = pytest.mark.parametrize(
    "kind, m, entry",
    [
        ("L", 0, (2, 5, 0)),
        ("L", 2, (4, 0, 7)),
        ("L", 4, (0, 0, 3)),
        ("d", 0, (0, 0, 0)),
        ("d", 3, (5, 1, 2)),
        ("d", 6, (3, 0, 0)),
        ("ad", None, (6, 100, 2)),
        ("ad", None, (0, 0, 0)),
    ],
    ids=["L0", "L2", "L4", "d0", "d3", "d6", "ad", "ad-origin"],
)


def changed_calculus(kind, m, entry):
    """A fresh G2 calculus with 1 added to one entry of one template."""
    calc = torus.ModeCalculus()
    T = getattr(calc, kind) if m is None else getattr(calc, kind)[m]
    T[entry] += 1
    return calc


CERTIFICATE_CASES = {
    "star-phi": lambda: CALC,
    **{name: partial(rotated, name) for name in ROTATIONS},
    "pair": partial(calculus, PAIR),
    "toroidal": partial(calculus, TOROIDAL),
    "star-phi-2**70": lambda: torus.ModeCalculus(CALC.psi.scale(2**70)),
    "pair-2**70": lambda: torus.ModeCalculus(named_psi(PAIR).scale(2**70)),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_the_stacked_certificate_gives_the_per_generator_verdict(name):
    # reading psi alone, the certificate gives the verdict that computing
    # the intertwining step for each generator gives
    calc = CERTIFICATE_CASES[name]()
    assert calc.orbit_certified == reference.orbit_certified(calc)


@TEMPLATE_CHANGES
def test_a_changed_template_entry_fails_the_per_generator_certificate(kind, m, entry):
    # some generator of g2 has a defect on the changed family
    calc = changed_calculus(kind, m, entry)
    gens = [linalg._int_array(X) for X in g2.stabilizer(calc.psi)]
    assert any(reference.intertwining_defects(calc, X)[kind, m].any() for X in gens)
    assert reference.orbit_certified(calc) is False


def test_the_certificate_peak_memory_stays_low(monkeypatch):
    # the certificate reads psi alone: no linalg call, and a traced peak
    # of about 26 KB
    calls = []
    for name, f in vars(linalg).copy().items():
        if inspect.isfunction(f) and f.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, lambda *a, _f=f, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    calc = torus.ModeCalculus()
    calls.clear()
    tracemalloc.start()
    try:
        assert calc.orbit_certified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak <= 100_000
    calc.mode_summaries([torus.E1], fields=("harmonic",))
    assert "int_ranks" in calls  # the counters see a sweep's calls


def test_a_certified_torus_cohomology_run_holds_no_row_per_mode():
    # the suite reads one row per class, and only its printed mode list has
    # an entry per mode: with the certificate computed, the traced peak of
    # a run is 1.0-1.2 MB, and was 1.9-2.1 MB with a row copy per mode
    assert torus.default_calculus().orbit_certified
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig(suite="torus-cohomology", max_freq=1, jobs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak <= 1_500_000


def test_the_certificate_is_computed_at_the_first_sweep_past_the_zero_mode(monkeypatch):
    # lazily: not at the build, nor by a sweep at max_freq 0
    calc = torus.ModeCalculus()
    calc.sweep(0, 1, None, ("harmonic",))
    assert "orbit_certified" not in vars(calc)
    seen, pools = [], []
    real = calc.mode_summaries
    monkeypatch.setattr(calc, "mode_summaries", lambda modes, **kw: seen.append(modes) or real(modes, **kw))
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", pools.append)
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    rows = reference.expand(calc.sweep(1, 2, None, ("harmonic",)))
    assert vars(calc)["orbit_certified"] is True
    # one stack, the zero mode and E1, for all 2,187 modes, and no pool
    assert seen == [[K0, torus.E1]] and pools == [] and len(rows) == 3**7


def test_the_orbit_lane_equals_the_line_lane_at_frequency_two(monkeypatch):
    monkeypatch.setattr(torus, "_cpus", lambda: 2)
    fields = ("harmonic", "cohomology")
    assert reference.expand(CALC.sweep(2, 2, None, fields)) == line_lane(CALC, 2, None, fields, jobs=2)
