"""Acceptance gate: every criterion at its stated tolerance.

Run with -s to see one pass/fail line per criterion.  Exact checks assert
zero remainder in exact arithmetic; the single numeric suite (pointwise
equivariance) is pinned at 1e-9.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import reference
from fncalc import g2, linfty, torus
from fncalc.bracket import mc_check, nijenhuis_lie
from fncalc.dolbeault import dc
from fncalc.exterior import (
    CoefficientFunction,
    DifferentialForm,
    affine_space,
    contract_metric,
    hodge_star,
    wedge,
)
from fncalc.sampling import random_form
from fncalc.scalars import GaussianRational
from fncalc.suites import SuiteConfig, run_suite

SEED = 20260810


def announce(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def sweep_rows():
    # the gate sees every mode: the sweep's rows, one computed per rational
    # line, equal the exhaustive lane's over all 2187 modes
    calc = torus.default_calculus()
    rows = reference.expand(calc.sweep(max_freq=1, jobs=2))
    modes = sorted(product((-1, 0, 1), repeat=7))
    assert rows == torus.sweep_modes(calc.mode_summaries, modes, jobs=2)
    return calc, rows


def test_criterion_1_graded_lie_axioms():
    report = run_suite(SuiteConfig(suite="gla-axioms", seed=SEED, samples=100))
    announce(
        1,
        "graded antisymmetry and Jacobi exact on 100 seeded triples over R^4 and R^7",
        report.passed,
    )


def test_criterion_2_action_homomorphism():
    report = run_suite(SuiteConfig(suite="fn-action", seed=SEED, samples=100))
    announce(
        2,
        "action homomorphism and vector-field bracket identity exact on 100 seeded samples",
        report.passed,
    )


def test_criterion_3_maurer_cartan_family():
    r2 = affine_space(2)
    omega6 = g2.kahler_form(3)
    half = GaussianRational(Fraction(1, 2))
    parallel = {
        "omega on R^4": g2.kahler_form(2),
        "omega on R^6": omega6,
        "omega^2/2 on R^6": wedge(omega6, omega6).scale(half),
        "dual 4-form on R^7": hodge_star(g2.standard_phi().phi),
        "spin7 4-form on R^8": g2.spin7_form(),
    }
    ok = all(mc_check(psi).holds for psi in parallel.values())
    probe = DifferentialForm.coframe(r2, (1, 2)).mul_function(
        CoefficientFunction.coordinate(r2, 1)
    )
    result = mc_check(probe)
    ok = ok and not result.holds and result.witness is not None
    announce(3, "Maurer-Cartan exact for all five parallel forms; probe yields witness", ok)


def test_criterion_4_kahler_complex_differential():
    r4 = affine_space(4)
    omega_hat = contract_metric(g2.kahler_form(2))
    x1 = DifferentialForm.from_scalar(CoefficientFunction.coordinate(r4, 1))
    pin_lhs = nijenhuis_lie(omega_hat, x1)
    sign = None
    if pin_lhs == dc(x1):
        sign = 1
    elif pin_lhs == -dc(x1):
        sign = -1
    ok = sign is not None
    rng = random.Random(SEED)
    count = 0
    for _ in range(50):
        a = random_form(r4, rng.randint(0, 3), rng)
        if nijenhuis_lie(omega_hat, a) != dc(a).scale(sign):
            ok = False
            break
        count += 1
    announce(
        4,
        f"Lie derivative equals the complex differential (sign {sign}) on {count} seeded forms",
        ok and count == 50,
    )


def test_criterion_5_torus_cohomology(sweep_rows):
    calc, rows = sweep_rows
    nonzero = [r for r in rows if any(r["k"])]
    ok = len(nonzero) == 2186
    for l in (0, 1, 6, 7):
        ok = ok and sum(r["harmonic"][l] for r in nonzero) == 0
    for l in (2, 3, 4, 5):
        ok = ok and sum(r["harmonic"][l] for r in nonzero) > 0
    ok = ok and all(r["harmonic"] == r["cohomology"] for r in rows)
    by_key = {tuple(r["k"]): r for r in rows}
    ok = ok and all(
        r["harmonic"][l] == by_key[tuple(-x for x in r["k"])]["harmonic"][7 - l]
        for r in rows
        for l in range(8)
    )
    # anticommutation: the blocks are linear in the frequency, so the
    # unit-pair coefficient identities certify all modes; spot-check a
    # seeded sample directly through honest matrix products as well
    ok = ok and calc.anticommutation_linear_check()
    rng = random.Random(SEED)
    spots = [tuple(rng.randint(-1, 1) for _ in range(7)) for _ in range(4)]
    spots += [(0,) * 7, (1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 2, 0, 0, 1)]
    ok = ok and all(reference.anticommutation_check(calc, k) for k in spots)
    announce(
        5,
        "per-mode cohomology over 2186 nonzero modes: vanishing, positivity, "
        "harmonic equality, duality, anticommutation",
        ok,
    )


def test_criterion_6_regularity_and_symbols(sweep_rows):
    calc, rows = sweep_rows
    ok = all(all(r["regular"]) for r in rows)
    nonzero = [r for r in rows if any(r["k"])]
    ok = ok and all(r["symbol_3"] == "injective" for r in nonzero)
    ok = ok and all(r["symbol_7"] == "surjective" for r in nonzero)
    rng = random.Random(SEED)
    for _ in range(20):
        k = tuple(rng.randint(-2, 2) for _ in range(7))
        if any(k):
            ok = ok and reference.mode_summary(calc, k)["symbol_4"] == "injective"
    announce(
        6,
        "regularity split for all modes and degrees; symbol type injective at "
        "degree 3 and surjective at degree 7",
        ok,
    )


def test_criterion_7_parallel_vector_fields(sweep_rows):
    _, rows = sweep_rows
    total = sum(r["vector_kernel"] for r in rows)
    nonzero_contrib = sum(r["vector_kernel"] for r in rows if any(r["k"]))
    ok = total == 7 and nonzero_contrib == 0
    announce(
        7,
        "bracket-differential kernel on vector fields totals 7 (all from the zero mode)",
        ok,
    )


def test_criterion_8_linfty_suite():
    jac = run_suite(
        SuiteConfig(suite="linfty-jacobi", seed=SEED, samples=100, plane=(1, 2, 3))
    )
    vdata = run_suite(SuiteConfig(suite="vdata", seed=SEED, samples=100, plane=(1, 2, 3)))
    planes_ok = True
    for plane, expected in (((1, 2, 3), True), ((1, 4, 5), True), ((1, 2, 4), False)):
        model = linfty.FlatAssociativeModel.from_plane(plane)
        flag, witness = linfty.is_associative(model)
        planes_ok = planes_ok and flag == expected
        if not expected:
            planes_ok = planes_ok and bool(witness)
    announce(
        8,
        "generalized Jacobi identities, dual bracket routes, plane classification, "
        "and V-data checks all exact",
        jac.passed and vdata.passed and planes_ok,
    )


def test_criterion_9_equivariance():
    report = run_suite(
        SuiteConfig(suite="g2-equivariance", seed=SEED, samples=100, tolerance=1e-9)
    )
    announce(
        9,
        "pointwise structure map equivariant to 1e-9 on 20 seeded maps; exact and "
        "pointwise code paths agree on the standard form",
        report.passed,
    )
