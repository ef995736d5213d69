"""Named verification suites behind the CLI.

Each suite runs a deterministic set of exact or toleranced checks and
returns a SuiteReport; identical configurations produce byte-identical
JSON reports (timing is never part of the payload).  numpy and the torus
layer are imported by the suites that use them, so the exact suites start
without them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from random import Random

from . import g2, linfty
from .bracket import fn_bracket, lie_tensor, mc_check, nijenhuis_lie
from .dolbeault import dc
from .exterior import (
    CoefficientFunction,
    DifferentialForm,
    ModelSpace,
    VectorValuedForm,
    affine_space,
    contract_metric,
    hodge_star,
    wedge,
)
from .grammar import parse_form, serialize_form, serialize_vvform
from .multiindex import all_indices
from .sampling import random_form, random_vector_field, random_vvform
from .scalars import GaussianRational

@dataclass
class SuiteConfig:
    """Everything needed to reproduce a run; echoed verbatim in reports."""

    suite: str
    seed: int = 0
    samples: int = 100
    max_freq: int = 1
    degree: int | None = None
    psi: str = "star-phi"
    plane: tuple[int, int, int] = (1, 2, 3)
    check: str = "jacobi"
    max_arity: int = 3
    tolerance: float = 1e-9
    jobs: int | None = None
    fmt: str = "json"

    def as_dict(self) -> dict:
        out = {**asdict(self), "plane": list(self.plane)}
        del out["jobs"], out["fmt"]
        return out


@dataclass
class SuiteReport:
    suite: str
    config: dict
    checks: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, witness: str | None = None, tolerance="exact", **info):
        entry = {
            "check": name,
            "status": "pass" if passed else "fail",
            "witness": witness,
            "tolerance": tolerance,
        }
        entry.update(info)
        self.checks.append(entry)

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "config": self.config,
            "status": "pass" if self.passed else "fail",
            "checks": self.checks,
        }
        payload.update(self.extras)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_table(self) -> str:
        lines = [f"suite: {self.suite}   status: {'pass' if self.passed else 'FAIL'}"]
        for c in self.checks:
            tol = c["tolerance"]
            tol_s = tol if isinstance(tol, str) else f"{tol:g}"
            line = f"  [{c['status']:>4}] {c['check']} (tolerance {tol_s})"
            if c.get("witness"):
                line += f"  witness: {c['witness']}"
            extra = {
                k: v
                for k, v in c.items()
                if k not in ("check", "status", "witness", "tolerance")
            }
            if extra:
                line += "  " + json.dumps(extra, sort_keys=True)
            lines.append(line)
        for key in sorted(self.extras):
            lines.append(f"  {key}: {json.dumps(self.extras[key], sort_keys=True)}")
        return "\n".join(lines)


class SuiteError(ValueError):
    """Unknown suite or invalid configuration."""


def run_suite(config: SuiteConfig) -> SuiteReport:
    runner = _RUNNERS.get(config.suite)
    if runner is None:
        raise SuiteError(
            f"unknown suite {config.suite!r}; valid: {', '.join(SUITE_NAMES)}"
        )
    if config.suite == "vdata":
        config = replace(config, check="vdata")
    elif config.suite == "linfty-jacobi" and config.check == "vdata":
        config = replace(config, check="jacobi")
    report = SuiteReport(config.suite, config.as_dict())
    runner(config, report)
    return report


# ---------------------------------------------------------------------------
# graded Lie axioms and the action homomorphism
# ---------------------------------------------------------------------------


def _suite_gla(config: SuiteConfig, report: SuiteReport) -> None:
    rng = Random(config.seed)
    skew_fail = jacobi_fail = 0
    skew_witness = jacobi_witness = None
    for space in (affine_space(4), affine_space(7)):
        for _ in range(config.samples):
            K1 = random_vvform(space, rng)
            K2 = random_vvform(space, rng)
            K3 = random_vvform(space, rng)
            s12 = linfty.sign(K1.degree * K2.degree)
            b12 = fn_bracket(K1, K2)
            defect = b12 + fn_bracket(K2, K1).scale(s12)
            if defect:
                skew_fail += 1
                skew_witness = skew_witness or serialize_vvform(defect)
            p1, p2, p3 = K1.degree, K2.degree, K3.degree
            total = fn_bracket(K1, fn_bracket(K2, K3)).scale(linfty.sign(p1 * p3))
            total = total + fn_bracket(K2, fn_bracket(K3, K1)).scale(linfty.sign(p2 * p1))
            total = total + fn_bracket(K3, b12).scale(linfty.sign(p3 * p2))
            if total:
                jacobi_fail += 1
                jacobi_witness = jacobi_witness or serialize_vvform(total)
    n = 2 * config.samples
    report.add("graded-antisymmetry", skew_fail == 0, skew_witness, samples=n)
    report.add("graded-jacobi", jacobi_fail == 0, jacobi_witness, samples=n)


def _suite_fn_action(config: SuiteConfig, report: SuiteReport) -> None:
    rng = Random(config.seed)
    hom_fail = lie_fail = 0
    for space in (affine_space(4), affine_space(7)):
        for _ in range(config.samples):
            K1 = random_vvform(space, rng, max_degree=2)
            K2 = random_vvform(space, rng, max_degree=2)
            a = random_form(space, rng.randint(0, 2), rng)
            lhs = nijenhuis_lie(fn_bracket(K1, K2), a)
            s = linfty.sign(K1.degree * K2.degree)
            rhs = nijenhuis_lie(K1, nijenhuis_lie(K2, a)) - nijenhuis_lie(
                K2, nijenhuis_lie(K1, a)
            ).scale(s)
            if lhs != rhs:
                hom_fail += 1
            X = random_vector_field(space, rng)
            K = random_vvform(space, rng, max_degree=2)
            if fn_bracket(VectorValuedForm.from_vector_field(X), K) != lie_tensor(X, K):
                lie_fail += 1
    n = 2 * config.samples
    report.add("action-homomorphism", hom_fail == 0, samples=n)
    report.add("vector-field-bracket-is-lie-derivative", lie_fail == 0, samples=n)


# ---------------------------------------------------------------------------
# Maurer-Cartan
# ---------------------------------------------------------------------------


# largest dimension of a 'flavor:dim:form' psi: twice the largest structure
# a suite builds (Spin(7) on R^8); work and memory grow with it
MAX_PSI_DIM = 16


def named_psi(name: str) -> DifferentialForm:
    """Resolve a --psi value: a named parallel form or a form string
    written as 'flavor:dim:form'."""
    if name == "star-phi":
        return hodge_star(g2.standard_phi().phi)
    if name == "star-phi-t7":
        from . import torus

        return torus.star_phi_on_torus()
    if name in ("kahler", "kahler-r4"):
        return g2.kahler_form(2)
    if name == "kahler-r6":
        return g2.kahler_form(3)
    if name == "kahler-squared":
        w = g2.kahler_form(3)
        return wedge(w, w).scale(GaussianRational(Fraction(1, 2)))
    if name == "spin7":
        return g2.spin7_form()
    if ":" in name:
        try:
            flavor, dim, text = name.split(":", 2)
            dim = int(dim)
            if dim > MAX_PSI_DIM:
                raise ValueError(f"dimension must be <= {MAX_PSI_DIM}, got {dim}")
            space = ModelSpace(dim, flavor)
        except ValueError as exc:
            raise SuiteError(f"bad psi {name!r}: {exc}") from exc
        return parse_form(text, space)
    raise SuiteError(
        f"unknown psi {name!r}; use star-phi, kahler, kahler-r6, kahler-squared,"
        " spin7, or flavor:dim:form-string"
    )


def _suite_mc(config: SuiteConfig, report: SuiteReport) -> None:
    psi = named_psi(config.psi)
    if psi.degree % 2 or psi.degree < 2:
        raise SuiteError(f"Maurer-Cartan check needs even degree >= 2, got {psi.degree}")
    result = mc_check(psi)
    witness = serialize_vvform(result.witness) if result.witness else None
    report.add(f"maurer-cartan[{config.psi}]", result.holds, witness)


# ---------------------------------------------------------------------------
# Kahler d^c comparison
# ---------------------------------------------------------------------------


def _suite_kahler_dc(config: SuiteConfig, report: SuiteReport) -> None:
    rng = Random(config.seed)
    space = affine_space(4)
    omega_hat = contract_metric(g2.kahler_form(2))
    x1 = DifferentialForm.from_scalar(CoefficientFunction.coordinate(space, 1))
    pin_lhs = nijenhuis_lie(omega_hat, x1)
    pin_rhs = dc(x1)
    if pin_lhs == pin_rhs:
        sign = 1
    elif pin_lhs == -pin_rhs:
        sign = -1
    else:
        report.add("dc-sign-pin", False, serialize_form(pin_lhs - pin_rhs))
        return
    report.add("dc-sign-pin", True, witness=None, sign=sign)
    fails = 0
    witness = None
    for _ in range(config.samples):
        a = random_form(space, rng.randint(0, 3), rng)
        lhs = nijenhuis_lie(omega_hat, a)
        rhs = dc(a).scale(sign)
        if lhs != rhs:
            fails += 1
            witness = witness or serialize_form(lhs - rhs)
    report.add("lie-derivative-equals-dc", fails == 0, witness, samples=config.samples)


# ---------------------------------------------------------------------------
# G2 equivariance
# ---------------------------------------------------------------------------


def random_glplus(rng: Random, scale: float = 0.25, den: int = 64):
    """Rational matrix near the identity with positive determinant."""
    import numpy as np

    while True:
        A = [
            [
                Fraction(1 if i == j else 0)
                + Fraction(round(rng.uniform(-scale, scale) * den), den)
                for j in range(7)
            ]
            for i in range(7)
        ]
        arr = np.array([[float(x) for x in row] for row in A])
        if np.linalg.det(arr) > 0.1:
            return A, arr


def _suite_g2_equivariance(config: SuiteConfig, report: SuiteReport) -> None:
    import numpy as np

    rng = Random(config.seed)
    st = g2.standard_phi()
    base = g2.cayley_map(st)
    exact = g2.chi_tensor_exact(st)
    err0 = float(np.abs(base - exact).max())
    report.add(
        "exact-vs-pointwise-chi", err0 <= 1e-12, None, tolerance=1e-12, max_error=err0
    )
    metric = g2.metric_from_3form(st)
    report.add("standard-metric-calibration", metric.exact and all(
        metric.matrix[i][j] == int(i == j)
        for i in range(7)
        for j in range(7)
    ))
    worst = 0.0
    count = 20
    for _ in range(count):
        A, arr = random_glplus(rng)
        pulled = g2.pullback_3form(A, st)
        lhs = g2.cayley_map(pulled)
        rhs = g2.pullback_chi_tensor(arr, base)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    report.add(
        "cayley-equivariance",
        worst <= config.tolerance,
        None,
        tolerance=config.tolerance,
        max_error=worst,
        samples=count,
    )
    # injectivity witness: two distinct positive forms with distinct images
    other = g2.pullback_3form(random_glplus(rng)[0], st)
    dist = float(np.abs(g2.cayley_map(other) - base).max())
    report.add("cayley-injectivity-witness", dist > 1e-6, None, tolerance=1e-6, separation=dist)


# ---------------------------------------------------------------------------
# torus sweeps
# ---------------------------------------------------------------------------


def _torus_calculus(psi_name: str) -> torus.ModeCalculus:
    from . import torus

    if psi_name in ("star-phi", "star-phi-t7"):
        return torus.default_calculus()
    psi = named_psi(psi_name)
    try:
        torus.check_psi(psi)
    except ValueError as exc:
        raise SuiteError(str(exc)) from None
    return torus.ModeCalculus(psi)


def _suite_torus_cohomology(config: SuiteConfig, report: SuiteReport) -> None:
    calc = _torus_calculus(config.psi)
    rep_of, rows = calc.sweep(config.max_freq, config.jobs, config.degree, ("harmonic", "cohomology"))
    degrees = range(8) if config.degree is None else [config.degree]
    count = Counter(rep_of.values())
    totals = {l: sum(n * rows[p]["harmonic"][l] for p, n in count.items() if any(p)) for l in degrees}
    coh_eq = all(r["harmonic"] == r["cohomology"] for r in rows.values())
    report.add("cohomology-equals-harmonic", coh_eq, samples=len(rep_of))
    # h_l(k) = h_{7-l}(-k) once per class p: on both lanes -k is in the
    # class of -p for every k in p's class, so this is the per-mode check.
    # It compares h_l(p) with h_{7-l}(p), p = E1 on the orbit lane; that can
    # fail, while the -k half holds by construction
    duality_ok = all(
        r["harmonic"] == rows[rep_of[tuple(-x for x in p)]]["harmonic"][::-1]
        for p, r in rows.items()
    )
    report.add("hodge-duality", duality_ok, samples=len(rep_of))
    for l in (0, 1, 6, 7):
        if config.degree is None or config.degree == l:
            report.add(f"nonzero-modes-vanish-degree-{l}", totals.get(l, 0) == 0, total=totals.get(l, 0))
    if config.max_freq >= 1:
        for l in (2, 3, 4, 5):
            if config.degree is None or config.degree == l:
                report.add(f"positive-total-degree-{l}", totals.get(l, 0) > 0, total=totals.get(l, 0))
    report.add(
        "linear-anticommutation-identities", calc.anticommutation_linear_check()
    )
    # each mode's own k is its tuple key, which JSON prints as a list
    modes_payload = [
        {"k": k, "harmonic": rows[p]["harmonic"], "cohomology": rows[p]["cohomology"]}
        if config.degree is None
        else {"k": k, "degree": config.degree, "dims": rows[p]["split"]}
        for k, p in rep_of.items()
    ]
    report.extras["psi"] = config.psi
    report.extras["max_freq"] = config.max_freq
    report.extras["modes"] = modes_payload
    report.extras["totals"] = {
        "harmonic_nonzero_modes_complex": {str(l): totals[l] for l in totals},
        "harmonic_zero_mode": {str(l): rows[(0,) * 7]["harmonic"][l] for l in degrees},
        "real_dimension_note": (
            "over a negation-closed mode set the real total equals the complex"
            " total; per-pair real dimension is dim(k)+dim(-k)"
        ),
    }


def _suite_symbol_check(config: SuiteConfig, report: SuiteReport) -> None:
    calc = _torus_calculus(config.psi)
    rng = Random(config.seed)
    rep_of, rows = calc.sweep(config.max_freq, jobs=config.jobs, fields=("symbols", "regular"))
    nonzero = [p for p in rep_of.values() if any(p)]  # each nonzero mode's class, in order
    classes = [r for p, r in rows.items() if any(p)]
    ok3 = all(r["symbol_3"] == "injective" for r in classes)
    ok7 = all(r["symbol_7"] == "surjective" for r in classes)
    report.add("symbol-injective-degree-3", ok3, samples=len(nonzero))
    report.add("symbol-surjective-degree-7", ok7, samples=len(nonzero))
    sample = [nonzero[rng.randrange(len(nonzero))] for _ in range(min(20, len(nonzero)))]
    ok4 = all(rows[p]["symbol_4"] == "injective" for p in sample)
    report.add("symbol-injective-degree-4", ok4, samples=len(sample))
    regular = all(all(r["regular"]) for r in rows.values())
    report.add("per-mode-regularity-split", regular, samples=len(rep_of))
    report.extras["modes_checked"] = len(rep_of)


# ---------------------------------------------------------------------------
# L-infinity suites
# ---------------------------------------------------------------------------


def _plane_model(config: SuiteConfig) -> linfty.FlatAssociativeModel:
    try:
        return linfty.FlatAssociativeModel.from_plane(config.plane)
    except ValueError as exc:
        raise SuiteError(str(exc)) from exc


def _linfty_samples(model, rng: Random, count: int, degrees=(0, 0, 0, 1, 2)):
    out = []
    for _ in range(count):
        deg = degrees[rng.randrange(len(degrees))]
        comps = [DifferentialForm.zero(linfty.PLANE_SPACE, deg)] * 4
        comps[rng.randrange(4)] = random_form(linfty.PLANE_SPACE, deg, rng)
        out.append(linfty.NormalValuedForm(model, deg, comps))
    return out


def _normal_witness(model, w) -> str:
    """A normal-valued form as text: each nonzero component (x) its normal direction."""
    return " + ".join(
        f"{serialize_form(c)} (x) e_{model.normal[s]}" for s, c in enumerate(w.components) if c
    )


def _suite_linfty(config: SuiteConfig, report: SuiteReport) -> None:
    model = _plane_model(config)
    rng = Random(config.seed)
    associative, witness = linfty.is_associative(model)
    report.extras["plane"] = list(config.plane)
    report.extras["associative"] = associative
    if config.check == "associative":
        wit = None if associative else _normal_witness(model, witness)
        report.add("associative-plane-classification", True, wit, classified=associative)
        return
    if config.check == "vdata":
        _vdata_checks(model, rng, report)
        return
    if config.check == "brackets":
        _bracket_checks(model, rng, config, report)
        return
    if config.check == "jacobi":
        if not associative:
            # curved case: the 0-ary bracket is the projected tensor itself
            curved = linfty.multibracket(model, [])
            report.add("curved-zero-bracket", True, _normal_witness(model, curved), classified=False)
            return
        _bracket_checks(model, rng, config, report)
        _jacobi_checks(model, rng, config, report)
        return
    raise SuiteError(f"unknown linfty check {config.check!r}")


def _bracket_checks(model, rng: Random, config: SuiteConfig, report: SuiteReport) -> None:
    fails = 0
    count = max(10, config.samples // 5)
    for _ in range(count):
        fields = _linfty_samples(model, rng, rng.randint(1, 3), degrees=(0,))
        if linfty.multibracket(model, fields) != linfty.mk_via_lie(model, fields):
            fails += 1
    report.add("multibracket-equals-lie-route", fails == 0, samples=count)
    sym_fails = 0
    for _ in range(count):
        args = _linfty_samples(model, rng, rng.randint(2, 3))
        base = linfty.multibracket(model, args)
        i = rng.randrange(len(args) - 1)
        swapped = list(args)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        s = linfty.sign(args[i].parity * args[i + 1].parity)
        if linfty.multibracket(model, swapped).scale(s) != base:
            sym_fails += 1
    report.add("graded-symmetry", sym_fails == 0, samples=count)


def _jacobi_checks(model, rng: Random, config: SuiteConfig, report: SuiteReport) -> None:
    for n in range(1, config.max_arity + 1):
        fails = 0
        count = 20 if n == 1 else max(10, config.samples // 10)
        for _ in range(count):
            if n == 1:
                args = _linfty_samples(model, rng, 1, degrees=(0,))
            else:
                args = _linfty_samples(model, rng, n)
            if linfty.jacobi_defect(model, args):
                fails += 1
        report.add(f"generalized-jacobi-n{n}", fails == 0, samples=count)
    printed_fails = 0
    for _ in range(10):
        a, b = _linfty_samples(model, rng, 2)
        if linfty.strict_identity_n2(model, a, b):
            printed_fails += 1
        x, y, z = _linfty_samples(model, rng, 3)
        if linfty.strict_identity_n3(model, x, y, z):
            printed_fails += 1
    report.add("printed-strict-identities", printed_fails == 0, samples=20)


def _vdata_checks(model, rng: Random, report: SuiteReport) -> None:
    P = linfty.PLANE_SPACE
    systematic = []
    for deg in (0, 1, 2):
        for idx in all_indices(3, deg):
            for slot in range(1, 5):
                base = DifferentialForm.coframe(P, idx)
                systematic.append(
                    linfty.NormalValuedForm.decomposable(model, base, slot)
                )
    extra = _linfty_samples(model, rng, 20)
    pool = systematic + extra
    abel_fails = 0
    for _ in range(len(pool)):
        w1 = pool[rng.randrange(len(pool))]
        w2 = pool[rng.randrange(len(pool))]
        if not linfty.lifted_bracket_vanishes(w1, w2):
            abel_fails += 1
    report.add("lifted-image-abelian", abel_fails == 0, samples=len(pool))

    amb = linfty.AMBIENT
    kernel_pool = []
    for i in model.plane:
        kernel_pool.append(
            VectorValuedForm.decomposable(random_form(amb, rng.randint(0, 2), rng), i)
        )
    for a in model.normal:
        idx = (model.normal[rng.randrange(4)],)
        kernel_pool.append(
            VectorValuedForm.decomposable(DifferentialForm.coframe(amb, idx), a)
        )
        x_normal = DifferentialForm.from_scalar(
            CoefficientFunction.coordinate(amb, model.normal[rng.randrange(4)])
        )
        kernel_pool.append(VectorValuedForm.decomposable(x_normal, a))
    closure_fails = 0
    trials = 0
    for A in kernel_pool:
        for B in kernel_pool:
            trials += 1
            if not linfty.kernel_closed_under_bracket(model, A, B):
                closure_fails += 1
    report.add("projection-kernel-closed", closure_fails == 0, samples=trials)
    report.add("chi-square-zero", linfty.maurer_cartan_chi())


_RUNNERS = {
    "gla-axioms": _suite_gla,
    "fn-action": _suite_fn_action,
    "mc-check": _suite_mc,
    "kahler-dc": _suite_kahler_dc,
    "g2-equivariance": _suite_g2_equivariance,
    "torus-cohomology": _suite_torus_cohomology,
    "symbol-check": _suite_symbol_check,
    "linfty-jacobi": _suite_linfty,
    "vdata": _suite_linfty,
}
SUITE_NAMES = tuple(_RUNNERS)
