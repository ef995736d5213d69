"""CLI contract: suites, determinism, exit codes, diagnostics."""

import argparse
import ast
import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fncalc import cli, linalg, suites, torus
from fncalc.cli import main
from fncalc.exterior import affine_space
from fncalc.grammar import serialize_vvform
from fncalc.sampling import random_vvform
from fncalc.suites import SUITE_NAMES, SuiteConfig, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_config_is_the_one_source_of_defaults():
    # no option has a default of its own: an option left out reaches
    # `config_from_args` absent, and the `SuiteConfig` field default holds
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, p in sub.choices.items():
        assert all(a.default is argparse.SUPPRESS for a in p._actions), name
        suite = "linfty-jacobi" if name == "linfty" else name
        assert cli.config_from_args(parser.parse_args([name])) == SuiteConfig(suite, check="jacobi")
    argv = ["linfty", "--check", "vdata", "--plane", "1,2,4", "--format", "table", "--jobs", "2"]
    given = SuiteConfig("vdata", check="vdata", plane=(1, 2, 4), fmt="table", jobs=2)
    assert cli.config_from_args(parser.parse_args(argv)) == given


def test_gla_checks_each_print_their_own_first_witness(monkeypatch, capsys):
    # a bracket doubled on degree-0 first arguments breaks both axioms: each
    # check prints the first failure of its own, the antisymmetry witness
    # being the nonzero defect [K1,K2] + (-1)^{pq} [K2,K1]
    real = suites.fn_bracket

    def doubled(K, L):
        return real(K, L).scale(2) if K.degree == 0 else real(K, L)

    monkeypatch.setattr(suites, "fn_bracket", doubled)
    code, out, _ = run_cli(capsys, "gla-axioms", "--samples", "20")
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["graded-antisymmetry"]["status"] == checks["graded-jacobi"]["status"] == "fail"
    # the suite's own draws, replayed
    rng, skew, jacobi = Random(0), [], []
    for space in (affine_space(4), affine_space(7)):
        for _ in range(20):
            K1, K2, K3 = (random_vvform(space, rng) for _ in range(3))
            p1, p2, p3 = K1.degree, K2.degree, K3.degree
            skew.append(doubled(K1, K2) + doubled(K2, K1).scale((-1) ** (p1 * p2)))
            total = doubled(K1, doubled(K2, K3)).scale((-1) ** (p1 * p3))
            total = total + doubled(K2, doubled(K3, K1)).scale((-1) ** (p2 * p1))
            jacobi.append(total + doubled(K3, doubled(K1, K2)).scale((-1) ** (p3 * p2)))
    first = [serialize_vvform(next(filter(None, defects))) for defects in (skew, jacobi)]
    assert first[0] != first[1]
    assert [checks[c]["witness"] for c in ("graded-antisymmetry", "graded-jacobi")] == first


def test_suite_name_catalogue():
    assert set(SUITE_NAMES) == {
        "gla-axioms",
        "fn-action",
        "mc-check",
        "kahler-dc",
        "g2-equivariance",
        "torus-cohomology",
        "symbol-check",
        "linfty-jacobi",
        "vdata",
    }
    with pytest.raises(Exception):
        run_suite(SuiteConfig(suite="nope"))


def test_mc_check_pass_and_exit_zero(capsys):
    code, out, err = run_cli(capsys, "mc-check", "--psi", "star-phi")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["checks"][0]["witness"] is None
    assert "finished" in err


def test_mc_check_failure_witness_and_exit_one(capsys):
    code, out, _ = run_cli(capsys, "mc-check", "--psi", "affine:2:1*x1 e{1,2}")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    witness = json.loads(payload["checks"][0]["witness"])
    assert witness["components"][1] == "4*x1 e{1,2}"


def test_malformed_psi_gives_diagnostic_exit(capsys):
    code, out, err = run_cli(capsys, "mc-check", "--psi", "affine:2:e{2,1}")
    assert code == 2
    assert not out
    assert "increase strictly" in err


def test_unknown_psi_name(capsys):
    code, _, err = run_cli(capsys, "mc-check", "--psi", "mystery-form")
    assert code == 2 and "unknown psi" in err


def test_small_suites_pass(capsys):
    for argv in (
        ["gla-axioms", "--samples", "8"],
        ["fn-action", "--samples", "8"],
        ["kahler-dc", "--samples", "8"],
        ["vdata", "--samples", "8"],
        ["linfty-jacobi", "--samples", "20"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["status"] == "pass"


def test_reports_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "gla-axioms", "--samples", "5", "--seed", "9")
    _, out2, _ = run_cli(capsys, "gla-axioms", "--samples", "5", "--seed", "9")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "gla-axioms", "--samples", "5", "--seed", "10")
    assert out3 != out1  # config is echoed, so seeds are visible


def test_seed_recorded_in_report(capsys):
    _, out, _ = run_cli(capsys, "vdata", "--samples", "5", "--seed", "42")
    payload = json.loads(out)
    assert payload["config"]["seed"] == 42
    assert payload["config"]["samples"] == 5


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "mc-check", "--psi", "kahler", "--format", "table")
    assert code == 0
    assert "suite: mc-check" in out and "pass" in out


def test_linfty_plane_classification(capsys):
    code, out, _ = run_cli(capsys, "linfty", "--plane", "1,2,4", "--check", "associative")
    assert code == 0
    payload = json.loads(out)
    assert payload["associative"] is False
    assert "e_7" in payload["checks"][0]["witness"]

    code, out, _ = run_cli(capsys, "linfty", "--plane", "1,4,5", "--check", "associative")
    payload = json.loads(out)
    assert payload["associative"] is True


def test_linfty_default_check_on_curved_plane(capsys):
    code, out, _ = run_cli(capsys, "linfty", "--plane", "1,2,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["associative"] is False
    assert payload["checks"][0]["check"] == "curved-zero-bracket"


def test_bad_plane_spec(capsys):
    code, _, err = run_cli(capsys, "linfty", "--plane", "1,2")
    assert code == 2


def test_torus_suite_small_slice(capsys):
    # jobs=1 keeps the test in-process; a 3-mode slice via max-freq 0 is
    # degenerate, so use the library sweep contract instead for speed
    config = SuiteConfig(suite="torus-cohomology", max_freq=0, jobs=1)
    report = run_suite(config)
    assert report.passed
    payload = json.loads(report.to_json())
    assert payload["totals"]["harmonic_zero_mode"]["3"] == 35
    assert len(payload["modes"]) == 1


def test_negative_max_freq_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "torus-cohomology", "--max-freq", "-1", "--jobs", "1")
    assert code == 2 and not out
    assert err.strip().splitlines() == ["fncalc: error: --max-freq must be >= 0, got -1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("torus-cohomology", "--degree", "9"), "argument --degree: invalid choice: "),
        ((), "the following arguments are required: suite"),
    ],
)
def test_argparse_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"fncalc: error: {message}")


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torus-cohomology", "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: fncalc torus-cohomology") and "--max-freq" in out


@pytest.mark.parametrize("suite", ["torus-cohomology", "symbol-check"])
@pytest.mark.parametrize("max_freq", ["3", "1000000000"])
def test_max_freq_above_two_is_rejected_before_the_sweep(monkeypatch, capsys, suite, max_freq):
    def no_run(config):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    code, out, err = run_cli(capsys, suite, "--max-freq", max_freq)
    assert code == 2 and not out
    assert err.splitlines() == [f"fncalc: error: --max-freq must be <= 2, got {max_freq}"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (("gla-axioms", "--samples", "-1"), "--samples must be >= 0, got -1"),
        (("linfty", "--max-arity", "-2"), "--max-arity must be >= 0, got -2"),
        (("vdata", "--jobs", "0"), "--jobs must be >= 1, got 0"),
        (("g2-equivariance", "--tolerance", "nan"), "--tolerance must be finite and >= 0, got nan"),
        (("g2-equivariance", "--tolerance", "inf"), "--tolerance must be finite and >= 0, got inf"),
        (("g2-equivariance", "--tolerance=-1e-3"), "--tolerance must be finite and >= 0, got -0.001"),
    ],
)
def test_out_of_range_numeric_flags_are_usage_errors(monkeypatch, capsys, argv, line):
    def no_run(config):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.splitlines() == [f"fncalc: error: {line}"]


_PSI = st.one_of(
    st.sampled_from(("star-phi", "kahler", "kahler-r6", "kahler-squared", "spin7", "nope")),
    st.text(alphabet="afinetoruidl:2347e{,}x1*+-/ ", max_size=16),
    st.builds(
        "{}:{}:{}".format,
        st.sampled_from(("affine", "toroidal")),
        st.one_of(st.integers(0, 4), st.integers(suites.MAX_PSI_DIM + 1, 10**12)),
        st.sampled_from(("e{1,2}", "x1 e{1,2}", "1*x1 e{1,2}", "e{2,1}", "3", "e{1,2,3,4}")),
    ),
)
_COUNT = st.integers(-2, 2).map(str)
_TOLERANCE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr), st.sampled_from(("x", ""))
)


@st.composite
def _argv(draw):
    """Small argv lists over the cheap configurations of every flag kind."""
    kind = draw(st.sampled_from(("mc", "plane", "torus", "counts")))
    if kind == "mc":
        argv = ["mc-check", "--psi", draw(_PSI)]
    elif kind == "plane":
        plane = draw(
            st.one_of(
                st.permutations(range(1, 8)).map(lambda p: p[:3]),
                st.lists(st.integers(-1, 8), min_size=1, max_size=4),
            )
        )
        plane = ",".join(map(str, plane))
        suite = draw(st.sampled_from((("linfty", "--check", "associative"), ("vdata",))))
        argv = [*suite, f"--plane={plane}", "--samples", draw(st.sampled_from(("0", "1")))]
    elif kind == "torus":
        suite = draw(st.sampled_from(("torus-cohomology", "symbol-check")))
        freq = draw(st.one_of(st.integers(-2, 0), st.integers(3, 10**12)))
        argv = [suite, "--max-freq", str(freq), "--jobs", draw(_COUNT)]
        if suite == "torus-cohomology" and draw(st.booleans()):
            argv += ["--degree", str(draw(st.integers(-1, 8)))]
    else:
        suite = draw(st.sampled_from(("gla-axioms", "fn-action", "kahler-dc", "vdata", "linfty-jacobi")))
        argv = [suite, "--samples", draw(_COUNT), f"--tolerance={draw(_TOLERANCE)}"]
        if suite == "linfty-jacobi":
            argv += ["--max-arity", draw(st.integers(-2, 2).map(str))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-5, 5)))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_cli_contract_holds_on_small_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors, and only those
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert not out.getvalue()
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert json.loads(out.getvalue())["status"] == ("pass" if code == 0 else "fail")


def test_torus_psi_must_be_a_constant_four_form(capsys):
    for psi in ("toroidal:7:e{1,2}", "affine:7:e{1,2,3,4}"):
        code, out, err = run_cli(capsys, "torus-cohomology", "--psi", psi, "--max-freq", "0")
        assert code == 2 and not out, psi
        assert err.strip().splitlines() == [
            "fncalc: error: mode templates need a constant 4-form on the 7-torus"
        ]


def test_a_rational_psi_sweeps_like_its_integer_multiple(capsys):
    # the templates clear psi's denominators, and a nonzero scale changes no rank
    reports = []
    for psi in (
        "toroidal:7:1/2 e{1,2,3,4} - 1/2 e{1,5,6,7} + e{2,4,6,7}",
        "toroidal:7:e{1,2,3,4} - e{1,5,6,7} + 2 e{2,4,6,7}",
    ):
        code, out, _ = run_cli(capsys, "torus-cohomology", "--psi", psi, "--max-freq", "1", "--jobs", "1")
        assert code == 1  # degrees 1 and 6 do not vanish for this psi
        reports.append(json.loads(out))
    half, whole = reports
    assert (half["modes"], half["totals"]) == (whole["modes"], whole["totals"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("mc-check", "--psi", "affine:2:1"), "Maurer-Cartan check needs even degree >= 2, got 0"),
        (("mc-check", "--psi", "affine:2"), "bad psi 'affine:2': "),
        (("mc-check", "--psi", "foo:2:e{1}"), "bad psi 'foo:2:e{1}': unknown flavor 'foo'"),
        (("mc-check", "--psi", "affine:0:e{1}"), "bad psi 'affine:0:e{1}': "),
        (("linfty", "--plane", "1,1,2"), "plane and normal frame must partition 1..7"),
        (("vdata", "--plane", "1,2,3,4"), "the plane is spanned by three basis directions"),
        (
            ("mc-check", "--psi", "toroidal:17:e{1}"),
            "bad psi 'toroidal:17:e{1}': dimension must be <= 16, got 17",
        ),
        (
            ("torus-cohomology", "--psi", "toroidal:7:i e{1,2,3,4}", "--max-freq", "0"),
            "mode templates need a 4-form with real coefficients",
        ),
        # the Jacobi checks grow steeply with the arity, so it is capped
        (("linfty-jacobi", "--max-arity", "9"), "--max-arity must be <= 8, got 9"),
    ],
)
def test_malformed_inputs_exit_two_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"fncalc: error: {message}")


def test_psi_dimension_is_bounded_before_any_space_is_built(monkeypatch, capsys):
    # each frame direction costs memory, so 10**9 directions would need
    # about 170 GB; the stub turns a missing bound into exit 3, not that
    def no_space(*args):
        raise AssertionError("a model space was built")

    monkeypatch.setattr(suites, "ModelSpace", no_space)
    code, out, err = run_cli(capsys, "mc-check", "--psi", "affine:1000000000:1 e{1,2}")
    assert code == 2 and not out
    assert err.splitlines() == [
        "fncalc: error: bad psi 'affine:1000000000:1 e{1,2}': dimension must be <= 16,"
        " got 1000000000"
    ]


def test_psi_at_the_dimension_bound_runs(capsys):
    assert suites.MAX_PSI_DIM == 16
    code, out, _ = run_cli(capsys, "mc-check", "--psi", "affine:16:e{15,16}")
    assert code == 0 and json.loads(out)["status"] == "pass"


def _inconsistent_split(
    self, modes, degree=None, fields=torus.FIELDS, real=torus.ModeCalculus.mode_summaries
):
    rows = real(self, modes, fields=fields)
    for r in rows:  # L_2 onto Lambda^5 (rank 21), so kernel 0, below image 1
        r["split"] = torus._split_report(r["k"], degree, 0, {degree: 21, degree - 3: 1}, 0, 0, 0)
    return rows


def _unbalanced_split(
    self, modes, degree=None, fields=torus.FIELDS, real=torus.ModeCalculus.mode_summaries
):
    rows = real(self, modes, fields=fields)
    for r in rows:  # at a nonzero mode, no part holds the harmonic 1
        r["split"] = torus._split_report((1,) + (0,) * 6, degree, 1, {}, 0, 0, 0)
    return rows


def _mismatched_matmul(A, B, real=linalg.int_matmul):
    return real(A, A)


def _broken_assemble(deg_in, deg_out, image):
    raise ValueError("template assembly broke")


@property
def _broken_certificate(self):
    raise ValueError("orbit certificate broke")


@pytest.mark.parametrize(
    "target, name, stub, argv, line",
    [
        (
            torus.ModeCalculus, "mode_summaries", _inconsistent_split,
            ("torus-cohomology", "--degree", "2", "--max-freq", "0", "--jobs", "1"),
            "fncalc: internal error: ValueError: negative cohomology dimension",
        ),
        (
            linalg, "int_matmul", _mismatched_matmul,
            ("symbol-check", "--max-freq", "0", "--jobs", "1"),
            "fncalc: internal error: ValueError: shape mismatch (1, 1, 35) @ (1, 1, 35)",
        ),
        (
            # a ValueError past the psi check is a bug, not malformed input
            torus, "_assemble", _broken_assemble,
            ("torus-cohomology", "--psi", "toroidal:7:e{1,2,3,4}", "--max-freq", "0"),
            "fncalc: internal error: ValueError: template assembly broke",
        ),
        (
            torus.ModeCalculus, "mode_summaries", _unbalanced_split,
            ("torus-cohomology", "--degree", "2", "--max-freq", "0", "--jobs", "1"),
            "fncalc: internal error: ValueError: the split's parts must add up to the"
            " harmonic dimension",
        ),
        (
            # a certificate that breaks stops the sweep, whatever the lane
            torus.ModeCalculus, "orbit_certified", _broken_certificate,
            ("torus-cohomology", "--max-freq", "1", "--jobs", "1"),
            "fncalc: internal error: ValueError: orbit certificate broke",
        ),
    ],
)
def test_internal_errors_exit_three_with_one_line(monkeypatch, capsys, target, name, stub, argv, line):
    # a broken invariant is neither a failed check (1) nor malformed input (2);
    # the default templates, whose build also calls int_matmul, come first
    torus.default_calculus()
    monkeypatch.setattr(target, name, stub)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert err.splitlines() == [line]


@pytest.mark.parametrize(
    "argv, sweep_products",
    [
        # torus-cohomology reports no regularity: its sweep forms no product
        (("torus-cohomology", "--max-freq", "1", "--jobs", "1"), 0),
        # symbol-check keeps its five L* L products on its one stack: the
        # certified G2 orbit sweeps the zero mode and E1 only
        (("symbol-check", "--max-freq", "1", "--jobs", "1"), 5),
    ],
)
def test_each_torus_suite_computes_only_what_it_reports(monkeypatch, capsys, argv, sweep_products):
    # built and certified before counting: the templates and the
    # certificate use int_matmul, once per calculus
    assert torus.default_calculus().orbit_certified
    counts = {"sweep": 0, "other": 0, "ad": 0}
    in_sweep = []
    real_summaries, real_matmul = torus.ModeCalculus.mode_summaries, linalg.int_matmul
    real_ranks = linalg.int_ranks

    def summaries(self, *args, **kwargs):
        in_sweep.append(True)
        try:
            return real_summaries(self, *args, **kwargs)
        finally:
            in_sweep.pop()

    def matmul(A, B):
        counts["sweep" if in_sweep else "other"] += 1
        return real_matmul(A, B)

    def ranks(stack):  # an `ad` stack is (modes, 7 * 35, 7)
        counts["ad"] += np.shape(stack)[1:] == (7 * 35, 7)
        return real_ranks(stack)

    monkeypatch.setattr(torus.ModeCalculus, "mode_summaries", summaries)
    monkeypatch.setattr(linalg, "int_matmul", matmul)
    monkeypatch.setattr(linalg, "int_ranks", ranks)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert counts["sweep"] == sweep_products
    assert counts["ad"] == 0  # neither suite reports the vector-field kernel
    if argv[0] == "torus-cohomology":
        # only the linear anticommutation check multiplies templates: one
        # product per identity and degree with a factor in range, 10 in all
        assert counts["other"] == 10


def test_package_has_no_assert_statements():
    # python -O strips them, and a broken invariant must still exit 3
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_exact_suites_start_without_numpy():
    # the exact suites never reach the float lane or the torus sweep, so a
    # fresh interpreter that runs them loads neither numpy nor a process pool
    script = (
        "import sys\n"
        "from fncalc import cli\n"
        "codes = [cli.main(['vdata']), cli.main(['mc-check', '--psi', 'star-phi'])]\n"
        "print(codes, [m for m in ('numpy', 'multiprocessing') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "[0, 0] []"


def test_a_certified_torus_sweep_starts_without_a_process_pool():
    # the certified G2 sweep computes one stack in-process, so a fresh
    # interpreter that runs it never imports multiprocessing; an uncertified
    # psi has a stack per 64 lines, and with two jobs it forks and imports it
    script = (
        "import contextlib, io, sys\n"
        "from fncalc import cli, torus\n"
        "torus._cpus = lambda: 2\n"
        "sweep = ['torus-cohomology', '--max-freq', '1', '--jobs']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main([*sweep, '1'])\n"
        "    loaded = 'multiprocessing' in sys.modules\n"
        "    pair = cli.main([*sweep, '2', '--psi', 'toroidal:7:e{1,2,3,4} + e{1,2,3,5}'])\n"
        "print(code, loaded, pair, 'multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "0 False 1 True"


def test_g2_suite_runs_without_the_exact_linear_algebra():
    # the standard metric (the g2-pointwise set-up) needs no numpy, and the
    # whole suite takes its determinants without fncalc.linalg
    script = (
        "import sys\n"
        "from fncalc import cli, g2\n"
        "g2.metric_from_3form(g2.standard_phi())\n"
        "numpy = 'numpy' in sys.modules\n"
        "code = cli.main(['g2-equivariance'])\n"
        "print(code, numpy, 'fncalc.linalg' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "0 False False"


def test_g2_type_checks_run_without_numpy_or_the_integer_lane():
    # the closed-form type projections, their traces and the pivot-counting
    # multisymplectic check need neither numpy nor fncalc.linalg
    script = (
        "import sys\n"
        "from fncalc import g2\n"
        "phi = g2.standard_phi().phi\n"
        "parts = [g2.g2_type_project(phi, c) for c in ('3_1', '3_7', '3_27')]\n"
        "ranks = [g2.projection_matrix_rank(c) for c in g2.G2_COMPONENTS]\n"
        "print(parts[0] == phi, not any(parts[1:]), ranks, g2.multisymplectic_check(phi),\n"
        "      [m for m in ('numpy', 'fncalc.linalg') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "True True [7, 14, 1, 7, 27] True []"


def test_g2_suite_builds_the_standard_metric_once(monkeypatch, capsys):
    from fncalc import g2

    forms = []
    real = g2.gram_matrix
    monkeypatch.setattr(g2, "gram_matrix", lambda phi, point: forms.append(phi) or real(phi, point))
    standard = g2.standard_phi().phi
    for runs in (1, 2):
        code, _, _ = run_cli(capsys, "g2-equivariance", "--seed", "3")
        assert code == 0
        # each invocation: the standard form once, 20 sampled pullbacks and
        # the injectivity witness
        assert len(forms) == 22 * runs
        assert sum(phi == standard for phi in forms) == runs


def test_trusted_constructors_are_not_called_where_input_enters():
    # form strings, seeded samples, suite configs and argv reach the exact
    # core here, so they must go through the validating constructors
    package = Path(cli.__file__).parent
    found = [
        f"{name}:{node.lineno}"
        for name in ("grammar.py", "sampling.py", "suites.py", "cli.py")
        for node in ast.walk(ast.parse((package / name).read_text(), name))
        if (isinstance(node, ast.Attribute) and node.attr == "_of")
        or (isinstance(node, ast.Name) and node.id == "_of")
    ]
    assert found == []


def test_run_suite_leaves_the_callers_config_alone():
    config = SuiteConfig(suite="vdata", check="jacobi", samples=2)
    report = run_suite(config)
    assert config.check == "jacobi"
    assert report.config["check"] == "vdata"


class _RecordingPool:
    """Stands in for a process pool: records its size, maps in-process."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(x) for x in items]


@pytest.mark.parametrize(
    "jobs, cpus, n_modes, expected",
    [  # pool sizes for stacks of _CHUNK modes: ceil(n_modes / _CHUNK) stacks
        (10**6, 4, 2187, [4]),  # capped by the CPUs
        (10**6, 64, 4 * torus._CHUNK + 1, [5]),  # capped by the 5 stacks
        (3, 64, 2187, [3]),  # the request itself
        (None, 2, 2187, [2]),  # default: all the CPUs it may run on
        (8, 8, 2 * torus._CHUNK, [2]),  # capped by the 2 stacks
        (1, 8, 2187, []),
        (8, 8, torus._CHUNK, []),  # one stack runs in-process
    ],
)
def test_sweep_workers_are_clamped(monkeypatch, jobs, cpus, n_modes, expected):
    # 2187 modes span more stacks than the 4 CPUs of the first row
    assert -(-2187 // torus._CHUNK) > 4
    sizes = []
    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(ctx, "Pool", lambda processes: _RecordingPool(sizes, processes))
    monkeypatch.setattr(torus, "_cpus", lambda: cpus)
    modes = list(range(n_modes))
    assert torus.sweep_modes(list, modes, jobs) == modes
    assert sizes == expected


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    # a sweep confined to one of the host's 8 CPUs builds no pool by default
    sizes = []
    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(ctx, "Pool", lambda processes: _RecordingPool(sizes, processes))
    monkeypatch.setattr(torus.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(torus.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    modes = list(range(2187))
    assert torus._cpus() == 1
    assert torus.sweep_modes(list, modes) == modes and sizes == []
    # without an affinity call the host's CPU count serves
    monkeypatch.delattr(torus.os, "sched_getaffinity")
    assert torus._cpus() == 8


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_a_torus_suite_runs_without_a_blas_thread_pool(preset, expected):
    # cli.main asks for one OpenBLAS thread before a suite loads numpy, so
    # the process ends with its main thread alone; a preset value stays
    script = (
        "import contextlib, io, os\n"
        "from fncalc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['torus-cohomology', '--max-freq', '0', '--jobs', '1'])\n"
        "print(code, len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    code, tasks, value = run.stdout.split()
    assert (code, value) == ("0", expected)
    if preset is None:
        assert tasks == "1"
