"""Golden reports: the SHA-256 of `fncalc` stdout for every suite at fast
configs.  A refactor must leave every report byte-identical; a change that
means to alter a report updates its hash here and says why.

The invocations that the benchmark also runs (mc-check, the
associative-plane classification, g2-equivariance at the three seeds the
benchmark draws at its seed 0, and the |k|_inf <= 1 torus sweep and its
degree-2 split) carry the same hashes as `perfbench/pins.json`; the
benchmark-size exact-algebra invocations are pinned only there, and the
tests below check their reports against those pins.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fncalc import torus
from fncalc.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = [
    (("gla-axioms", "--samples", "4"), 0, "7d13fd2e5609bac1bc4cbe4de7b78df1abf0ac833f1baf9e40449e961f6cc576"),
    (("gla-axioms", "--samples", "4", "--format", "table"), 0, "0086a0039f42f14ad554b163b54f8391e72426515499e5e47de707d1d9800320"),
    (("fn-action", "--samples", "4"), 0, "579e4f63caee576f90439b2bc9410826fdf8d66f537353ab024e098696c86be0"),
    (("kahler-dc", "--samples", "20"), 0, "68c5d0917488a7f99330a39bb430bb604630a9858f68afb1ee4b4ce2e00e7caa"),
    (("g2-equivariance", "--seed", "1479188312"), 0, "2489b1fbe2869d90625a83a45e5456705b0567bf60226e3377f91977984a6cd4"),
    (("g2-equivariance", "--seed", "570136435"), 0, "f5bdd6299b9bfaa6eb5f8c8c8bcb485f9af9682b1100e8e05b273bfe7906ca11"),
    (("g2-equivariance", "--seed", "1215160489"), 0, "ab9e6a4e337878773a40bd917a4552a8c3e40384d6e6567a431bbffb4d373fb8"),
    (("g2-equivariance", "--seed", "7", "--format", "table"), 0, "910012e45004e496908ff36c616ba811f8e4e262791b7838ad48fc60b552e8f1"),
    (("mc-check", "--psi", "star-phi"), 0, "995ee3e312569b4e04ff62ca9eda2f0ff083648df799a295a24abb84b5afc128"),
    (("mc-check", "--psi", "affine:2:1*x1 e{1,2}"), 1, "41dd61918693250e3738cc1d1c6b3cbc6aacd9e2385d1832c0c310d00595652c"),
    (("mc-check", "--psi", "kahler-squared"), 0, "fe622e2b6587f51f66ac1d548afb41a64ac95608295892988edff9075617b831"),
    (("mc-check", "--psi", "spin7"), 0, "e372428f421d6c80e479d7b94c5293d243a3b195639e712ec6d6d079717787e3"),
    # witnesses that mix int, rational and imaginary values
    (("mc-check", "--psi", "toroidal:3:1*exp(i<1,0,0>) e{1,2}"), 1, "973d43d7c3577f9441f68e7a477518292254b16bb0974e72b1cfcae59161bea5"),
    (("mc-check", "--psi", "affine:4:1/2*x1^2 e{1,2} + 1/3*x2*x3 e{3,4} - 2 e{1,3}"), 1, "1e0db2a8fa618c8a1ec8c9ee31aebfc62570f68d55484b1a4f1f9afe71f9e759"),
    (("linfty", "--plane", "1,2,4", "--check", "associative"), 0, "418588e1b4c9b034c5fc1b884b1f3237f2981c60ebc2dda6931e49075f58f440"),
    (("linfty", "--plane", "1,2,4"), 0, "eb43f6a7cd380e830afdb53ee9ed2ac1751e56220fc0fdf931a7df186cd37226"),
    (("linfty", "--check", "jacobi", "--samples", "40"), 0, "cc8e54deb2934adfbf0197bdc1db0e0bb9495aef13cf4c3bcc80c58ac227cba8"),
    (("linfty", "--check", "brackets", "--samples", "40"), 0, "2b02dc84ca649137c797aebfd8c3290d3f412a34debaef25f3e686b8524b7ff5"),
    (("linfty-jacobi", "--samples", "40", "--max-arity", "2"), 0, "6dc6dc8c838dc3468832be34b0af82e04ae69b463f679cc4288144d9a5c04919"),
    (("vdata",), 0, "67591491b8ed991faaca761175152fbe4d2ad095f4b82f7dd9f7352b22fc28cb"),
    (("torus-cohomology", "--max-freq", "0"), 0, "0f7bde43d4a8d3111e7be85d994db917e28387381e131651646d006df98c7d41"),
    (("torus-cohomology", "--max-freq", "1", "--jobs", "1"), 0, "b897141c631f82803554c4718f0619631472fc4df7c6eab4c5e57f646fc79858"),
    (("torus-cohomology", "--degree", "0", "--max-freq", "0"), 0, "e05bbd72580fc278f50063c8002d349f05aac364b3e4d5375088e1eacf93c699"),
    (("torus-cohomology", "--degree", "1", "--max-freq", "0"), 0, "5a079b33d0d8d9ade7f2204117ccd84210613623c7e1fcb98553d6c218680d34"),
    (("torus-cohomology", "--degree", "2", "--max-freq", "0"), 0, "b6ec51b79d129151726566e2d117e677c9e4caef66d9750a2321a71d9f295886"),
    (("torus-cohomology", "--degree", "3", "--max-freq", "0"), 0, "025c552e080b14cb01d187b51fec227b1d8294d3d96c886338c91dbecb30b4f6"),
    (("torus-cohomology", "--degree", "4", "--max-freq", "0"), 0, "d66219625ea46d483613520e3a8f1996e53a175af95fd9c1a77723361f4fcb37"),
    (("torus-cohomology", "--degree", "5", "--max-freq", "0"), 0, "432c6ab06646c5c9f38fb39d65af1d585a7a58a6ed8233b9a16a0ce75eac2aa8"),
    (("torus-cohomology", "--degree", "6", "--max-freq", "0"), 0, "09fa5e15e62f2334d6d757ae4f117a11dd8691ca3577d0e6548662dd44637fc3"),
    (("torus-cohomology", "--degree", "7", "--max-freq", "0"), 0, "8a9346f145534c6d8e9f0e140588ca7c1530f8019e9267ffbfd632c2c0013b01"),
    (("torus-cohomology", "--degree", "2", "--max-freq", "1", "--jobs", "2"), 0, "3ebb6189033ac8ff83c7f82276856d776c27142bd03f71561c5bfb969d7ab21c"),
    # the serial split prints the same bytes as the pooled one: jobs is not echoed
    (("torus-cohomology", "--degree", "2", "--max-freq", "1", "--jobs", "1"), 0, "3ebb6189033ac8ff83c7f82276856d776c27142bd03f71561c5bfb969d7ab21c"),
    (("torus-cohomology", "--degree", "3", "--max-freq", "1", "--jobs", "1"), 0, "326664b4037e1772473010262199c14bdb8d671ec6b1bfac4a02061f6c86ec45"),
    (("torus-cohomology", "--degree", "4", "--max-freq", "1", "--jobs", "2"), 0, "8b50dedacb4ea8b90f26d5f8cf9af8fc1458767d5a0cec305dc8707856cc15f1"),
    (("symbol-check", "--max-freq", "1", "--jobs", "2"), 0, "3c51c7044af1878efa4223fed779facf3d28f539e7005dd45b933375ac65f558"),
    # the serial sweep prints the same bytes as the pooled one
    (("symbol-check", "--max-freq", "1", "--jobs", "1"), 0, "3c51c7044af1878efa4223fed779facf3d28f539e7005dd45b933375ac65f558"),
    (("symbol-check", "--max-freq", "0"), 0, "a5e3848840f4652da2dfc3bd2f6142a75dacef0f4376eb5aa8825dfac0bee135"),
    # |k|_inf <= 2, hashed before the orbit lane, which computes their rows
    # from the zero mode and E1 alone
    (("torus-cohomology", "--max-freq", "2", "--jobs", "2"), 0, "ec123be16569d944dd090f96ab1fd3e65b7978498ef98d232948deca0cfb3cb2"),
    (("torus-cohomology", "--degree", "3", "--max-freq", "2", "--jobs", "2"), 0, "479a14ea874a9e6b0a9dfc620b1e7ecd4b7906de4f70ab83661f89cab5d920a6"),
    (("symbol-check", "--max-freq", "2", "--jobs", "2"), 0, "e1c4e1216a3bb8be76f3b1e320f88a58a18563529dd1c25a56056afdb8f9696d"),
    # a toroidal psi beyond the G2 default, with a non-unit coefficient;
    # degrees 1 and 6 do not vanish for it
    (("torus-cohomology", "--psi", "toroidal:7:e{1,2,3,4} - e{1,5,6,7} + 2 e{2,4,6,7}", "--max-freq", "1", "--jobs", "1"), 1, "122a69ed30cf4106ab95b77b1198b0a1948f1cf67887856895510b4dd5316590"),
    (("symbol-check", "--psi", "toroidal:7:e{1,2,3,4} - e{1,5,6,7} + 2 e{2,4,6,7}"), 0, "ee3456aab7a5249727bdb09de2b428675e5d8147e72629d1047a6aab172f033a"),
]


@pytest.mark.parametrize("argv, status, sha256", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, status, sha256):
    assert main(list(argv)) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_the_line_lane_prints_the_golden_bytes(monkeypatch, capsys):
    # without the orbit certificate the sweep computes one row per rational
    # line, and the report is the same
    monkeypatch.setattr(torus.ModeCalculus, "orbit_certified", property(lambda self: False))
    swept, real = [], torus.sweep_modes
    monkeypatch.setattr(torus, "sweep_modes", lambda f, modes, jobs: swept.append(len(modes)) or real(f, modes, jobs))
    argv = ("torus-cohomology", "--max-freq", "1", "--jobs", "1")
    test_stdout_is_byte_identical(capsys, argv, *next(g[1:] for g in GOLDEN if g[0] == argv))
    assert swept == [1094]


PINNED = {
    tuple(pin["argv"]): pin["sha256"]
    for pins in json.loads((ROOT / "perfbench" / "pins.json").read_text())["workloads"].values()
    for pin in pins
}
PINNED_ONLY = sorted(set(PINNED) - {argv for argv, _, _ in GOLDEN})


def test_golden_and_benchmark_pins_agree():
    shared = [(argv, sha256) for argv, _, sha256 in GOLDEN if argv in PINNED]
    assert len(shared) == 8
    for argv, sha256 in shared:
        assert PINNED[argv] == sha256, argv
    # the seeded exact-algebra battery is pinned only there
    assert [argv[0] for argv in PINNED_ONLY] == ["fn-action", "gla-axioms", "kahler-dc", "linfty", "vdata"]


@pytest.mark.parametrize("argv", PINNED_ONLY, ids=[" ".join(a) for a in PINNED_ONLY])
def test_pinned_only_report_is_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def traced(argv):
    """The (status, stdout hash) of one CLI run under perfbench's tracer."""
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", "--src", "src", "--run-id", "t", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["status"], result["sha256"]


def test_traced_run_prints_the_same_bytes():
    # perfbench's tracer sizes `torus.sweep_modes` by (calc, modes, jobs)
    # and `linalg.int_matmul` operands by len() and a truth test; a call
    # shape it cannot size stops the traced run
    argv = ("torus-cohomology", "--degree", "2", "--max-freq", "0", "--jobs", "1")
    # the pinned run without --jobs: jobs is not echoed in the report
    expected = next(sha for args, _, sha in GOLDEN if args == argv[:-2])
    assert traced(argv) == (0, expected)


def test_traced_line_sweep_prints_the_same_bytes():
    # the sweep at one mode per rational line, expanded to every mode,
    # as the tracer sees it
    argv = ("torus-cohomology", "--max-freq", "1", "--jobs", "1")
    expected = next(sha for args, _, sha in GOLDEN if args == argv)
    assert traced(argv) == (0, expected)
