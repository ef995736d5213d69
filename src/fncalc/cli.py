"""fncalc: verification suites for the exact Frolicher-Nijenhuis engine.

Reports are deterministic: identical configurations give byte-identical
JSON on stdout (wall-clock timing goes to stderr only).  Exit status is 0
exactly when every check passes and 1 when a check fails; malformed input
exits 2 and an internal error 3, each with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import partial

from .grammar import FormSyntaxError
from .suites import SuiteConfig, SuiteError, run_suite

# the certified G2 sweep computes two rows at any F, but the report still
# lists all (2F+1)^7 modes, 78,125 rows and 6.9 MB at F = 2: its size is the
# cost the cap bounds
MAX_FREQ = 2
# the Jacobi checks grow steeply with the arity: about 10 s at 10, 41 s at 12
MAX_ARITY = 8


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors, `fncalc: error: <msg>` and exit
    status 2; subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"fncalc: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), dest="fmt")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--jobs", type=int, help="parallel workers for mode sweeps")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  No option has a default of its own: an option left
    out is absent from the namespace, and `SuiteConfig` supplies it."""
    parser = _Parser(
        prog="fncalc",
        description="exact exterior-calculus verification suites",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    add = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    for name in ("gla-axioms", "fn-action", "kahler-dc", "g2-equivariance"):
        _add_common(add(name))

    p = add("mc-check")
    _add_common(p)
    p.add_argument(
        "--psi",
        help="star-phi | kahler | kahler-r6 | kahler-squared | spin7 | flavor:dim:form",
    )

    for name in ("torus-cohomology", "symbol-check"):
        p = add(name)
        _add_common(p)
        p.add_argument("--psi")
        p.add_argument("--max-freq", type=int)
        if name == "torus-cohomology":
            p.add_argument("--degree", type=int, choices=range(0, 8))

    for name in ("linfty", "linfty-jacobi", "vdata"):
        p = add(name)
        _add_common(p)
        p.add_argument("--plane", help="three basis indices, e.g. 1,2,3")
        if name == "linfty":
            p.add_argument("--check", choices=("associative", "jacobi", "vdata", "brackets"))
        p.add_argument("--max-arity", type=int)

    return parser


def config_from_args(args: argparse.Namespace) -> SuiteConfig:
    given = vars(args).copy()
    suite = given.pop("suite")
    if suite == "linfty":
        suite = "vdata" if given.get("check") == "vdata" else "linfty-jacobi"
    config = SuiteConfig(suite, **given)  # `plane` is still its text here
    for flag, value, low in (
        ("--max-freq", config.max_freq, 0),
        ("--samples", config.samples, 0),
        ("--max-arity", config.max_arity, 0),
        ("--jobs", config.jobs, 1),
    ):
        if value is not None and value < low:
            raise SuiteError(f"{flag} must be >= {low}, got {value}")
    if not (math.isfinite(config.tolerance) and config.tolerance >= 0):
        raise SuiteError(f"--tolerance must be finite and >= 0, got {config.tolerance}")
    for flag, value, high in (
        ("--max-freq", config.max_freq, MAX_FREQ),
        ("--max-arity", config.max_arity, MAX_ARITY),
    ):
        if value > high:
            raise SuiteError(f"{flag} must be <= {high}, got {value}")
    if "plane" in given:
        try:
            config.plane = tuple(int(x) for x in given["plane"].split(","))
        except ValueError:
            raise SuiteError(f"bad plane spec {given['plane']!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        # numpy loads inside the suites: one BLAS thread for their small
        # products beside the sweep's own fork pool, unless the user set it
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        started = time.monotonic()
        report = run_suite(config)
        elapsed = time.monotonic() - started
    except (SuiteError, FormSyntaxError) as exc:
        print(f"fncalc: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a broken invariant, never a usage error
        message = " ".join(str(exc).split())
        print(f"fncalc: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    if config.fmt == "json":
        print(report.to_json())
    else:
        print(report.to_table())
    print(f"fncalc: {config.suite} finished in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
