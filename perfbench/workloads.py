"""The four benchmark workloads: the CLI invocations each one makes, the
verdict each invocation must reach, and the set-up each one measures.

Why each workload exists:

* torus-sweep: the full |k|_inf <= 1 mode sweep in one process, the hot
  path (integer rank and product kernels, template combination); it
  measures the program, not the scheduler.
* torus-degree: the same layers used differently: the fork pool of the
  sweep, then a serial per-mode decomposition in the nullspace path, then
  a 325 KB report.  A rank/product gain that costs the nullspace path or
  the pool shows here.
* exact-algebra: a seeded battery of the exact suites (scalars, forms with
  polynomial coefficients, brackets, L-infinity, d^c, grammar); it never
  touches the integer lane, so a torus change should leave it unchanged.
* g2-pointwise: the only float lane (numpy einsum) and wedges of constant
  3-forms, a use of `wedge` unlike exact-algebra's.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("torus-sweep", "torus-degree", "exact-algebra", "g2-pointwise")
# Workloads whose CLI process fills every CPU with its own fork pool
# (--jobs nproc); the others run one process at a time per CPU.
FILLS_ALL_CPUS = {"torus-degree"}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect_status: int  # 0: every check passes; 1: a check fails (with witness)
    seeded: bool  # argv carries a seed derived from the workload seed

    @property
    def expect_json_status(self) -> str:
        return "pass" if self.expect_status == 0 else "fail"


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI invocations of one pass, in order.  Torus inputs are the
    deterministic mode grid; the other workloads derive each invocation's
    --seed from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")

    def seeded(*argv: str) -> Invocation:
        return Invocation((*argv, "--seed", str(rng.randrange(2**31))), 0, True)

    if workload == "torus-sweep":
        return [Invocation(("torus-cohomology", "--max-freq", "1", "--jobs", "1"), 0, False)]
    if workload == "torus-degree":
        jobs = str(os.cpu_count() or 1)
        argv = ("torus-cohomology", "--degree", "2", "--max-freq", "1", "--jobs", jobs)
        return [Invocation(argv, 0, False)]
    if workload == "exact-algebra":
        return [
            seeded("gla-axioms", "--samples", "400"),
            seeded("fn-action", "--samples", "400"),
            seeded("kahler-dc", "--samples", "1500"),
            seeded("linfty", "--check", "jacobi", "--samples", "600"),
            seeded("vdata"),
            Invocation(("linfty", "--plane", "1,2,4", "--check", "associative"), 0, False),
            Invocation(("mc-check", "--psi", "star-phi"), 0, False),
            Invocation(("mc-check", "--psi", "affine:2:1*x1 e{1,2}"), 1, False),
        ]
    if workload == "g2-pointwise":
        return [seeded("g2-equivariance") for _ in range(3)]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


# Set-up: what a fresh interpreter pays before the workload's first check,
# i.e. importing the suites and building the workload's reusable state.
_SETUP_STATE = {
    "torus-sweep": "from fncalc import torus; torus.ModeCalculus()",
    "torus-degree": "from fncalc import torus; torus.ModeCalculus()",
    "exact-algebra": "pass",
    "g2-pointwise": "from fncalc import g2; g2.metric_from_3form(g2.standard_phi())",
}


def setup_probe(workload: str) -> str:
    """Python source that times the set-up and prints the seconds taken."""
    return (
        "import time\n"
        "t = time.perf_counter()\n"
        "import fncalc.suites\n"
        f"{_SETUP_STATE[workload]}\n"
        "print(repr(time.perf_counter() - t))\n"
    )
