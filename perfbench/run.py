"""fncalc benchmark: time to verdict of the CLI suites, end to end and per
layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from `src/` there
and byte-compiled first.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, tracing off.  Every timed pass
spawns one fresh interpreter per CLI invocation (no cache carries over
between passes); CPU and peak RSS of each child come from os.wait4, with
pool workers rolled up into their CLI parent.  Passes run in one stream
per CPU, each pinned to its CPU, except for a workload whose own pool
fills every CPU.  `setup_s` is the median of fresh interpreters, one per
CPU at a time, that import the suites and build the workload's reusable
state.

--trace 1 reports the per-layer metrics: one untraced pass as the
reference, then two traced passes that run each invocation in-process in a
fresh traced interpreter (perfbench/tracer.py).  The first traced pass
gives the metrics and its spans; the second must repeat its counts
exactly.  The tracing overhead is the traced pass's wall time minus the
reference's.

Every invocation must exit with its expected status and report the
matching JSON status; at the pinned seed (and always, for unseeded
invocations) its stdout must hash to the value in pins.json, and within a
run every repetition of an invocation must print the same bytes.
A record of the host, the exact argv of every child and the raw
measurements is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import json_status
from workloads import FILLS_ALL_CPUS, WORKLOADS, Invocation, invocations, setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
DEADLINE_S = 170  # a run must end within 180 s; stop cleanly before that

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}

# Per-layer metrics of the traced run.  `X.self_s` is span time minus the
# time of wrapped child calls; `X.s` is inclusive span time; `.calls` and
# the computed counts must repeat exactly between traced passes.
PER_LAYER = {
    "linalg.self_s": "s",
    "linalg.int_rank.calls": "count",
    "linalg.int_rank.self_s": "s",
    "linalg.int_rank.entries": "count_computed",
    "linalg.int_matmul.calls": "count",
    "linalg.int_matmul.self_s": "s",
    "linalg.int_matmul.mul_adds": "count_computed",
    "linalg.int_nullspace.calls": "count",
    "linalg.int_nullspace.self_s": "s",
    "linalg.int_row_echelon.self_s": "s",
    "torus.self_s": "s",
    "torus.ModeTemplates.block.calls": "count",
    "torus.ModeTemplates.block.self_s": "s",
    "torus.ModeCalculus.mode_summary.calls": "count",
    "torus.modes_per_s": "1/s",
    "torus.ModeCalculus.decomposition_report.s": "s",
    "torus.ModeCalculus.anticommutation_linear_check.s": "s",
    "torus.ModeTemplates.build_s": "s",
    "torus.sweep_modes.s": "s",
    "torus.sweep_modes.workers": "count",
    "exterior.self_s": "s",
    "exterior.wedge.calls": "count",
    "exterior.wedge.self_s": "s",
    "exterior.ext_deriv.calls": "count",
    "exterior.ext_deriv.self_s": "s",
    "scalars.ops": "count",
    "multiindex.self_s": "s",
    "bracket.self_s": "s",
    "bracket.fn_bracket.calls": "count",
    "bracket.nijenhuis_lie.calls": "count",
    "linfty.self_s": "s",
    "linfty.multibracket.calls": "count",
    "linfty.jacobi_defect.calls": "count",
    "dolbeault.self_s": "s",
    "dolbeault.dc.calls": "count",
    "g2.self_s": "s",
    "g2.gram_matrix.calls": "count",
    "g2.gram_matrix.s": "s",
    "g2.cayley_map.s": "s",
    "g2.pullback_3form.s": "s",
    "g2.pullback_chi_tensor.s": "s",
    "grammar.self_s": "s",
    "suites.self_s": "s",
    "suites.run_suite.s": "s",
    "suites.SuiteReport.to_json.s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


@dataclass
class Child:
    argv: list[str]
    stdout: bytes
    status: int
    cpu_s: float
    maxrss_mb: float
    start: float
    end: float


class Children:
    """Child processes started from this one process and reaped with
    wait4, so that CPU and peak RSS cover each child and every descendant
    it reaped (pool workers roll up into their CLI parent).  Each child
    leads its own process group and writes its stdout to a file under
    OUT, so concurrent children never block on a full pipe.  On leaving
    the `with` block every child still running is killed and reaped."""

    def __init__(self, stderr):
        self.stderr = stderr
        self.cpus = os.sched_getaffinity(0)
        self.running: dict[int, tuple] = {}  # pid -> (tag, Popen, start, stdout file)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self.running:
            return
        for pid, (_, _, _, out) in self.running.items():
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
            out.close()
        self.running.clear()
        _reap_orphans()

    def start(self, argv: list[str], cpus: set[int], tag=None) -> None:
        """Start `argv` on `cpus`.  The affinity is set on this process
        around the fork, so the child and its pool inherit it."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = tempfile.TemporaryFile(dir=OUT)
        os.sched_setaffinity(0, cpus)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=self.stderr, env=env, cwd=ROOT,
                                    start_new_session=True)
        except BaseException:
            out.close()
            raise
        else:
            self.running[proc.pid] = (tag, proc, start, out)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def wait(self) -> tuple[object, Child]:
        """Wait for the next child to end; return its tag and record."""
        while True:
            pid, wstatus, usage = os.wait4(-1, 0)
            end = time.perf_counter()
            if pid in self.running:  # else an orphan of a killed child
                break
        tag, proc, start, out = self.running.pop(pid)
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        with out:
            out.seek(0)
            stdout = out.read()
        return tag, Child(list(proc.args), stdout, proc.returncode,
                          usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, start, end)

    def run(self, argv: list[str]) -> Child:
        """Run one child to completion, alone."""
        self.start(argv, self.cpus)
        return self.wait()[1]


def _become_subreaper() -> None:
    """Have orphaned descendants (the pool workers of a killed CLI process)
    reparented to this process, so that they can be waited for.  Linux
    only; elsewhere they fall to init."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Verdicts:
    """The gate behind `failed`: expected exit and JSON status, pinned
    stdout hashes, and identical stdout across a run's repetitions."""

    def __init__(self, workload: str, seed: int, invs: list[Invocation]):
        pins = json.loads(PINS.read_text())
        self.invs = invs
        self.pinned = [
            p["sha256"] if (not inv.seeded or seed == pins["seed"]) else None
            for inv, p in zip(invs, pins["workloads"][workload])
        ]
        self.seen: list[str | None] = [None] * len(invs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, i: int, status: int, stdout_sha: str, report_status) -> None:
        inv = self.invs[i]
        self.attempted += 1
        problems = []
        if status != inv.expect_status:
            problems.append(f"exit {status}, expected {inv.expect_status}")
        if report_status != inv.expect_json_status:
            problems.append(f"JSON status {report_status!r}, expected {inv.expect_json_status!r}")
        if self.pinned[i] and stdout_sha != self.pinned[i]:
            problems.append(f"stdout sha256 {stdout_sha[:12]}, pinned {self.pinned[i][:12]}")
        if self.seen[i] is None:
            self.seen[i] = stdout_sha
        elif stdout_sha != self.seen[i]:
            problems.append("stdout differs from an earlier repetition")
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}")


def stream_cpus(workload: str) -> list[set[int]]:
    """One CPU set per concurrent stream.  A workload whose CLI process
    fills every CPU itself runs as one stream; any other runs one stream
    pinned to each CPU.  On a shared host the CPUs run at different paces
    at the same moment, so a run samples every CPU rather than whichever
    one a lone stream drew, and gets one pass per CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload in FILLS_ALL_CPUS:
        return [set(cpus)]
    return [{c} for c in cpus]


def measure_setup(workload: str, children: Children) -> list[float]:
    """One fresh set-up interpreter per CPU, all at once."""
    code = setup_probe(workload)
    for cpu in sorted(children.cpus):
        children.start([sys.executable, "-c", code], {cpu})
    values = []
    for _ in children.cpus:
        _, child = children.wait()
        if child.status != 0:
            raise RuntimeError(f"set-up probe exited {child.status}")
        values.append(float(child.stdout))
    return values


def summarize_pass(children: list[Child]) -> dict:
    return {
        "wall_s": children[-1].end - children[0].start,
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.maxrss_mb for c in children),
        "children": [
            {"argv": c.argv, "status": c.status, "wall_s": c.end - c.start,
             "cpu_s": c.cpu_s, "maxrss_mb": c.maxrss_mb}
            for c in children
        ],
    }


def cli_passes(invs, verdicts: Verdicts, streams: list[set[int]], seconds: float,
               children: Children) -> list[dict]:
    """Timed passes in concurrent streams.  A pass runs a fresh `python3 -m
    fncalc.cli` per invocation, one after another, on its stream's CPUs.
    Each stream makes one pass, then another while that one should still
    end within `seconds` of the start, judged by the median pass so far."""
    began = time.perf_counter()
    done: list[dict] = []
    current: list[list[Child]] = [[] for _ in streams]

    def launch(k: int) -> None:
        inv = invs[len(current[k])]
        children.start([sys.executable, "-m", "fncalc.cli", *inv.argv], streams[k], k)

    for k in range(len(streams)):
        launch(k)
    while children.running:
        k, child = children.wait()
        i = len(current[k])
        verdicts.check(i, child.status, hashlib.sha256(child.stdout).hexdigest(),
                       json_status(child.stdout))
        current[k].append(child)
        if len(current[k]) < len(invs):
            launch(k)
            continue
        done.append(summarize_pass(current[k]))
        current[k] = []
        typical = statistics.median(p["wall_s"] for p in done)
        if time.perf_counter() - began + typical <= seconds:
            launch(k)
    return done


def run_end_to_end(workload: str, invs, verdicts: Verdicts, seconds: int, children: Children,
                   record) -> dict:
    # Set-up is probed before and after the timed passes, so that the
    # median samples the host over the whole run.
    setup = measure_setup(workload, children) + measure_setup(workload, children)
    passes = cli_passes(invs, verdicts, stream_cpus(workload), seconds, children)
    setup += measure_setup(workload, children)
    record["setup_s"] = setup
    record["passes"] = passes
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ops_ok_ratio": (verdicts.attempted - verdicts.failed) / verdicts.attempted,
    }


def traced_pass(invs, verdicts: Verdicts, spans: Path | None, children: Children) -> dict:
    """A pass with one fresh traced interpreter per invocation, as in a
    timed pass; the per-invocation summaries are summed."""
    run_id = uuid.uuid4().hex
    base = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC), "--run-id", run_id]
    if spans is not None:
        spans.unlink(missing_ok=True)
        base += ["--spans", str(spans)]
    total = {"run_id": run_id, "calls": Counter(), "total_s": Counter(), "self_s": Counter(),
             "computed": Counter(), "scalar_ops": 0, "pool_workers": 0, "top_level_s": 0.0,
             "in_process_s": 0.0, "argv": []}
    start = time.perf_counter()
    for i, inv in enumerate(invs):
        child = children.run([*base, "--", *inv.argv])
        if child.status != 0:
            raise RuntimeError(f"tracer exited {child.status}")
        summary = json.loads(child.stdout.decode().splitlines()[-1])
        verdicts.check(i, summary["status"], summary["sha256"], summary["json_status"])
        for key in ("calls", "total_s", "self_s", "computed"):
            total[key].update(summary[key])
        total["scalar_ops"] += summary["scalar_ops"]
        total["pool_workers"] = max(total["pool_workers"], summary["pool_workers"])
        total["top_level_s"] += summary["top_level_s"]
        total["in_process_s"] += summary["wall_s"]
        total["argv"].append(child.argv)
    total["wall_s"] = time.perf_counter() - start
    return total


def counts(summary: dict) -> dict:
    return {
        "calls": dict(summary["calls"]),
        "scalar_ops": summary["scalar_ops"],
        "computed": dict(summary["computed"]),
    }


def layer_metrics(traced: dict, reference: dict) -> dict:
    calls, total, self_s = traced["calls"], traced["total_s"], traced["self_s"]
    computed = traced["computed"]
    sweep_s = total.get("torus.sweep_modes", 0.0)
    modes = computed.get("torus.sweep_modes.modes", 0)
    special = {
        "linalg.int_rank.entries": computed.get("linalg.int_rank.entries", 0),
        "linalg.int_matmul.mul_adds": computed.get("linalg.int_matmul.mul_adds", 0),
        "torus.modes_per_s": modes / sweep_s if sweep_s else 0.0,
        "torus.ModeTemplates.build_s": total.get("torus.ModeTemplates.__init__", 0.0),
        "torus.sweep_modes.workers": (traced["pool_workers"] or 1) if modes else 0,
        "scalars.ops": traced["scalar_ops"],
        "trace.overhead_s": traced["wall_s"] - reference["wall_s"],
        "trace.unattributed_s": traced["in_process_s"] - traced["top_level_s"],
    }
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif kind == "self_s" and "." not in base:  # a whole module
            out[name] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
        else:
            table = {"calls": calls, "self_s": self_s, "s": total}[kind]
            out[name] = table.get(base, 0)
    return out


def run_traced(tag: str, invs, verdicts: Verdicts, children: Children, record) -> dict:
    reference = cli_passes(invs, verdicts, [children.cpus], 0, children)[0]
    first = traced_pass(invs, verdicts, OUT / f"{tag}.spans.jsonl", children)
    second = traced_pass(invs, verdicts, None, children)
    record["passes"] = {"reference": reference, "traced": first, "repeat": second}
    if counts(first) != counts(second):
        verdicts.problems.append("traced counts differ between the two traced passes")
        verdicts.failed += 1
    return layer_metrics(first, reference)


def host_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="fncalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fncalc" / "cli.py").is_file():
        print(f"run.py: no fncalc sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    _become_subreaper()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    invs = invocations(args.workload, args.seed)
    verdicts = Verdicts(args.workload, args.seed, invs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record()}
    try:
        with open(OUT / f"{tag}.stderr", "w") as stderr, Children(stderr) as children:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "fncalc")],
                           check=True, stdout=subprocess.DEVNULL, stderr=stderr)
            if args.trace:
                values = run_traced(tag, invs, verdicts, children, record)
                units = PER_LAYER
            else:
                values = run_end_to_end(args.workload, invs, verdicts, args.seconds, children,
                                        record)
                units = END_TO_END
    except (Deadline, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"run.py: {exc}; see {OUT / (tag + '.stderr')}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for problem in verdicts.problems:
        print(f"run.py: verdict: {problem}", file=sys.stderr)
    record["problems"] = verdicts.problems
    record["metrics"] = values
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
