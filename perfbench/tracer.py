"""Outside-in tracer for fncalc: spans and counters wrapped around the
public functions and methods of every fncalc module, installed from the
benchmark's own files without editing the program.

Run as a script, it executes one CLI invocation in a fresh traced
interpreter, calling `fncalc.cli.main(argv)` with stdout captured, and
prints a JSON summary on its last stdout line:

    python3 perfbench/tracer.py --src SRC --run-id ID [--spans FILE] -- ARGS...

Spans are kept in memory and appended to FILE when the run ends: a header
line with the run id and argv, then one [id, parent, name, start, end]
array per span (the first MAX_SPAN_RECORDS spans; aggregates cover all).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

# Value types of the calculus.  Their methods are per-term arithmetic that
# run millions of times in a suite; spans there would make the tracer the
# workload, so they are left unwrapped (GaussianRational gets counters).
VALUE_TYPES = {
    "exterior.ModelSpace",
    "exterior.CoefficientFunction",
    "exterior.DifferentialForm",
    "exterior.VectorField",
    "exterior.VectorValuedForm",
    "scalars.GaussianRational",
}
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
# Individual span records kept per run; aggregates always cover every call.
MAX_SPAN_RECORDS = 50_000


def _rows_cols(M) -> int:
    return len(M) * len(M[0]) if M else 0


def _matmul_work(A, B) -> int:
    return len(A) * len(B) * (len(B[0]) if B else 0)


# Operation counts computed from the arguments of a call, not measured.
COMPUTED = {
    "linalg.int_rank": ("entries", _rows_cols),
    "linalg.int_matmul": ("mul_adds", _matmul_work),
    "torus.sweep_modes": ("modes", lambda calc, modes, jobs=None: len(modes)),
}


class Tracer:
    """Span stack plus per-name aggregates (calls, inclusive and self
    time).  Self time is a span's duration minus its wrapped children's."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.computed: dict[str, int] = defaultdict(int)
        self.scalar_ops = 0
        self.pool_workers = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self.top_level_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def span(self, name: str, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans = self._stack, self.spans
        work = COMPUTED.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.computed[f"{name}.{work[0]}"] += work[1](*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level_s += dur
                if len(spans) < MAX_SPAN_RECORDS:
                    spans.append((sid, name, start, end, parent))
                else:
                    self.dropped_spans += 1

        return traced

    def counter(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.scalar_ops += 1
            return fn(*args)

        return counted

    def install(self, package: str = "fncalc") -> None:
        """Wrap every public function of the package at every module
        binding it (the defining module and each `from .x import y`
        rebinding), public methods and __init__ of its classes, and count
        GaussianRational arithmetic."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, object] = {}
        prefix = package + "."
        entry = f"{package}.cli"  # the invocation itself is the root, not a layer

        def short(obj) -> str:
            return obj.__module__[len(prefix):]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or not origin.startswith(prefix) or origin == entry:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self.span(f"{short(obj)}.{obj.__qualname__}", obj)
                    setattr(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and id(obj) not in wrapped:
                    wrapped[id(obj)] = obj
                    self._install_class(obj, short(obj))
        self._install_pool_probe()

    def _install_class(self, cls, module: str) -> None:
        qual = f"{module}.{cls.__qualname__}"
        if qual == "scalars.GaussianRational":
            for op in SCALAR_OPS:
                if op in vars(cls):
                    setattr(cls, op, self.counter(vars(cls)[op]))
            return
        if qual in VALUE_TYPES:
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                setattr(cls, attr, type(member)(self.span(f"{qual}.{attr}", fn)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.span(f"{qual}.{attr}", member))

    def _install_pool_probe(self) -> None:
        """Record the worker count of every multiprocessing pool the
        program opens (pool workers themselves are not traced)."""
        import multiprocessing.context as mpc

        original = mpc.BaseContext.Pool

        def Pool(ctx, processes=None, *args, **kwargs):
            n = processes if processes is not None else os.cpu_count() or 1
            self.pool_workers = max(self.pool_workers, n)
            return original(ctx, processes, *args, **kwargs)

        mpc.BaseContext.Pool = Pool

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str, argv: list[str]) -> None:
        """Append a header naming the run and invocation, then one
        [id, parent, name, start, end] array per recorded span."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"run": self.run_id, "argv": argv,
                                 "fields": ["id", "parent", "name", "start", "end"],
                                 "dropped": self.dropped_spans}) + "\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "computed": dict(self.computed),
            "scalar_ops": self.scalar_ops,
            "pool_workers": self.pool_workers,
            "top_level_s": self.top_level_s,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped_spans,
        }


def run_traced(argv: list[str], run_id: str, spans_path: str | None) -> dict:
    """Run one CLI invocation in this interpreter under the tracer, with
    stdout captured and hashed."""
    tracer = Tracer(run_id)
    tracer.install()
    from fncalc import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    if spans_path:
        tracer.write_spans(spans_path, argv)
    text = out.getvalue()
    result = tracer.summary()
    result.update(
        wall_s=wall,
        status=status,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        json_status=json_status(text),
    )
    return result


def json_status(stdout: str | bytes):
    """The `status` field of a JSON report, or None if stdout is not one."""
    try:
        return json.loads(stdout).get("status")
    except ValueError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the fncalc package")
    parser.add_argument("--run-id", required=True, help="identifier shared by the run's spans")
    parser.add_argument("--spans", default=None, help="file the spans are appended to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, args.src)
    print(json.dumps(run_traced(argv, args.run_id, args.spans), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
