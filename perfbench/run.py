"""quantdistill benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics, taken from spans recorded by wrappers
around the package's layer functions. The line before it is a JSON report
with the environment, the workload's own named metrics, the exact counts,
the checks and the SHA-256 of every artifact. Both lines, and with
tracing the recorded spans, are also written under ``perfbench/out/``.
See perfbench/NOTES.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# An untraced run sets up once as warm-up, then again between rounds
# whenever set-up has had less than SETUP_SHARE of the time so far, so
# that set-up samples meet the same machine states as the rounds. A set-up
# shorter than SETUP_SLICE_S is repeated until the slice lasts that long,
# and the slice's mean is one sample. setup_s is the samples' 90th
# percentile. A traced run sets up once.
SETUP_SHARE = 0.2
SETUP_SLICE_S = 0.05
MIN_SETUP_SAMPLES = 3
MAX_ERRORS = 20        # error messages kept in the report


@dataclass
class Round:
    index: int
    traced: bool
    wall_s: float
    ops_ns: list[int] = field(default_factory=list)
    rows: int = 0
    # (kind, ns, is_op) for every timed part of the round: each operation,
    # and the pipeline work between operations that a workload times with
    # ``Context.part``. Every round has the same parts in the same order.
    parts: list[tuple[str, int, bool]] = field(default_factory=list)
    # Per kind of part, its fastest time in this round, whole and split
    # into pieces at matmul calls (see metrics.fastest_of).
    fastest: dict[str, tuple] = field(default_factory=dict)


class Context:
    """What a workload needs from the harness: seed, scratch paths, op
    timing, failure and check accounting, and the tracer's scope."""

    def __init__(self, seed: int, workdir: str, tracer, marks: list[int]):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.marks = marks      # filled by an installed MatmulClock
        self.tracing = False
        self.round = Round(-1, False, 0.0)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.not_run: dict[str, str] = {}
        self.artifacts: dict[str, str] = {}
        self.named_metrics: dict[str, dict] = {}
        self._open_op: tuple[int, int, str] | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _error(self, msg: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(msg)

    def raised(self, exc: Exception) -> None:
        """An operation raised: it counts as failed."""
        self.failed += 1
        self._error(f"round {self.round.index}: {type(exc).__name__}: {exc}")

    @contextmanager
    def phase(self, scope: str):
        prev, self.tracer.scope = self.tracer.scope, scope
        try:
            yield
        finally:
            self.tracer.scope = prev

    # -- operations ------------------------------------------------------

    def _record_part(self, kind: str, t0: int, is_op: bool) -> int:
        t1 = perf_counter_ns()
        bounds = [t0, *self.marks, t1]
        self.marks.clear()
        pieces = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        self.round.parts.append((kind, t1 - t0, is_op))
        self.round.fastest[kind] = metrics.fastest_of(self.round.fastest.get(kind),
                                                      (t1 - t0, pieces))
        return t1 - t0

    def _start_part(self) -> int:
        self.marks.clear()
        return perf_counter_ns()

    def _record_op(self, t0: int, rows: int, kind: str) -> None:
        self.round.ops_ns.append(self._record_part(kind, t0, True))
        self.round.rows += rows
        self.attempted += 1

    @contextmanager
    def op(self, rows: int, kind: str):
        """One timed operation of the given kind; an exception inside it is
        a failed operation."""
        prev, self.tracer.scope = self.tracer.scope, "op"
        span = self.tracer.span("bench.op") if self.tracing else None
        t0 = self._start_part()
        try:
            if span is None:
                yield
            else:
                with span:
                    yield
        except Exception as exc:
            self.raised(exc)
        finally:
            self._record_op(t0, rows, kind)
            self.tracer.scope = prev

    @contextmanager
    def part(self, kind: str):
        """Time pipeline work between operations as a part of the round."""
        t0 = self._start_part()
        try:
            yield
        finally:
            self._record_part(kind, t0, False)

    def op_boundary(self, rows: int, kind: str) -> None:
        """Close the open operation, if any, and start the next one.

        For loops inside the package (``train_teacher``), where the next
        batch request is the only visible step boundary."""
        if self._open_op is not None:
            self._record_op(*self._open_op)
        self._open_op = (self._start_part(), rows, kind)

    @contextmanager
    def boundary_ops(self):
        """Scope for a package loop timed by ``op_boundary``: closes the
        last operation, and counts it failed if the loop raised."""
        prev, self.tracer.scope = self.tracer.scope, "op"
        try:
            yield
        except Exception as exc:
            self.raised(exc)
        finally:
            if self._open_op is not None:
                self._record_op(*self._open_op)
                self._open_op = None
            self.tracer.scope = prev

    # -- checks ----------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        """A correctness check is an operation of its own."""
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
            self._error(f"round {self.round.index}: check failed: {name}")
        self.checks[name] = self.checks.get(name, True) and ok

    def fail_ops(self, n: int, why: str) -> None:
        """Mark ``n`` already attempted operations as failed."""
        if n:
            self.failed += n
            self._error(f"round {self.round.index}: {n} operations failed: {why}")

    def artifact(self, name: str, digest: str) -> None:
        first = self.artifacts.setdefault(name, digest)
        self.check(f"{name}.repeatable", first == digest)

    def named(self, name: str, value, unit: str) -> None:
        first = self.named_metrics.setdefault(name, {"value": value, "unit": unit})
        self.check(f"{name}.repeatable", first["value"] == value)


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "seed": seed,
    }


def code_fingerprint() -> str:
    """SHA-256 over the package and benchmark sources: "the same code"."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "quantdistill"), BENCH_DIR):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def first_setup(wl, tracer=None) -> float:
    """The warm-up set-up, traced if a tracer is given; returns its time."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        wl.setup()
        return perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def setup_slice(wl) -> tuple[float, float]:
    """Set up until SETUP_SLICE_S has passed, at least once.

    Returns the mean time of one set-up and the time the slice took."""
    reps, t0 = 0, perf_counter()
    while True:
        wl.setup()
        reps += 1
        spent = perf_counter() - t0
        if spent >= SETUP_SLICE_S:
            return spent / reps, spent


def run_rounds(ctx: Context, wl, seconds: float, trace: bool) -> tuple[list[Round], list[float]]:
    """Closed loop over rounds until the next round would overrun ``seconds``.

    Round 0 is warm-up. With tracing, odd rounds are traced and even rounds
    after the warm-up are not, so the run also yields tracing overhead.
    Without tracing, set-up slices are interleaved with the rounds; their
    per-set-up times are returned with the rounds.
    """
    rounds: list[Round] = []
    setup_times: list[float] = []
    setup_spent = 0.0
    start = perf_counter()
    min_rounds = 3 if trace else 2
    while True:
        if rounds and not trace and setup_spent < SETUP_SHARE * (perf_counter() - start):
            per_setup, spent = setup_slice(wl)
            setup_times.append(per_setup)
            setup_spent += spent
        r = len(rounds)
        traced = trace and r % 2 == 1
        ctx.round = Round(r, traced, 0.0)
        ctx.tracer.round = r
        if traced:
            ctx.tracer.install()
            ctx.tracing = True
        t0 = perf_counter_ns()
        try:
            with ctx.phase("round"):
                wl.run_round()
            completed = True
        except Exception as exc:
            # Pipeline work outside a timed operation (calibrate, save, ...)
            # failed: count one failed operation and skip the round's checks.
            ctx.attempted += 1
            ctx.raised(exc)
            completed = False
        finally:
            ctx.round.wall_s = (perf_counter_ns() - t0) / 1e9
            if traced:
                ctx.tracer.uninstall()
                ctx.tracing = False
        if completed:
            wl.check_round()
        rounds.append(ctx.round)
        if len(rounds) >= min_rounds and perf_counter() - start + ctx.round.wall_s > seconds:
            break
    while not trace and len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(setup_slice(wl)[0])
    return rounds, setup_times


def check_counts(ctx: Context, workload: str, counts: dict) -> None:
    """Exact counts must repeat across runs of the same code, any seed."""
    path = os.path.join(OUT, f"counts-{workload}.json")
    code = code_fingerprint()
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = None
    if previous is not None and previous.get("code") == code:
        ctx.check("exact_counts.repeat_across_runs", previous["counts"] == counts)
    else:
        # Say so, so that a first run's "correct" is not read as this check passing.
        ctx.not_run["exact_counts.repeat_across_runs"] = (
            "no earlier traced run" if previous is None else "earlier traced run was other code")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "counts": counts}, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quantdistill", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import quantdistill

    from tracer import MatmulClock, Tracer
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(quantdistill.__file__)) != os.path.join(SRC, "quantdistill"):
        print(f"error: imported quantdistill from {quantdistill.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer(quantdistill)
    clock = MatmulClock(quantdistill)
    ctx = Context(args.seed, workdir, tracer, clock.marks)
    trace = bool(args.trace)
    wl = WORKLOADS[args.workload](ctx)
    try:
        warmup_setup_s = first_setup(wl, tracer if trace else None)
        if hasattr(wl, "check_setup"):
            wl.check_setup()
        if not trace:
            clock.install()
        rounds, setup_times = run_rounds(ctx, wl, args.seconds, trace)
        setup_times = setup_times or [warmup_setup_s]
    finally:
        clock.uninstall()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(args.workload, rounds, setup_times, peak_rss_mb)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": {"rounds": len(rounds), "warmup_rounds": 1,
                    "round_wall_s": [round(r.wall_s, 4) for r in rounds],
                    "ops_measured": sum(len(r.ops_ns) for r in rounds[1:] if not r.traced),
                    "warmup_setup_s": warmup_setup_s,
                    "setup_samples_s": setup_times,
                    "part_floors": e2e["floors_ms"]},
        "named": {**e2e["named"], **ctx.named_metrics},
        "artifacts_sha256": ctx.artifacts,
    }
    if trace:
        layer, counts = metrics.per_layer(ctx, rounds, wl.step_split)
        check_counts(ctx, args.workload, counts)
        report["exact_counts"] = counts
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.csv.gz"))
        result_metrics = layer
    else:
        result_metrics = e2e["gated"]
    report["checks"] = ctx.checks
    report["checks_not_run"] = ctx.not_run
    report["errors"] = ctx.errors
    result = {
        "correct": ctx.failed == 0 and all(ctx.checks.values()),
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": result_metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"report": report, "result": result,
                   "parts_ms": [[[kind, round(ns / 1e6, 4), is_op] for kind, ns, is_op in r.parts]
                                for r in rounds]}, fh)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
