"""Write the next ``BENCH_<n>.json`` at the repository root: one snapshot of
the measured numbers of the checkout this script sits in.

Usage::

    python scripts/bench_snapshot.py

It runs one measurement at a time, for about half an hour on two cores,
and edits no file under ``perfbench/``. The snapshot holds:

- ``benchmark``: for each workload of ``BENCHMARK.json``, every untraced
  ``perfbench/run.py`` run of ``BENCHMARK.json``'s length (seeds 1-5, each
  twice, the seeds taken in turn), and for each gated metric its median,
  quartiles, extremes and spread. The spread is the distance between the
  quartiles, also as a share of the median: a later change whose median
  moves by less than that cannot be told from run-to-run noise;
- ``reference_run``: the wall time of each stage of the seed-42
  default-config CLI run (pretrain, calibrate plus distill for each width,
  eval of all four models), each model file's bytes and accuracy;
- ``tier1``: the test counts and wall time of the tier-1 suite;
- ``source_stats``: the output of ``scripts/source_stats.py``;
- ``revision``: the git commit and whether the tree differs from it;
- ``golden_sha256``: the SHA-256 of every artifact of the tiny seed-11 runs
  that ``tests/test_golden.py`` pins (the tier-1 count shows whether the
  pins held).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WIDTHS = (8, 6, 4)
SEEDS = (1, 2, 3, 4, 5)
REPEATS = 2


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and quartile spread of two or more runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "iqr": q3 - q1, "iqr_share": (q3 - q1) / median if median else None,
            "n": len(values)}


def benchmark() -> tuple[dict, dict]:
    """Every gated metric of every workload over the runs, and the
    environment the runs report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads, env = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for _ in range(REPEATS):
            for seed in SEEDS:
                proc = subprocess.run(
                    [sys.executable, *spec["command"][1:], "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
                env = {k: v for k, v in report["report"]["environment"].items() if k != "seed"}
                runs.append({"seed": seed, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             **{m: result["metrics"][m]["value"] for m in gated}})
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {runs[-1][m]:.4g}" for m in gated), file=sys.stderr)
        workloads[workload] = {
            "metrics": {m: {"unit": unit, **summary([r[m] for r in runs])}
                        for m, unit in gated.items()},
            "runs": runs}
    return {"seconds": seconds, "seeds": SEEDS, "repeats": REPEATS,
            "workloads": workloads}, env


def _cli(*argv: str) -> float:
    """Seconds one in-process CLI command takes; it must succeed."""
    from quantdistill.cli import main

    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"quantdistill {' '.join(argv)} exited {code}")
    return perf_counter() - t0


def reference_run(tmp: Path) -> dict:
    cfg = tmp / "reference.txt"
    cfg.write_text(f"seed = 42\nout_dir = {tmp}\n", encoding="utf-8")
    teacher = tmp / "teacher.qfmd"
    students = [tmp / f"student_w{b}a{b}.qfmd" for b in WIDTHS]
    stages = {"pretrain": _cli("pretrain", "--config", str(cfg))}
    for b in WIDTHS:
        stages[f"distill_w{b}"] = _cli("distill", "--config", str(cfg), "--teacher",
                                       str(teacher), "--bits", str(b))
    stages["eval"] = _cli("eval", "--config", str(cfg), str(teacher), *map(str, students))
    rows = json.loads((tmp / "eval_report.json").read_text(encoding="utf-8"))["models"]
    return {"stage_s": stages,
            "models": {row["model"]: {"bytes": os.path.getsize(tmp / row["model"]),
                                      "accuracy": row["verification"]["accuracy"]}
                       for row in rows}}


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", last)}
    return {"counts": counts, "wall_s": wall_s, "summary": last, "exit_code": proc.returncode}


def source_stats() -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "source_stats.py")],
                         capture_output=True, text=True, check=True).stdout
    return {key: int(value) for key, value in re.findall(r"^(.+): (\d+)$", out, re.M)}


def golden_sha256(tmp: Path) -> dict:
    """Digests of the tiny runs: the teacher's directory, then each distill
    and eval run, keyed by ``<run>/<file>``."""
    spec = importlib.util.spec_from_file_location("test_golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)

    def config(run: str) -> str:
        path = tmp / f"{run}.txt"
        path.write_text(golden.TINY_CONFIG.format(out_dir=tmp / run), encoding="utf-8")
        return str(path)

    _cli("pretrain", "--config", config("teacher"))
    teacher = str(tmp / "teacher" / "teacher.qfmd")
    for run, bits in (("bits-6", ["6"]), ("bits-8,4", ["8", "4"])):
        cfg = config(run)
        _cli("distill", "--config", cfg, "--teacher", teacher, "--bits", ",".join(bits))
        _cli("eval", "--config", cfg, teacher,
             *(str(tmp / run / f"student_w{b}a{b}.qfmd") for b in bits))
    return {f"{run}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for run in ("teacher", "bits-6", "bits-8,4")
            for path in sorted((tmp / run).iterdir())}


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> int:
    sys.path.insert(0, str(SRC))
    path = next_path()
    snapshot: dict = {"revision": {"commit": _git("rev-parse", "HEAD"),
                                   "tree_differs": bool(_git("status", "--porcelain"))}}
    snapshot["benchmark"], env = benchmark()
    snapshot["environment"] = {**env, "platform": platform.platform()}
    with tempfile.TemporaryDirectory() as tmp:
        snapshot["reference_run"] = reference_run(Path(tmp))
    snapshot["tier1"] = tier1()
    snapshot["source_stats"] = source_stats()
    with tempfile.TemporaryDirectory() as tmp:
        snapshot["golden_sha256"] = golden_sha256(Path(tmp))
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
