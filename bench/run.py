"""Benchmark of the qdialogue simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  mc-summary         `qdialogue run --format records` over all 8 (protocol,
                     strategy) pairs at a CM-heavy and an MM-heavy p_cm
  mc-transcript      the same configs with `--output FILE`
  transcript-replay  parse `run --output` files and re-summarize them
  all                the three above in turn (the default)

Each workload runs in a fresh single-threaded interpreter on the checkout's
own `src`.  With `--trace 0` the end-to-end metrics are measured untraced:
rounds_per_s and peak_rss_mb per workload, and setup_s (median of several
fresh interpreters each returning a 1-round `qdialogue run`) once per
invocation.  `--trace 1` is the separate traced run that gives the
per-layer metrics.  `--seconds` defaults to BENCHMARK.json's run_seconds.  Every output is checked; the
share that fails is failed_frac.  A table goes to standard output, the
last line is one JSON object, and the full result is written under
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mc-summary", "mc-transcript", "transcript-replay")
SETUP_REPEATS = 11
SETUP_SNIPPET = (
    "import sys; from qdialogue.cli import main; "
    "sys.exit(main(['run', '--rounds', '1', '--format', 'records']))"
)
# A fresh interpreter importing numpy, the bulk of set-up that is not the
# package's own, times each set-up run against the machine's current speed.
# Its wall drifts by a third across minutes on a shared machine; the ratio
# of the two stays within a few percent.  NOMINAL_REFERENCE_S is the
# reference's time at which setup_s is reported.
REFERENCE_SNIPPET = "import numpy"
NOMINAL_REFERENCE_S = 0.1
DEADLINE_S = 170  # per workload; each ends well within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline); return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[:2]} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def timed_child(argv: list[str], deadline: float) -> tuple[float, str]:
    start = time.perf_counter()
    out = run_child(argv, deadline)
    return time.perf_counter() - start, out


def measure_setup(deadline: float) -> tuple[float, float]:
    """Wall time from a fresh interpreter to a returned 1-round run: the
    median over SETUP_REPEATS of each run's ratio to the reference child run
    just before it, times NOMINAL_REFERENCE_S; and the raw median."""
    setup, reference = ["-c", SETUP_SNIPPET], ["-c", REFERENCE_SNIPPET]
    run_child(reference, deadline)  # warm-up: byte-code caches, page cache
    run_child(setup, deadline)
    ratios, walls = [], []
    for _ in range(SETUP_REPEATS):
        ref_wall, _ = timed_child(reference, deadline)
        wall, out = timed_child(setup, deadline)
        if json.loads(out.splitlines()[-1])["rounds_total"] != 1:
            raise BenchError("the 1-round set-up run did not report 1 round")
        ratios.append(wall / ref_wall)
        walls.append(wall)
    return statistics.median(ratios) * NOMINAL_REFERENCE_S, statistics.median(walls)


def merge_replay_check(result: dict, tmp: Path, deadline: float) -> None:
    """Count the full replays of the files mc-transcript kept into ``result``."""
    if not (tmp / "deferred.json").exists():
        return
    deferred = json.loads((tmp / "deferred.json").read_text(encoding="utf-8"))
    out = run_child([str(BENCH / "workload.py"), "replay-check", "--dir", str(tmp)], deadline)
    for item, problems in zip(deferred, json.loads(out.splitlines()[-1])["problems"]):
        if problems and not item["failed"]:
            result["failed"] += 1
        result["problems"] += problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, load1: float,
                 setup: tuple[float, float] | None, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(tmp)]
    try:
        run_child([str(BENCH / "workload.py"), "prepare", *common], deadline)
        argv = [str(BENCH / "workload.py"), "measure", *common, "--seconds", str(seconds),
                "--trace", str(int(trace))]
        if trace:
            argv += ["--trace-out", str(OUT / f"{stem}-spans.json")]
        result = json.loads(run_child(argv, deadline).splitlines()[-1])
        merge_replay_check(result, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["end_to_end"], setup_s=(setup[0], "s"))
        result["raw_setup_s"] = setup[1]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["failed_frac"] = result["failed"] / result["attempted"]
    result["machine"] = {"nproc": os.cpu_count(), "python": result["python"],
                         "numpy": result["numpy"], "platform": platform.machine(),
                         "loadavg1_at_start": load1}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['passes']} passes, {result['rounds_timed']} rounds in "
          f"{result['timed_seconds']:.2f} s timed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    raw_setup = f", setup_s {result['raw_setup_s']:.4g} s" if "raw_setup_s" in result else ""
    print(f"  unscaled: rounds_per_s {result['raw_rounds_per_s']:.6g} rounds/s{raw_setup}, "
          f"reference loop {result['reference_ms']:.4g} ms")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdialogue" / "cli.py").is_file():
        print(f"error: no qdialogue source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    load1 = os.getloadavg()[0]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    try:
        setup = None if args.trace else measure_setup(deadline)
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, seconds, bool(args.trace),
                                             load1, setup, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = next(iter(results.values()))
    print("machine: " + " ".join(f"{k}={v}" for k, v in first["machine"].items()))
    for workload, result in results.items():
        print_table(workload, result)
    if len(results) == 1:
        metrics = first["metrics"]
    else:  # set-up does not depend on the workload: report it once
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
                   if k != "setup_s"}
        if setup is not None:
            metrics["setup_s"] = first["metrics"]["setup_s"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
