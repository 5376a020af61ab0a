"""One benchmark workload, run in a fresh single-threaded interpreter.

    python3 bench/workload.py prepare --workload NAME --seed N --dir DIR
    python3 bench/workload.py measure --workload NAME --seed N --seconds S \
        --trace 0|1 --dir DIR [--trace-out FILE]
    python3 bench/workload.py replay-check --dir DIR

``prepare`` self-tests the correctness checks and, for transcript-replay,
writes the inputs with ``qdialogue run --output`` of the code under test
and checks them line by line.
``measure`` runs passes over the workload's operations (one ``run`` config
or one replayed file each), closed loop, until ``S`` seconds of timed work
are done; every operation's output is checked outside the timed region.
With ``--trace 1`` the passes alternate untraced and traced, so the tracing
overhead is measured against the same work.  On mc-transcript one file per
pass is kept for ``replay-check``, which replays it in its own process, so
that the measured process's peak RSS is the program's alone; for the same
reason a replay streams its file through the parser one line at a time.
``measure``
and ``replay-check`` print one JSON object on the last line of standard
output.

The package is reached only through ``qdialogue.cli.main`` and the public
``harness`` functions; the caller puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import qdialogue
from qdialogue import harness
from qdialogue.adversary import BELL_SUBSTITUTION, NONE, STRATEGIES
from qdialogue.protocol import PROTOCOLS

from checks import (replay_file, replay_problems, replayed_summary_problems, run_cli, self_test,
                    summary_problems)
from speed import reference_loop, scaled
from tracing import Tracer

WORKLOADS = ("mc-summary", "mc-transcript", "transcript-replay")

# mc-*: all 8 (protocol, strategy) pairs at a CM-heavy and an MM-heavy p_cm,
# 10k rounds each: a run size at which the held transcript list and the gc
# passes it drives weigh as they do in long Monte Carlo runs.  The acceptance
# gates' 1e5 rounds per pair would give under four configs per run and hold
# about 140 MB per process.
MC_ROUNDS = 10_000
MC_P_CM = (0.8, 0.2)
# transcript-replay: both protocols, attacked and not, so every announcement
# kind and both shapes of the "eve" field are parsed; each file is what one
# mc-transcript operation writes
REPLAY_ROUNDS = MC_ROUNDS
REPLAY_P_CM = 0.5
REPLAY_STRATEGIES = (NONE, BELL_SUBSTITUTION)
INPUTS = "inputs.json"
DEFERRED = "deferred.json"  # mc-transcript files left for replay-check


@dataclass
class Op:
    """One timed operation and the untimed check of its output."""

    slot: int  # position in the pass, stable across passes
    rounds: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]  # -> problems, transcript bytes


def _summary_record(out: str) -> dict | None:
    try:
        return json.loads(out.splitlines()[-1])
    except (ValueError, IndexError):
        return None


def _run_argv(protocol, strategy, rounds, p_cm, seed, output=None) -> list[str]:
    argv = ["run", "--protocol", protocol, "--attack", strategy, "--rounds", str(rounds),
            "--p-cm", str(p_cm), "--seed", str(seed), "--format", "records"]
    return argv + ["--output", str(output)] if output else argv


# ---------------------------------------------------------------------------
# mc-summary and mc-transcript

MC_CONFIGS = [(p, s, x) for p in PROTOCOLS for s in STRATEGIES for x in MC_P_CM]


def _count_lines(path: Path) -> int:
    """Newlines in a file, read in blocks so the measured process holds none of it."""
    count = 0
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):
            count += block.count(b"\n")
    return count


def _check_mc(config, oracle, path: Path | None, deferred: list | None, result):
    code, out = result
    if code != 0:
        return [f"run exited {code}"], 0
    summary = _summary_record(out)
    if summary is None:
        return ["run printed no summary record"], 0
    protocol, strategy, p_cm = config
    problems = summary_problems(protocol, strategy, MC_ROUNDS, p_cm, summary, oracle)
    if path is None:
        return problems, 0
    size = path.stat().st_size
    if _count_lines(path) != MC_ROUNDS:
        problems.append("transcript file does not hold one line per round")
    if deferred is None:
        path.unlink()
    else:
        kept = path.with_name(f"kept-{len(deferred)}.jsonl")
        path.rename(kept)
        deferred.append({"file": kept.name, "summary": summary, "failed": bool(problems)})
    return problems, size


def mc_pass(rng: random.Random, tmp: Path, write: bool, oracles, deferred: list,
            index: int) -> list[Op]:
    """All configs with fresh seeds, in a shuffled order; with ``write`` each
    also writes its transcripts, and one file per pass is kept in ``deferred``
    for a full replay in another process."""
    seeds = [rng.randrange(2**32) for _ in MC_CONFIGS]
    order = list(range(len(MC_CONFIGS)))
    rng.shuffle(order)
    ops = []
    for slot in order:
        protocol, strategy, p_cm = config = MC_CONFIGS[slot]
        path = tmp / f"mc-{slot}.jsonl" if write else None
        argv = _run_argv(protocol, strategy, MC_ROUNDS, p_cm, seeds[slot], path)
        keep = deferred if slot == order[0] else None
        check = partial(_check_mc, config, oracles[protocol, strategy], path, keep)
        ops.append(Op(slot, MC_ROUNDS, partial(run_cli, argv), check))
    return ops


# ---------------------------------------------------------------------------
# transcript-replay

def prepare(workload: str, seed: int, tmp: Path) -> None:
    """Self-test the checks; for transcript-replay, write the inputs too."""
    missed = self_test(tmp)
    if missed:
        raise RuntimeError(f"correctness checks missed doctored outputs: {missed}")
    if workload == "transcript-replay":
        generate(seed, tmp)


def replay_check(tmp: Path) -> dict:
    """Fully replay the files mc-transcript kept; the problems of each, in order."""
    deferred = json.loads((tmp / DEFERRED).read_text(encoding="utf-8"))
    problems = []
    for item in deferred:
        path = tmp / item["file"]
        problems.append(replay_problems(path, item["summary"]))
        path.unlink()
    return {"problems": problems}


def generate(seed: int, tmp: Path) -> None:
    """Write the replay inputs and the summaries their runs printed, and check
    each file fully: the timed passes re-read the same files, so they need
    check only the recomputed summary."""
    rng = random.Random(seed)
    inputs = []
    for protocol in PROTOCOLS:
        for strategy in REPLAY_STRATEGIES:
            name = f"replay-{protocol}-{strategy}.jsonl"
            argv = _run_argv(protocol, strategy, REPLAY_ROUNDS, REPLAY_P_CM,
                             rng.randrange(2**32), tmp / name)
            code, out = run_cli(argv)
            summary = _summary_record(out)
            if code != 0 or summary is None:
                problems = [f"input run exited {code} without a summary"]
            else:
                problems = summary_problems(protocol, strategy, REPLAY_ROUNDS, REPLAY_P_CM,
                                            summary, harness.exact_oracle(protocol, strategy))
                problems += replay_problems(tmp / name, summary)
            inputs.append({"file": name, "rounds": REPLAY_ROUNDS, "summary": summary,
                           "problems": problems})
    (tmp / INPUTS).write_text(json.dumps(inputs), encoding="utf-8")


def _check_replay(item: dict, size: int, result):
    return replayed_summary_problems(result, item["summary"]), size


def replay_pass(inputs: list[dict], tmp: Path, index: int) -> list[Op]:
    """Every input file once."""
    ops = []
    for slot, item in enumerate(inputs):
        path = tmp / item["file"]
        check = partial(_check_replay, item, path.stat().st_size)
        ops.append(Op(slot, item["rounds"], partial(replay_file, path), check))
    return ops


# ---------------------------------------------------------------------------
# measurement

class Tally:
    """Walls per slot, rounds and transcript bytes of the untraced or traced passes."""

    def __init__(self):
        self.walls: dict[int, list[float]] = defaultdict(list)  # raw
        self.scaled: dict[int, list[float]] = defaultdict(list)  # at the reference speed
        self.refs: list[float] = []
        self.rounds_of: dict[int, int] = {}
        self.rounds = 0
        self.wall = 0.0
        self.scaled_wall = 0.0
        self.ops = 0
        self.bytes = 0

    def add(self, op: Op, wall: float, ref_before: float, ref_after: float, size: int) -> None:
        at_reference = scaled(wall, ref_before, ref_after)
        self.walls[op.slot].append(wall)
        self.scaled[op.slot].append(at_reference)
        self.refs.append(ref_after)
        self.rounds_of[op.slot] = op.rounds
        self.rounds += op.rounds
        self.wall += wall
        self.scaled_wall += at_reference
        self.ops += 1
        self.bytes += size

    def rounds_per_s(self, walls: dict[int, list[float]]) -> float:
        """Rounds of one pass over the sum of each slot's median wall time."""
        median_pass = sum(statistics.median(w) for w in walls.values())
        return sum(self.rounds_of.values()) / median_pass


def layer_metrics(tracer: Tracer, t: Tally, untraced: Tally) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced passes, named <module>.<function>.<measure>."""
    st = tracer.stats
    rounds = t.rounds

    def calls(name):
        return st[name][0]

    def us_per_call(name, index):  # index 1: total time, 2: self time
        return st[name][index] / 1e3 / calls(name) if calls(name) else 0.0

    def us_per_round(name, index):
        return st[name][index] / 1e3 / rounds

    m = {
        "harness.iter_rounds.self_us_per_round": (us_per_round("harness.iter_rounds", 2), "us"),
        "harness.run_sessions.self_us_per_round": (us_per_round("harness.run_sessions", 2), "us"),
        # self time: on transcript-replay summarize pulls the parsed lines
        "harness.summarize.us_per_round": (us_per_round("harness.summarize", 2), "us"),
        "harness.transcript_to_line.us_per_round":
            (us_per_round("harness.transcript_to_line", 1), "us"),
        "harness.write_transcripts.self_us_per_round":
            (us_per_round("harness.write_transcripts", 2), "us"),
        "harness.parse_transcript_line.us_per_round":
            (us_per_round("harness.parse_transcript_line", 1), "us"),
        "harness.transcript.bytes_per_round": (t.bytes / rounds, "bytes"),
    }
    for variant in ("original", "modified"):
        name = f"protocol.run_round_{variant}"
        m[f"{name}.self_us_per_round"] = (us_per_call(name, 2), "us")
    round_calls = calls("protocol.run_round_original") + calls("protocol.run_round_modified")
    m["protocol.run_round.calls_per_round"] = (round_calls / rounds, "count")
    m["adversary.on_forward.self_us_per_call"] = (us_per_call("adversary.on_forward", 2), "us")
    m["adversary.on_return.self_us_per_call"] = (us_per_call("adversary.on_return", 2), "us")
    m["adversary.observe_public.us_per_call"] = (us_per_call("adversary.observe_public", 1), "us")
    for fn in ("on_forward", "on_return", "observe_public"):
        m[f"adversary.{fn}.calls_per_round"] = (calls(f"adversary.{fn}") / rounds, "count")
    for fn in ("apply_pauli", "bell_measure", "measure_computational", "random_code"):
        m[f"bell_core.{fn}.us_per_call"] = (us_per_call(f"bell_core.{fn}", 1), "us")
        m[f"bell_core.{fn}.calls_per_round"] = (calls(f"bell_core.{fn}") / rounds, "count")
    m["bell_core.decode_bits.calls_per_round"] = (calls("bell_core.decode_bits") / rounds, "count")
    m["bell_core.TwoQubitState.constructed_per_round"] = \
        (tracer.states_constructed / rounds, "count")
    m["bell_core.bell_measure.deterministic_ratio"] = (
        tracer.born_deterministic / tracer.born_samplings if tracer.born_samplings else 0.0,
        "ratio")
    main_calls = calls("cli.main")
    m["cli.main.self_ms_per_config"] = (
        st["cli.main"][2] / 1e6 / main_calls if main_calls else 0.0, "ms")
    m["gc.pause_ms_per_kround"] = (tracer.gc_pause_ns / 1e6 / (rounds / 1e3), "ms")
    pass_rounds = sum(t.rounds_of.values())
    m["gc.gen2_collections"] = (tracer.gc_gen2 * pass_rounds / rounds, "count")
    m["run.wall_us_per_round"] = (t.wall / rounds * 1e6, "us")
    m["trace.overhead_frac"] = (
        (t.scaled_wall / rounds) / (untraced.scaled_wall / untraced.rounds) - 1.0, "ratio")
    m["machine.reference_ms"] = (statistics.median(t.refs) * 1e3, "ms")
    return m


def _check_trace_coverage(workload: str, tracer: Tracer, t: Tally) -> None:
    """Fail loudly if a wrapper was bypassed: every round must be seen once."""
    st = tracer.stats
    if workload == "transcript-replay":
        seen = {"harness.parse_transcript_line": st["harness.parse_transcript_line"][0]}
    else:
        seen = {"protocol.run_round_*": st["protocol.run_round_original"][0]
                + st["protocol.run_round_modified"][0],
                "harness.iter_rounds": st["harness.iter_rounds"][0] - t.ops}  # + 1 final next()
    for name, count in seen.items():
        if count != t.rounds:
            raise RuntimeError(f"trace saw {count} calls of {name} for {t.rounds} rounds")


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
            trace_out: Path | None) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    rng = random.Random(seed)
    deferred: list[dict] = []
    if workload == "transcript-replay":
        inputs = json.loads((tmp / INPUTS).read_text(encoding="utf-8"))
        for item in inputs:  # the inputs' own runs count as operations too
            attempted += 1
            if item["problems"]:
                failed += 1
                problems += item["problems"]
        make_pass = partial(replay_pass, inputs, tmp)
    else:
        oracles = {(p, s): harness.exact_oracle(p, s) for p in PROTOCOLS for s in STRATEGIES}
        make_pass = partial(mc_pass, rng, tmp, workload == "mc-transcript", oracles, deferred)

    tracer = Tracer() if trace else None
    tallies = {False: Tally(), True: Tally()}
    min_passes = 2 if trace else 1  # run whole, so every operation has a time
    timed = 0.0
    index = 0
    reference_loop()  # warm-up: the first call pays numpy's lazy set-up
    ref_before = reference_loop()
    while timed < seconds or index < min_passes:
        traced = trace and index % 2 == 1
        tally = tallies[traced]
        for op in make_pass(index):
            with tracer.installed() if traced else nullcontext():
                start = perf_counter()
                result = op.run()
                wall = perf_counter() - start
            ref_after = reference_loop()
            op_problems, size = op.check(result)
            tally.add(op, wall, ref_before, ref_after, size)
            ref_before = ref_after
            timed += wall
            attempted += 1
            if op_problems:
                failed += 1
                problems += op_problems
            if timed >= seconds and index >= min_passes:
                break
        index += 1

    if deferred:
        (tmp / DEFERRED).write_text(json.dumps(deferred), encoding="utf-8")
    untraced = tallies[False]
    end_to_end = {
        "rounds_per_s": (untraced.rounds_per_s(untraced.scaled), "rounds/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    per_layer = {}
    if trace:
        _check_trace_coverage(workload, tracer, tallies[True])
        per_layer = layer_metrics(tracer, tallies[True], untraced)
        if trace_out is not None:
            report = tracer.report()
            report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            trace_out.write_text(json.dumps(report), encoding="utf-8")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": index,
        "timed_seconds": timed,
        "rounds_timed": untraced.rounds + tallies[True].rounds,
        "raw_rounds_per_s": untraced.rounds_per_s(untraced.walls),
        "reference_ms": statistics.median(untraced.refs) * 1e3,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure", "replay-check"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qdialogue.__file__).resolve().parents:
        print(f"error: qdialogue imported from {qdialogue.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "replay-check":
        print(json.dumps(replay_check(args.dir)))
        return 0
    if args.workload is None or args.seed is None:
        parser.error(f"{args.mode} needs --workload and --seed")
    if args.mode == "prepare":
        prepare(args.workload, args.seed, args.dir)
        return 0
    if args.seconds is None:
        parser.error("measure needs --seconds")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.dir,
                     args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
