"""Correctness checks on benchmark outputs, and a self-test of the checks.

No check pins seed-specific bytes or values, so a change of the per-seed
random stream is not a failure.  A run summary is checked against the exact
oracle: exactly where the oracle value is 0 or 1, otherwise within a
Hoeffding bound that a correct engine exceeds with probability at most
FALSE_ALARM per check at any seed.  A replayed transcript file must give
back the summary its run printed, and every parsed line must re-serialize to
the identical line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from qdialogue import cli, harness
from qdialogue.protocol import ORIGINAL

FALSE_ALARM = 1e-9
REL_TOL = 1e-12

# what the parser raises on a malformed line
PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def hoeffding_radius(n: int) -> float:
    """|mean - p| of n Bernoulli(p) draws exceeds this with probability <= FALSE_ALARM."""
    return math.sqrt(math.log(2 / FALSE_ALARM) / (2 * n))


def _rate_problem(name: str, observed, p, n: int) -> str | None:
    if observed is None:
        return f"{name} is missing over {n} rounds"
    if p in (0, 1):
        return None if observed == p else f"{name}={observed}, oracle gives exactly {p}"
    radius = hoeffding_radius(n)
    if abs(observed - float(p)) > radius:
        return f"{name}={observed} outside {float(p):.4f} +- {radius:.4f} (n={n})"
    return None


def summary_problems(protocol: str, strategy: str, rounds: int, p_cm: float,
                     summary: dict, oracle) -> list[str]:
    """Check one `run --format records` summary of a config against the oracle."""
    s = summary
    problems = []
    if s["rounds_total"] != rounds:
        problems.append(f"rounds_total={s['rounds_total']}, asked for {rounds}")
    if s["rounds_cm"] + s["rounds_mm"] + s["rounds_mixed"] != s["rounds_total"]:
        problems.append("mode buckets do not add up to rounds_total")
    if protocol == ORIGINAL:
        p_checked = p_cm  # Alice alone chooses CM
        if s["rounds_mixed"]:
            problems.append("original protocol reported mixed rounds")
    else:
        p_checked = p_cm * p_cm  # the check runs iff both chose CM
    problems.append(_rate_problem("cm share", s["rounds_cm"] / rounds, p_checked, rounds))
    if s["checks_performed"] != s["rounds_cm"]:
        problems.append("checks_performed differs from the CM bucket")

    checks = s["checks_performed"]
    if checks == 0:
        problems.append("no check performed, detection rate untestable")
    else:
        if not math.isclose(s["detection_rate"], s["checks_failed"] / checks, rel_tol=REL_TOL):
            problems.append("detection_rate differs from checks_failed/checks_performed")
        problems.append(_rate_problem("detection_rate", s["detection_rate"],
                                      oracle.detection_probability, checks))
    # a party decodes correctly iff the outcome is the honest XOR, i.e. iff
    # the round would pass the check; every MM/MM round decodes both sides
    if s["rounds_mm"]:
        for name in ("alice_decode_accuracy", "bob_decode_accuracy"):
            problems.append(_rate_problem(name, s[name], oracle.check_pass_probability,
                                          s["rounds_mm"]))
    eve = oracle.eve_alice_accuracy_exact
    if eve is None:
        if s["eve_alice_accuracy"] is not None or s["eve_bob_public_accuracy"] is not None:
            problems.append("eve accuracies reported for a strategy that learns nothing")
    else:
        problems.append(_rate_problem("eve_alice_accuracy", s["eve_alice_accuracy"], eve, rounds))
        if eve == 1 and oracle.detection_probability == 0 \
                and s["eve_bob_public_accuracy"] not in (None, 1.0):
            problems.append("eve_bob_public_accuracy below 1 under an exact replay")
    return [p for p in problems if p]


def replay_problems(path: Path, expected: dict) -> list[str]:
    """Check a transcript file fully, one line at a time: every line parses,
    carries its round id and re-serializes to itself, and the summary of all
    of them equals ``expected``, the one the run printed.  An unparseable
    line is a failure, never a crash."""
    problems = []

    def checked(fh):
        for i, line in enumerate(fh):
            t = harness.parse_transcript_line(line)
            if not problems:
                if t.round_id != i:
                    problems.append(f"line {i} carries round_id {t.round_id}")
                elif harness.transcript_to_line(t) != line.rstrip("\n"):
                    problems.append(f"line {i} does not re-serialize to itself")
            yield t

    with open(path, encoding="utf-8") as fh:
        try:
            summary = harness.summarize(checked(fh))
        except PARSE_ERRORS as exc:
            return [f"unparseable line: {type(exc).__name__}: {exc}"]
    if harness.summary_to_record(summary) != expected:
        problems.append("recomputed summary differs from the one the run printed")
    return problems


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``qdialogue.cli.main`` in-process and capture what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def replayed_summary_problems(result, expected: dict) -> list[str]:
    """Check what ``replay_file`` returned against the summary the run printed."""
    if isinstance(result, BaseException):
        return [f"unparseable line: {type(result).__name__}: {result}"]
    if harness.summary_to_record(result) != expected:
        return ["recomputed summary differs from the one the run printed"]
    return []


def replay_file(path: Path):
    """Parse a transcript file line by line and re-summarize it, holding one
    line at a time; the summary, or the exception the parser raised."""
    with open(path, encoding="utf-8") as fh:
        try:
            return harness.summarize(harness.parse_transcript_line(line) for line in fh)
        except PARSE_ERRORS as exc:
            return exc


def self_test(tmp: Path) -> list[str]:
    """Return the doctored outputs the checks failed to flag (empty when sound).

    The summary cases start from a summary that is right by construction, so
    a wrong program cannot make the self-test fail; its own outputs are
    judged by the measured operations.
    """
    missed = []
    protocol, strategy, rounds, p_cm = "original", "bell-substitution", 400, 0.5
    oracle = harness.exact_oracle(protocol, strategy)
    # the replay attack is invisible: every check passes, every decode and
    # both of Eve's inferences are right
    good = {"rounds_total": rounds, "rounds_cm": 200, "rounds_mm": 200, "rounds_mixed": 0,
            "checks_performed": 200, "checks_failed": 0, "detection_rate": 0.0,
            "alice_decode_accuracy": 1.0, "bob_decode_accuracy": 1.0,
            "eve_alice_accuracy": 1.0, "eve_bob_public_accuracy": 1.0, "throughput_bits": 800}

    def flagged(summary: dict) -> bool:
        return bool(summary_problems(protocol, strategy, rounds, p_cm, summary, oracle))

    if flagged(good):
        missed.append("false alarm on a correct summary")
    if not flagged(dict(good, checks_failed=100, detection_rate=0.5)):
        missed.append("wrong detection rate")
    if not flagged(dict(good, bob_decode_accuracy=199 / 200)):
        missed.append("decode miss")

    path = tmp / "selftest.jsonl"
    code, out = run_cli(["run", "--protocol", protocol, "--attack", strategy,
                         "--rounds", str(rounds), "--p-cm", str(p_cm), "--seed", "7",
                         "--output", str(path), "--format", "records"])
    if code != 0:
        return missed + [f"self-test run exited {code}"]
    printed = json.loads(out.splitlines()[-1])
    lines = path.read_text(encoding="utf-8").splitlines()
    corrupted = [("truncated line", 0, lines[0][:-7])]
    checked = next((i for i, line in enumerate(lines) if '"check_passed":true}' in line), None)
    if checked is not None:  # parses and re-serializes, but changes the summary
        flipped = lines[checked].replace('"check_passed":true}', '"check_passed":false}')
        corrupted.append(("flipped check result", checked, flipped))
    for label, i, bad_line in corrupted:
        path.write_text("\n".join(lines[:i] + [bad_line] + lines[i + 1:]) + "\n",
                        encoding="utf-8")
        if not replay_problems(path, printed):
            missed.append(label)
        if not replayed_summary_problems(replay_file(path), printed):
            missed.append(f"{label} (summary-only check)")
    path.unlink()
    return missed
