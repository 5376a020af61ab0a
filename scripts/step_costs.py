#!/usr/bin/env python3
"""Microseconds per call of the small per-round steps, timed with ``timeit``.

The benchmark's traced run wraps every call it times, and on the fast steps
the wrapper costs more than the work, so it cannot show a sub-microsecond
change.  This script times each step bare, best of five runs:

  construct        one ``RoundTranscript(...)`` from a round's field values
  parse hit        ``parse_transcript_line`` on a line whose tail is cached
  to_line hit      ``transcript_to_line`` on a transcript whose tail is cached
  summarize        ``summarize`` over a batch, per transcript
  summarize 10k    ``summarize`` over an iterator of one 10,000-round run,
                   per transcript: a run has few shapes for its rounds
  round original   ``protocol._run_round``, original MM/MM round
  round modified   ``protocol._run_round``, modified MM/MM round

The batch is one modified/bell-substitution run of 64 rounds, and the
10,000-round run has the same config; both rounds run under that attack
with a fresh channel each, as the harness plays them.

    python scripts/step_costs.py
"""

from __future__ import annotations

import random
import timeit
from collections import deque
from dataclasses import fields
from itertools import starmap

from qdialogue.adversary import AdversaryChannel
from qdialogue.bell_core import PauliCode
from qdialogue.harness import (
    RunConfig,
    iter_rounds,
    parse_transcript_line,
    summarize,
    transcript_to_line,
)
from qdialogue.protocol import MODIFIED, ORIGINAL, Mode, RoundTranscript, _run_round

STRATEGY = "bell-substitution"
BATCH = 64
LONG_RUN = 10_000


def _drain(calls) -> None:
    deque(calls, maxlen=0)


def step_costs(number: int = 200) -> list[tuple[str, float]]:
    """(step, µs per call) for each step above, each over ``number`` batches
    (the 10,000-round run counts as ``LONG_RUN / BATCH`` of them)."""
    batch, long_run = (
        list(iter_rounds(RunConfig(protocol=MODIFIED, strategy=STRATEGY, rounds=n, seed=1)))
        for n in (BATCH, LONG_RUN)
    )
    lines = [transcript_to_line(t) for t in batch]  # fills the line cache
    _drain(map(parse_transcript_line, lines))  # and the parser's
    values = [tuple(getattr(t, f.name) for f in fields(t)) for t in batch]
    rng = random.Random(1)
    bob_bits, alice_bits = PauliCode(1, 0), PauliCode(0, 1)

    def play(protocol: str) -> None:
        channel = AdversaryChannel(STRATEGY)
        _run_round(protocol, Mode.MM, bob_bits, Mode.MM, alice_bits, channel, rng, 0)

    steps = [  # (name, statement, calls per statement)
        ("construct", lambda: _drain(starmap(RoundTranscript, values)), BATCH),
        ("parse hit", lambda: _drain(map(parse_transcript_line, lines)), BATCH),
        ("to_line hit", lambda: _drain(map(transcript_to_line, batch)), BATCH),
        ("summarize", lambda: summarize(batch), BATCH),
        ("summarize 10k", lambda: summarize(iter(long_run)), LONG_RUN),
        ("round original", lambda: _drain(map(play, [ORIGINAL] * BATCH)), BATCH),
        ("round modified", lambda: _drain(map(play, [MODIFIED] * BATCH)), BATCH),
    ]
    results = []
    for name, stmt, calls in steps:
        runs = max(1, number * BATCH // calls)
        best = min(timeit.repeat(stmt, number=runs, repeat=5))
        results.append((name, best / (runs * calls) * 1e6))
    return results


def main() -> int:
    for name, us in step_costs():
        print(f"{name:<16} {us:8.3f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
