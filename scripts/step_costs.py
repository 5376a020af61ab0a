#!/usr/bin/env python3
"""Microseconds per call of the small per-round steps, timed with ``timeit``.

The benchmark's traced run wraps every call it times, and on the fast steps
the wrapper costs more than the work, so it cannot show a sub-microsecond
change.  This script times each step bare, best of five runs:

  construct          one ``RoundTranscript(...)`` from a round's field values
  shaped transcript  ``shaped_transcript(round_id, shape)``: the copy of a
                     shape's fields that a simulated round and a parse hit return
  parse hit          ``parse_transcript_line`` on a line whose tail is cached
  to_line hit        ``transcript_to_line`` on a transcript whose tail is cached
  summarize          ``summarize`` over a batch, per transcript
  summarize 10k      ``summarize`` over an iterator of one 10,000-round run,
                     per transcript: a run has few shapes for its rounds
  write 10k          ``write_transcripts`` of the same run into a new
                     temporary file, per transcript: a line each, written in
                     blocks to a real file, as ``run --output`` writes them
  run 10k            ``summarize(iter_rounds(config))`` of the same run, per
                     round: the engine as ``run`` drives it, each block's
                     modes and round-table keys computed in numpy, then one
                     ``run_round_*`` call per round; the ``round P S`` rows
                     below play rows one at a time, so they do not show the
                     block path
  cli parse          one ``run`` argv parsed by the parser ``cli.main`` uses
  round P S          one engine round of protocol P under strategy S
                     (none, bell-substitution), through ``rounds_from_rows``
                     on a fixed batch of rows: the mode reads, ``round_key``
                     plus one flat lookup in the strategy's round table, and
                     ``shaped_transcript``

The batch is one modified/bell-substitution run of 64 rounds, and the
10,000-round run has the same config; the engine rounds play the first 64
rows of seed 1's stream with p_cm 0.5.

    python scripts/step_costs.py
"""

from __future__ import annotations

import tempfile
import timeit
from collections import deque
from dataclasses import fields, replace
from itertools import starmap

from qdialogue import cli
from qdialogue.adversary import BELL_SUBSTITUTION, NONE
from qdialogue.harness import (
    RunConfig,
    iter_rounds,
    parse_transcript_line,
    rounds_from_rows,
    summarize,
    transcript_to_line,
    uniform_rows,
    write_transcripts,
)
from qdialogue.protocol import MODIFIED, PROTOCOLS, RoundTranscript, shaped_transcript

STRATEGY = BELL_SUBSTITUTION
BATCH = 64
LONG_RUN = 10_000


def _drain(calls) -> None:
    deque(calls, maxlen=0)


def _write_to_file(transcripts) -> None:
    with tempfile.TemporaryFile("w", encoding="utf-8") as sink:
        write_transcripts(transcripts, sink)


def step_costs(number: int = 200) -> list[tuple[str, float]]:
    """(step, µs per call) for each step above, each over ``number`` batches
    (the 10,000-round run counts as ``LONG_RUN / BATCH`` of them)."""
    long_config = RunConfig(protocol=MODIFIED, strategy=STRATEGY, rounds=LONG_RUN, seed=1)
    batch = list(iter_rounds(replace(long_config, rounds=BATCH)))
    long_run = list(iter_rounds(long_config))
    lines = [transcript_to_line(t) for t in batch]  # fills the line cache
    _drain(map(parse_transcript_line, lines))  # and the parser's
    values = [tuple(getattr(t, f.name) for f in fields(t)) for t in batch]
    shapes = [(t.round_id, t.shape) for t in batch]
    rows = list(uniform_rows(1, 0, BATCH))
    parser = cli._parser()
    argvs = [["run", "--protocol", MODIFIED, "--attack", STRATEGY, "--rounds", str(LONG_RUN),
              "--seed", "1", "--format", "records"]] * BATCH

    def engine_round(protocol: str, strategy: str):
        config = RunConfig(protocol=protocol, strategy=strategy, p_cm=0.5)
        return (f"round {protocol} {strategy}",
                lambda: _drain(rounds_from_rows(config, rows)), BATCH)

    steps = [  # (name, statement, calls per statement)
        ("construct", lambda: _drain(starmap(RoundTranscript, values)), BATCH),
        ("shaped transcript", lambda: _drain(starmap(shaped_transcript, shapes)), BATCH),
        ("parse hit", lambda: _drain(map(parse_transcript_line, lines)), BATCH),
        ("to_line hit", lambda: _drain(map(transcript_to_line, batch)), BATCH),
        ("summarize", lambda: summarize(batch), BATCH),
        ("summarize 10k", lambda: summarize(iter(long_run)), LONG_RUN),
        ("write 10k", lambda: _write_to_file(long_run), LONG_RUN),
        ("run 10k", lambda: summarize(iter_rounds(long_config)), LONG_RUN),
        ("cli parse", lambda: _drain(map(parser.parse_args, argvs)), BATCH),
        *(engine_round(p, s) for p in PROTOCOLS for s in (NONE, BELL_SUBSTITUTION)),
    ]
    results = []
    for name, stmt, calls in steps:
        runs = max(1, number * BATCH // calls)
        best = min(timeit.repeat(stmt, number=runs, repeat=5))
        results.append((name, best / (runs * calls) * 1e6))
    return results


def main() -> int:
    for name, us in step_costs():
        print(f"{name:<33} {us:8.3f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
