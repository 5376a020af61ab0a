"""Command-line front-end: experiment runs, the exact oracle, a text dialogue.

Exit codes: 0 success, 1 I/O failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import closing, contextmanager
from functools import cache
from typing import IO, Iterator

from .adversary import STRATEGIES
from .harness import (
    ConfigurationError,
    RunConfig,
    codes_to_text,
    delivered_codes,
    exact_oracle,
    iter_rounds,
    summarize,
    tee_transcripts,
    text_to_codes,
    write_summary,
)
from .protocol import ORIGINAL, PROTOCOLS

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _probability(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _file_path(raw: str) -> str:
    if not raw:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdialogue",
        description="Simulate the two-way dialogue protocol under eavesdropping attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte Carlo run with summary metrics")
    run.add_argument("--protocol", choices=PROTOCOLS, default=ORIGINAL)
    run.add_argument("--attack", choices=STRATEGIES, default="none")
    run.add_argument("--rounds", type=_positive_int, default=10_000)
    run.add_argument("--p-cm", type=_probability, default=0.5,
                     help="per-party probability of choosing checking mode")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--output", type=_file_path,
                     help="write per-round transcripts (JSON lines) here")
    run.add_argument("--format", choices=("text", "csv", "records"), default="text")

    oracle = sub.add_parser("oracle", help="exact branch-enumeration probabilities")
    oracle.add_argument("--protocol", choices=PROTOCOLS, default=ORIGINAL)
    oracle.add_argument("--attack", choices=STRATEGIES, default="none")
    oracle.add_argument("--format", choices=("text", "records"), default="text")

    dialogue = sub.add_parser("dialogue", help="carry two texts through an MM-only exchange")
    dialogue.add_argument("--attack", choices=STRATEGIES, default="none")
    dialogue.add_argument("--alice-text", required=True)
    dialogue.add_argument("--bob-text", required=True)
    dialogue.add_argument("--seed", type=int, default=0)
    dialogue.add_argument(
        "--suppress-outcome-reveal",
        action="store_true",
        help="deliver the outcome to Alice privately instead of announcing it",
    )
    return parser


@contextmanager
def _replaced_on_success(path: str) -> Iterator[IO[str]]:
    """Write to a temp file beside ``path``; move it there only if the block succeeds.

    A failed or interrupted run then leaves no truncated file at ``path``.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with open(fd, "w", encoding="utf-8") as sink:
            yield sink
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        protocol=args.protocol,
        strategy=args.attack,
        rounds=args.rounds,
        p_cm=args.p_cm,
        seed=args.seed,
    )
    config.validate()  # before the output file is opened
    # one streaming pass: no round outlives its summary update and its line
    if args.output:
        try:
            # the tee is closed, and its last block written, while the sink is open
            with _replaced_on_success(args.output) as sink, \
                    closing(tee_transcripts(iter_rounds(config), sink)) as rounds:
                summary = summarize(rounds)
        except OSError as exc:
            # strerror alone: the exception's file name may be the temp file's
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_IO
    else:
        summary = summarize(iter_rounds(config))
    if args.format == "text":
        print(f"protocol  {config.protocol}")
        print(f"strategy  {config.strategy}")
        print(f"seed      {config.seed}")
    write_summary(summary, sys.stdout, format=args.format)
    return EXIT_OK


def _fraction_fields(result) -> list[tuple[str, object]]:
    eve = result.eve_alice_accuracy_exact
    return [
        ("check_pass_probability", result.check_pass_probability),
        ("detection_probability", result.detection_probability),
        ("eve_alice_accuracy", eve),
    ]


def cmd_oracle(args: argparse.Namespace) -> int:
    result = exact_oracle(args.protocol, args.attack)
    if args.format == "records":
        record = {
            "protocol": result.protocol,
            "strategy": result.strategy,
        }
        for name, value in _fraction_fields(result):
            record[name] = None if value is None else str(value)
            record[name + "_decimal"] = None if value is None else float(value)
        record["outcome_distribution"] = {
            f"bob={bob.k}{bob.l},alice={alice.k}{alice.l}": {
                f"{idx.x}{idx.y}": str(p) for idx, p in sorted(cell.items(), key=lambda kv: (kv[0].x, kv[0].y))
            }
            for (bob, alice), cell in result.outcome_distribution.items()
        }
        print(json.dumps(record))
        return EXIT_OK

    print(f"protocol  {result.protocol}")
    print(f"strategy  {result.strategy}")
    for name, value in _fraction_fields(result):
        if value is None:
            print(f"{name:<24}  n/a")
        else:
            print(f"{name:<24}  {value}  ({float(value):.6f})")
    print("outcome distribution per (bob, alice) code pair:")
    for (bob, alice), cell in result.outcome_distribution.items():
        parts = ", ".join(
            f"({idx.x},{idx.y})={p}"
            for idx, p in sorted(cell.items(), key=lambda kv: (kv[0].x, kv[0].y))
        )
        print(f"  bob=({bob.k},{bob.l}) alice=({alice.k},{alice.l}):  {parts}")
    return EXIT_OK


def cmd_dialogue(args: argparse.Namespace) -> int:
    config = RunConfig(
        protocol=ORIGINAL,
        strategy=args.attack,
        p_cm=0.0,
        seed=args.seed,
        alice_text=args.alice_text,
        bob_text=args.bob_text,
        suppress_outcome_reveal=args.suppress_outcome_reveal,
    )
    config.validate()  # before the texts are packed
    alice_codes = text_to_codes(config.alice_text)
    bob_codes = text_to_codes(config.bob_text)
    config.rounds = max(len(alice_codes), len(bob_codes))
    # two empty texts need no round, and a run has at least one
    transcripts = list(iter_rounds(config)) if config.rounds else []

    bob_received = codes_to_text(delivered_codes(transcripts, "bob")[: len(alice_codes)])
    alice_received = codes_to_text(delivered_codes(transcripts, "alice")[: len(bob_codes)])
    eve_alice = [t.eve_report.inferred_alice for t in transcripts if t.eve_report is not None]
    eve_bob = [
        t.eve_report.inferred_bob_public
        for t in transcripts
        if t.eve_report is not None and t.eve_report.inferred_bob_public is not None
    ]

    def shown(codes: list, limit: int) -> str:
        if not codes:
            return "(nothing)"
        return repr(codes_to_text(codes[:limit]))

    print(f"alice sent     {args.alice_text!r}")
    print(f"bob recovered  {bob_received!r}")
    print(f"bob sent       {args.bob_text!r}")
    print(f"alice recovered {alice_received!r}")
    print(f"eve's copy of alice's text: {shown(eve_alice, len(alice_codes))}")
    print(f"eve's copy of bob's text:   {shown(eve_bob, len(bob_codes))}")
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        return cmd_dialogue(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
