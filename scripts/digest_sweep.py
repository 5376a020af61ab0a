#!/usr/bin/env python3
"""One sha256 per case of a fixed sweep of runs, to show that a change leaves
every transcript and summary byte-identical.

The cases, each at seed 7:

  run P S R C output|records|text
      ``qdialogue run`` of protocol P under strategy S for R rounds at
      p_cm C: the ``--output`` file, or the ``--format records`` or
      ``--format text`` stdout.  Every (protocol, strategy) pair, at
      rounds 1, 1023, 1024, 1025 and 20000 and p_cm 0, 0.2, 0.8 and 1.
  suppressed S C
      the JSON lines (``transcript_to_line``) of a 1025-round original run
      with ``suppress_outcome_reveal`` under strategy S at p_cm C.
  dialogue S short|long [suppressed]
      ``qdialogue dialogue`` stdout under strategy S, with short texts or
      texts that outlast a block of rows, with and without
      ``--suppress-outcome-reveal``.
  text P S short|long
      the JSON lines of ``iter_rounds(RunConfig(..., alice_text=...,
      bob_text=...))`` for protocol P under strategy S at p_cm 0.5: short
      texts, or texts of 3,000 bytes or more, which outlast a block and
      run out before the run ends.

    python scripts/digest_sweep.py                # "<sha256>  <case>", one line per case
    python scripts/digest_sweep.py --against REV  # sweep REV too; name each case that differs

``--against`` extracts REV with ``git archive`` into a temporary directory,
sweeps it in a child process that imports the package from that copy's
``src``, and exits 1 if any digest differs.  ``--src DIR`` sweeps the
package in DIR instead of this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
PAIRS_ROUNDS = (1, 1023, 1024, 1025, 20000)
PAIRS_P_CM = ("0", "0.2", "0.8", "1")
SHORT_TEXTS = ("hi", "ok, over")
LONG_TEXTS = ("meet me at the north gate at noon; " * 90,
              "copy that, the north gate ψ → noon. " * 90)  # over 3,000 bytes each


def _stdout_of(main: Callable[[list[str]], int], argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue().encode("utf-8")


def _output_of(main: Callable[[list[str]], int], argv: list[str]) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rounds.jsonl")
        _stdout_of(main, [*argv, "--output", path])
        return Path(path).read_bytes()


def cases() -> list[tuple[str, Callable[[], bytes]]]:
    """(name, the bytes it digests) for every case, in a fixed order."""
    from qdialogue import cli
    from qdialogue.adversary import STRATEGIES
    from qdialogue.harness import RunConfig, iter_rounds, transcript_to_line
    from qdialogue.protocol import ORIGINAL, PROTOCOLS

    def lines(**fields) -> Callable[[], bytes]:
        config = RunConfig(seed=SEED, **fields)
        return lambda: "".join(transcript_to_line(t) + "\n" for t in iter_rounds(config)).encode()

    found: list[tuple[str, Callable[[], bytes]]] = []
    for protocol in PROTOCOLS:
        for strategy in STRATEGIES:
            for rounds in PAIRS_ROUNDS:
                for p_cm in PAIRS_P_CM:
                    argv = ["run", "--protocol", protocol, "--attack", strategy,
                            "--rounds", str(rounds), "--p-cm", p_cm, "--seed", str(SEED)]
                    name = f"run {protocol} {strategy} {rounds} {p_cm}"
                    found += [
                        (f"{name} output", lambda a=argv: _output_of(cli.main, a)),
                        (f"{name} records",
                         lambda a=argv: _stdout_of(cli.main, [*a, "--format", "records"])),
                        (f"{name} text",
                         lambda a=argv: _stdout_of(cli.main, [*a, "--format", "text"])),
                    ]
    for strategy in STRATEGIES:
        for p_cm in (0.2, 0.8):
            found.append((f"suppressed {strategy} {p_cm}",
                          lines(protocol=ORIGINAL, strategy=strategy, rounds=1025, p_cm=p_cm,
                                suppress_outcome_reveal=True)))
    for strategy in STRATEGIES:
        for size, (alice, bob) in (("short", SHORT_TEXTS), ("long", LONG_TEXTS)):
            for suppress in ([], ["--suppress-outcome-reveal"]):
                argv = ["dialogue", "--attack", strategy, "--alice-text", alice,
                        "--bob-text", bob, "--seed", str(SEED), *suppress]
                name = f"dialogue {strategy} {size}" + (" suppressed" if suppress else "")
                found.append((name, lambda a=argv: _stdout_of(cli.main, a)))
    for protocol in PROTOCOLS:
        for strategy in STRATEGIES:
            for size, (alice, bob), rounds in (("short", SHORT_TEXTS, 2000),
                                               ("long", LONG_TEXTS, 40000)):
                found.append((f"text {protocol} {strategy} {size}",
                              lines(protocol=protocol, strategy=strategy, rounds=rounds,
                                    p_cm=0.5, alice_text=alice, bob_text=bob)))
    return found


def digest(case: tuple[str, Callable[[], bytes]]) -> str:
    return hashlib.sha256(case[1]()).hexdigest()


def sweep() -> list[str]:
    """The "<sha256>  <case>" line of every case."""
    return [f"{digest(case)}  {case[0]}" for case in cases()]


def _use_package(src: Path) -> None:
    """Import the package from ``src``, and refuse to run on any other copy."""
    sys.path.insert(0, str(src))
    import qdialogue

    if Path(qdialogue.__file__).resolve().parent != (src / "qdialogue").resolve():
        raise SystemExit(f"imported qdialogue from {qdialogue.__file__}, not from {src}")


def _sweep_of(rev: str) -> list[str]:
    """The sweep of git revision ``rev``, run on a copy of it in a child process."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter, where this Python has it, keeps every file inside tmp
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        child = subprocess.run([sys.executable, __file__, "--src", os.path.join(tmp, "src")],
                               capture_output=True, text=True, check=True)
    return child.stdout.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the qdialogue package to sweep")
    parser.add_argument("--against", metavar="REV",
                        help="also sweep git revision REV and report the cases that differ")
    args = parser.parse_args(argv)
    _use_package(args.src)
    ours = sweep()
    if args.against is None:
        print("\n".join(ours))
        return 0
    theirs = _sweep_of(args.against)
    if [line.split("  ", 1)[1] for line in theirs] != [line.split("  ", 1)[1] for line in ours]:
        print(f"the case lists differ: {len(theirs)} cases at {args.against}, {len(ours)} here")
        return 1
    differ = [line.split("  ", 1)[1] for line, other in zip(ours, theirs) if line != other]
    for name in differ:
        print(f"differs  {name}")
    print(f"{len(ours)} cases, {len(ours) - len(differ)} identical, {len(differ)} differ "
          f"against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
