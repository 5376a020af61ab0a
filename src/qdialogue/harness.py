"""Experiment runner, exact enumeration oracle, metrics and serialization.

The Monte Carlo runner draws every piece of round randomness (modes, codes,
Eve's choices, measurement outcomes) from one counter-style stream of
uniforms per run:

    round i reads row i, the ROW_WIDTH uniforms at offset i * ROW_WIDTH
    of numpy's Generator(PCG64(seed)).random() stream

Rows are drawn in blocks of ``Generator.random((n, ROW_WIDTH))``, which
fills them in that order; ``_blocks`` is the one place the stream is drawn,
and a run holds one block of at most ``BLOCK_ROWS`` rows at a time.  A
round reads its row by position, in this order: the modes (Bob's first; an
original round draws Alice's only), Bob's code, Alice's code, then the
uniforms its channel legs and Bob's measurement read (see ``protocol``).  A
code taken from a text queue reads no uniform, so later positions move up;
unread uniforms are skipped, and a round that reads past the end of a short
row raises ``RowOverdrawError``.  A code is ALL_CODES[floor(4u)], a mode is
CM iff u < p_cm, and a measurement outcome is the inverse CDF of its Born
probabilities at u.

A round is one lookup on its round-table key, which ``protocol.round_key``
makes from the two codes and the channel's uniforms.  Without a text queue
every round reads the same positions, so ``iter_rounds`` plays each block
of a run without text payloads as columns: the round's key is linear in
the quarter bins floor(4u) of fixed columns, with weights read off
``round_key`` (``_key_layout``), so one numpy expression gives every
round's key and another its modes, and each round is then one
``run_round_*`` call on them.  ``rounds_from_rows`` is the row-at-a-time
reference route, for any rows and for every run with text payloads, and
calls ``round_key`` per round; on the same rows the two give the same
transcripts.  Because a round's row depends only on (seed, i), a shorter
run is a prefix of a longer one, and a chunk of rounds [a, b) can start
anywhere with ``PCG64(seed).advance(a * ROW_WIDTH)`` (see ``uniform_rows``)
and be merged in any order.

The oracle side never touches the statevector simulator: it enumerates the
finitely many discrete branches of each strategy with exact rational
weights, so the two routes to every probability are independent.

Transcripts are written one JSON line per round by ``tee_transcripts`` and
``write_transcripts``.  The lines reach the sink in blocks of
``LINES_PER_WRITE``, one ``write`` call each, and all of them are there once
the tee is exhausted or closed.  The line format and its codec live in
``transcript_codec``, from which this module re-exports
``TranscriptFormatError``, ``parse_transcript_line`` and ``transcript_to_line``.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, repeat
from numbers import Real
from operator import mul
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .adversary import DISTURBANCE, MEASURE_RESEND, NONE, STRATEGIES
from .bell_core import ALL_CODES, BellIndex, PauliCode
from .protocol import (
    ORIGINAL,
    POLICY,
    PROTOCOLS,
    ROW_NUMBER,
    ROWS,
    Mode,
    RoundTranscript,
    draw_error,
    round_key,
    run_round_modified,
    run_round_original,
)
from .transcript_codec import (  # noqa: F401 (re-exported)
    TranscriptFormatError,
    parse_transcript_line,
    transcript_to_line,
)

class ConfigurationError(ValueError):
    """A run configuration field is out of range or unknown."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Everything that determines a run; equal configs give identical runs."""

    protocol: str = ORIGINAL
    strategy: str = NONE
    rounds: int = 10_000
    p_cm: float = 0.5
    seed: int = 0
    # payload texts: while a party's text lasts, its message rounds carry it
    # in place of random codes, so empty texts give a uniform-random run
    alice_text: str = ""
    bob_text: str = ""
    suppress_outcome_reveal: bool = False

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not _is_int(self.rounds) or self.rounds < 1:
            raise ConfigurationError(f"rounds must be a positive integer, got {self.rounds!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        p_cm = self.p_cm
        if not isinstance(p_cm, Real) or isinstance(p_cm, bool) or not 0.0 <= p_cm <= 1.0:
            raise ConfigurationError(f"p_cm must be a real number in [0, 1], got {p_cm!r}")
        for name in ("alice_text", "bob_text"):
            text = getattr(self, name)
            if not isinstance(text, str):
                raise ConfigurationError(f"{name} must be a str, got {type(text).__name__}")
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigurationError(
                    f"{name} cannot be encoded as UTF-8: {exc.reason} at index {exc.start}"
                ) from None
        if not isinstance(self.suppress_outcome_reveal, bool):
            raise ConfigurationError(
                f"suppress_outcome_reveal must be True or False, "
                f"got {self.suppress_outcome_reveal!r}"
            )


@dataclass
class RunSummary:
    """Aggregated metrics of one run.

    Rates are None when no round of the run contributes to them (for
    example eve accuracies under the transparent channel).  The CSV column
    order is exactly the field order here.
    """

    rounds_total: int
    rounds_cm: int
    rounds_mm: int
    rounds_mixed: int
    checks_performed: int
    checks_failed: int
    detection_rate: float | None
    alice_decode_accuracy: float | None
    bob_decode_accuracy: float | None
    eve_alice_accuracy: float | None
    eve_bob_public_accuracy: float | None
    throughput_bits: int


SUMMARY_COLUMNS = tuple(f.name for f in fields(RunSummary))


ROW_WIDTH = 8  # uniforms per round; a modified bell-substitution round reads 7
BLOCK_ROWS = 1024  # rows drawn per Generator.random call


class RowOverdrawError(RuntimeError):
    """A round read past the end of its row; this signals a harness bug."""


def uniform_rows(seed: int, start: int, stop: int) -> Iterator[list[float]]:
    """Rows start .. stop-1 of the run's uniform stream (see the module docstring).

    Raises ``ConfigurationError`` on the call if ``seed`` or ``start`` is not
    a non-negative integer (a bool is not one) or ``stop`` is not an integer
    >= ``start``.
    """
    if not _is_int(seed) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if not _is_int(start) or start < 0:
        raise ConfigurationError(f"start must be a non-negative integer, got {start!r}")
    if not _is_int(stop) or stop < start:
        raise ConfigurationError(f"stop must be an integer no less than start, got {stop!r}")
    return chain.from_iterable(block.tolist() for block in _blocks(seed, start, stop))


def _blocks(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Rows start .. stop-1 of the stream as arrays of up to BLOCK_ROWS rows,
    one ``Generator.random`` call each; the arguments are not checked."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(start * ROW_WIDTH)
    generator = np.random.Generator(bit_generator)
    for first in range(start, stop, BLOCK_ROWS):
        yield generator.random((min(BLOCK_ROWS, stop - first), ROW_WIDTH))


def iter_rounds(config: RunConfig) -> Iterator[RoundTranscript]:
    """The run's transcripts, one round at a time; the config is validated first.

    A run without text payloads plays each block of rows as columns, with
    the transcripts ``rounds_from_rows`` gives on the same rows; a run with
    one plays its rows one at a time, through ``rounds_from_rows``.
    """
    config.validate()
    if config.alice_text or config.bob_text:
        return rounds_from_rows(config, uniform_rows(config.seed, 0, config.rounds))
    return _play_blocks(config)


# a block's modes are gathered from this in numpy, by whether their uniform is
# below p_cm, so that each round is handed one of these very objects
_MODE_OF = np.array((Mode.MM, Mode.CM), dtype=object)


def _key_layout(strategy: str, codes_at: int) -> tuple[list[int], np.ndarray]:
    """The columns of a row, from its codes' on, that a round's table key
    reads, and the weight of each one's quarter bin in the key: with no
    text queue the codes are the bins of ``row[codes_at]`` and the next
    uniform, and ``round_key`` reads the rest from ``codes_at + 2`` on.  The
    key is linear in its digits, so a column's weight is ``round_key`` of a
    row whose only nonzero bin is 1, in that column."""
    channel_at = codes_at + 2
    columns, weights = [], []
    for column in range(codes_at, ROW_WIDTH):
        row = [0.0] * ROW_WIDTH
        row[column] = 0.25
        bob, alice = (int(4 * u) for u in row[codes_at:channel_at])
        weight = round_key(strategy, bob, alice, row, channel_at)
        if weight:
            columns.append(column)
            weights.append(weight)
    return columns, np.array(weights, dtype=np.intp)


def _play_blocks(config: RunConfig) -> Iterator[RoundTranscript]:
    """``iter_rounds`` of a run without text payloads.

    Without a text queue a round reads fixed positions of its row: the
    modes, then the codes and the channel uniforms that make its table key
    (``_key_layout``).  So each block's modes and keys are computed in numpy,
    column by column, and its rounds are then played by ``map``, one
    ``run_round_*`` call each, handed the round's modes and key.
    """
    strategy, p_cm = config.strategy, config.p_cm
    original = config.protocol == ORIGINAL
    suppress = config.suppress_outcome_reveal and original
    codes_at = 1 if original else 2  # an original row holds Alice's mode only
    columns, weights = _key_layout(strategy, codes_at)

    def block_rounds(first: int, block: np.ndarray) -> Iterator[RoundTranscript]:
        modes = _MODE_OF[(block[:, :codes_at] < p_cm).T.astype(np.intp)].tolist()
        keys = ((4 * block[:, columns]).astype(np.intp) @ weights).tolist()
        ids = range(first, first + len(block))
        if original:
            (alice_modes,) = modes
            return map(run_round_original, alice_modes, repeat(strategy), keys, ids,
                       repeat(suppress))
        bob_modes, alice_modes = modes
        return map(run_round_modified, bob_modes, alice_modes, repeat(strategy), keys, ids)

    firsts = range(0, config.rounds, BLOCK_ROWS)
    return chain.from_iterable(map(block_rounds, firsts, _blocks(config.seed, 0, config.rounds)))


def rounds_from_rows(
    config: RunConfig, rows: Iterable[Sequence[float]], first_round: int = 0
) -> Iterator[RoundTranscript]:
    """Play one round per row of uniforms, numbering them from ``first_round``.

    This is the row-at-a-time route: any rows, full or short, one at a time,
    and the route of every run with text payloads.  The config and
    ``first_round`` are validated on the call, before any row is read; a
    bad one raises ``ConfigurationError``.  Every uniform a round reads must
    lie in [0, 1): a mode's is compared with p_cm, and every other acts
    only through its quarter bin floor(4u).  ``protocol.round_key`` checks
    the bins of the codes' uniforms, the channel's and the measurement's,
    so a mode's uniform or one of them outside [0, 1) raises the round's
    ``ValueError`` when its round is played.  A row too short for its round
    raises ``RowOverdrawError``.
    """
    config.validate()
    if not _is_int(first_round) or first_round < 0:
        raise ConfigurationError(
            f"first_round must be a non-negative integer, got {first_round!r}"
        )
    return _play_rows(config, rows, first_round)


def _play_rows(
    config: RunConfig, rows: Iterable[Sequence[float]], first_round: int
) -> Iterator[RoundTranscript]:
    alice_queue = deque(_code_positions(config.alice_text))
    bob_queue = deque(_code_positions(config.bob_text))
    strategy, p_cm = config.strategy, config.p_cm
    original = config.protocol == ORIGINAL
    suppress = config.suppress_outcome_reveal and original
    # Alice's mode is read at row[alice_at], Bob's (modified only) at row[0];
    # the codes follow
    alice_at = 0 if original else 1
    mode = {False: Mode.MM, True: Mode.CM}  # by whether the mode's uniform is below p_cm

    def pair(bob_mode: Mode, alice_mode: Mode) -> tuple:
        """The pair's modes, and whether Bob's code, then Alice's, carries a
        message: a code does iff the other party decodes it (see ``ROWS``)."""
        policy = ROWS[ROW_NUMBER[config.protocol, bob_mode, alice_mode, suppress]][1]
        return bob_mode, alice_mode, policy.alice_decodes, policy.bob_decodes

    # fixed for the run: plan[b][a] is the pair of a round whose row[0] and
    # row[alice_at] are below p_cm iff b and a.  An original round has Bob in
    # MM and reads only row[0], so b changes nothing there.  Keyed by bool, not
    # indexed, so that a numpy row's comparisons work too
    plan = {b: {a: pair(Mode.MM if original else mode[b], mode[a]) for a in mode} for b in mode}

    for i, row in enumerate(rows, first_round):
        try:
            first_u, alice_u = row[0], row[alice_at]
            if not (0.0 <= first_u < 1.0 and 0.0 <= alice_u < 1.0):
                raise draw_error(i)
            bob_mode, alice_mode, bob_carries, alice_carries = \
                plan[first_u < p_cm][alice_u < p_cm]
            at = alice_at + 1
            # a code carrying a message comes from the party's text while it
            # lasts; any other code reads a uniform
            if bob_carries and bob_queue:
                bob_code = bob_queue.popleft()
            else:
                bob_code = row[at] // 0.25
                at += 1
            if alice_carries and alice_queue:
                alice_code = alice_queue.popleft()
            else:
                alice_code = row[at] // 0.25
                at += 1
            try:
                key = round_key(strategy, bob_code, alice_code, row, at)
            except ValueError:
                raise draw_error(i) from None
            if original:
                t = run_round_original(alice_mode, strategy, key, i, suppress)
            else:
                t = run_round_modified(bob_mode, alice_mode, strategy, key, i)
        except IndexError:
            raise RowOverdrawError(
                f"round {i} read past the end of its row of {len(row)} uniforms"
            ) from None
        yield t


def _contribution(t: RoundTranscript) -> tuple:
    """What one transcript adds to each count that ``summarize`` keeps."""
    bucket = POLICY[t.protocol, t.bob_mode, t.alice_mode].bucket
    checked = bool(t.check_performed)
    alice_n, bob_n = t.alice_decoded is not None, t.bob_decoded is not None
    alice_ok = alice_n and t.alice_decoded == t.bob_code
    bob_ok = bob_n and t.bob_decoded == t.alice_code
    report = t.eve_report
    eve_b_n = report is not None and report.inferred_bob_public is not None
    return (
        1, bucket == "cm", bucket == "mm", bucket == "mixed", checked,
        checked and not t.check_passed, alice_ok, alice_n, bob_ok, bob_n,
        report is not None and report.inferred_alice == t.alice_code, report is not None,
        eve_b_n and report.inferred_bob_public == t.bob_code, eve_b_n, 2 * alice_ok + 2 * bob_ok,
    )


_CONTRIBUTIONS: dict[int, tuple] = {}  # shape id -> the contribution of a round of it


def summarize(transcripts: Iterable[RoundTranscript]) -> RunSummary:
    """Fold a sequence of transcripts into a RunSummary.

    Rounds of one shape contribute alike, so a shaped transcript is only
    counted, and a shape's contribution is worked out once.  Each summary
    count is then one column of the contributions folded with the shape
    counts.  A transcript without a shape is counted under its own
    contribution.
    """
    counts: dict[int, int] = {}
    loose: dict[tuple, int] = {}  # the contribution of a shapeless transcript -> its count
    for t in transcripts:
        shape = t.shape
        if shape in counts:
            counts[shape] += 1
        elif shape is None:
            contribution = _contribution(t)
            loose[contribution] = loose.get(contribution, 0) + 1
        else:
            counts[shape] = 1
            if shape not in _CONTRIBUTIONS:
                _CONTRIBUTIONS[shape] = _contribution(t)
    contributions = [*map(_CONTRIBUTIONS.__getitem__, counts), *loose]
    weights = [*counts.values(), *loose.values()]
    totals = [sum(map(mul, column, weights)) for column in zip(*contributions)] or [0] * 15
    (total, cm, mm, mixed, checks, failed, alice_ok, alice_n, bob_ok, bob_n,
     eve_a_ok, eve_a_n, eve_b_ok, eve_b_n, throughput) = totals

    def rate(num: int, den: int) -> float | None:
        return num / den if den else None

    return RunSummary(
        rounds_total=total,
        rounds_cm=cm,
        rounds_mm=mm,
        rounds_mixed=mixed,
        checks_performed=checks,
        checks_failed=failed,
        detection_rate=rate(failed, checks),
        alice_decode_accuracy=rate(alice_ok, alice_n),
        bob_decode_accuracy=rate(bob_ok, bob_n),
        eve_alice_accuracy=rate(eve_a_ok, eve_a_n),
        eve_bob_public_accuracy=rate(eve_b_ok, eve_b_n),
        throughput_bits=throughput,
    )


def run_sessions(config: RunConfig) -> tuple[RunSummary, list[RoundTranscript]]:
    """Run the configured number of rounds; deterministic given the seed."""
    transcripts = list(iter_rounds(config))
    return summarize(transcripts), transcripts


# ---------------------------------------------------------------------------
# text payloads

def _code_positions(text: str) -> list[int]:
    """The UTF-8 bytes of ``text`` as 2-bit ALL_CODES positions, most
    significant pair first."""
    return [(byte >> shift) & 0b11 for byte in text.encode("utf-8") for shift in (6, 4, 2, 0)]


def text_to_codes(text: str) -> list[PauliCode]:
    """Pack UTF-8 bytes into 2-bit codes, most significant pair first."""
    return [ALL_CODES[v] for v in _code_positions(text)]


def codes_to_text(codes: Iterable[PauliCode]) -> str:
    """Inverse of text_to_codes; trailing partial bytes are dropped."""
    codes = list(codes)
    data = bytearray()
    for i in range(0, len(codes) - len(codes) % 4, 4):
        byte = 0
        for code in codes[i : i + 4]:
            byte = (byte << 2) | (code.k << 1) | code.l
        data.append(byte)
    return data.decode("utf-8", errors="replace")


def delivered_codes(transcripts: Iterable[RoundTranscript], recipient: str) -> list[PauliCode]:
    """Codes a party decoded, in round order ('bob' got Alice's, 'alice' Bob's)."""
    if recipient == "bob":
        return [t.bob_decoded for t in transcripts if t.bob_decoded is not None]
    if recipient == "alice":
        return [t.alice_decoded for t in transcripts if t.alice_decoded is not None]
    raise ValueError(f"recipient must be 'alice' or 'bob', got {recipient!r}")


# ---------------------------------------------------------------------------
# exact enumeration oracle

@dataclass(frozen=True)
class OracleResult:
    """Exact per-check probabilities from exhaustive branch enumeration.

    ``check_pass_probability`` is conditional on a check being performed
    (original: Alice chose CM; modified: both chose CM).  The outcome
    distribution maps each (bob_code, alice_code) pair to the exact
    distribution of Bob's measured index.
    """

    protocol: str
    strategy: str
    check_pass_probability: Fraction
    eve_alice_accuracy_exact: Fraction | None
    outcome_distribution: dict[tuple[PauliCode, PauliCode], dict[BellIndex, Fraction]]

    @property
    def detection_probability(self) -> Fraction:
        return 1 - self.check_pass_probability


def _strategy_branches(
    strategy: str, bob: PauliCode, alice: PauliCode
) -> list[tuple[Fraction, BellIndex, PauliCode | None]]:
    """All (weight, outcome, eve_inferred_alice) branches of one round.

    Pure bit arithmetic: an undisturbed encoded pair measures to the XOR of
    the codes; an extra code e on the travel qubit shifts the index by e; a
    computational-basis tap collapses the pair to a product state whose two
    Bell components are fixed by its correlation parity.
    """
    honest = BellIndex(bob.k ^ alice.k, bob.l ^ alice.l)
    if strategy == NONE:
        return [(Fraction(1), honest, None)]
    if strategy == DISTURBANCE:
        return [
            (Fraction(1, 4), BellIndex(honest.x ^ e.k, honest.y ^ e.l), None)
            for e in ALL_CODES
        ]
    if strategy == MEASURE_RESEND:
        branches = []
        for t in (0, 1):
            # travel-qubit tap on the encoded Bell pair: each value with
            # weight 1/2; the home bit is fixed by the pair's correlation
            h = t ^ 1 ^ (bob.k ^ bob.l)
            t_after = t ^ (alice.k ^ alice.l)  # Alice's X-part flips travel
            if h ^ t_after:  # anti-correlated product: psi-family outcomes
                pair = (BellIndex(0, 0), BellIndex(1, 1))
            else:  # correlated product: phi-family outcomes
                pair = (BellIndex(0, 1), BellIndex(1, 0))
            branches.extend((Fraction(1, 4), idx, None) for idx in pair)
        return branches
    # BELL_SUBSTITUTION, the one strategy left (``exact_oracle`` checks it):
    # Eve's own pair is a Bell eigenstate after Alice encodes, so her
    # inference is deterministic and her replay restores the honest index.
    return [(Fraction(1, 4), honest, alice) for _ in ALL_CODES]


def exact_oracle(protocol: str, strategy: str) -> OracleResult:
    """Enumerate every discrete branch of a round with rational weights."""
    if protocol not in PROTOCOLS:
        raise ConfigurationError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")

    cell_weight = Fraction(1, 16)
    pass_prob = Fraction(0)
    eve_hits = Fraction(0)
    eve_total = Fraction(0)
    distribution: dict[tuple[PauliCode, PauliCode], dict[BellIndex, Fraction]] = {}

    for bob in ALL_CODES:
        for alice in ALL_CODES:
            honest = BellIndex(bob.k ^ alice.k, bob.l ^ alice.l)
            cell: dict[BellIndex, Fraction] = {}
            for weight, outcome, inferred in _strategy_branches(strategy, bob, alice):
                cell[outcome] = cell.get(outcome, Fraction(0)) + weight
                if outcome == honest:
                    pass_prob += cell_weight * weight
                if inferred is not None:
                    eve_total += cell_weight * weight
                    if inferred == alice:
                        eve_hits += cell_weight * weight
            distribution[(bob, alice)] = cell

    eve_accuracy = eve_hits / eve_total if eve_total else None
    return OracleResult(
        protocol=protocol,
        strategy=strategy,
        check_pass_probability=pass_prob,
        eve_alice_accuracy_exact=eve_accuracy,
        outcome_distribution=distribution,
    )


# ---------------------------------------------------------------------------
# serialization

LINES_PER_WRITE = 256  # transcript lines per sink.write call


def tee_transcripts(
    transcripts: Iterable[RoundTranscript], sink: IO[str]
) -> Iterator[RoundTranscript]:
    """Yield each transcript, and write it to ``sink`` as one JSON line.

    Lines are made one per transcript, in order, and reach the sink in
    blocks of ``LINES_PER_WRITE``, one ``write`` call per block.  Once the
    generator is exhausted or closed, or an upstream error has passed
    through it, the sink holds the line of every transcript it yielded.
    """
    lines: list[str] = []
    try:
        for t in transcripts:
            lines.append(transcript_to_line(t))
            if len(lines) == LINES_PER_WRITE:
                _write_lines(lines, sink)
            yield t
    finally:
        if lines:
            _write_lines(lines, sink)


def _write_lines(lines: list[str], sink: IO[str]) -> None:
    """Write ``lines`` to ``sink`` in one call, each ended by a newline, and empty the list."""
    lines.append("")
    block = "\n".join(lines)
    lines.clear()
    sink.write(block)


def write_transcripts(transcripts: Iterable[RoundTranscript], sink: IO[str]) -> None:
    """Write transcripts as JSON lines, one round per line."""
    for _ in tee_transcripts(transcripts, sink):
        pass


def summary_to_record(summary: RunSummary) -> dict:
    return {name: getattr(summary, name) for name in SUMMARY_COLUMNS}


def write_summary(summary: RunSummary, sink: IO[str], format: str = "text") -> None:
    """Write a run summary as aligned text, a CSV header+row, or one JSON record."""
    record = summary_to_record(summary)
    if format == "records":
        sink.write(json.dumps(record) + "\n")
    elif format == "csv":
        writer = csv.writer(sink)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow(["" if v is None else v for v in record.values()])
    elif format == "text":
        width = max(len(name) for name in SUMMARY_COLUMNS)
        for name, value in record.items():
            if value is None:
                shown = "n/a"
            elif isinstance(value, float):
                shown = f"{value:.6f}"
            else:
                shown = str(value)
            sink.write(f"{name:<{width}}  {shown}\n")
    else:
        raise ConfigurationError(f"format must be text, csv or records, got {format!r}")
