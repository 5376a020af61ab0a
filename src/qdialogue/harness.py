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
unread uniforms are skipped.  A code is ALL_CODES[floor(4u)], a mode is
CM iff u < p_cm, and a measurement outcome is the inverse CDF of its Born
probabilities at u.

A round is one lookup on its round-table key, which ``protocol.round_key``
makes from the two codes and the channel's uniforms.  There is one engine,
``_play_blocks``, and it plays each block of rows as columns.  A round's
key is linear in the quarter bins floor(4u) of its row and in its text
codes, in one of 4 layouts, by which of its codes come from a text, with
weights read off ``round_key`` (``_layout``).  Which rounds take a text
code is a running count of the rounds that carry each party's code,
carried from block to block.  So a few numpy expressions give every
round's modes and key, and each round is then one ``run_round_*`` call on
them.  ``iter_rounds`` plays the run's own stream; ``rounds_from_rows``
plays any rows, full or short, through the same engine, and checks in
numpy what each round reads: a read past the end of a short row raises
``RowOverdrawError``, and a uniform outside [0, 1) the round's
``ValueError``.  Because a round's row depends only on (seed, i), a shorter
run is a prefix of a longer one, and a chunk of rounds [a, b) of a run
without text payloads can start anywhere with
``PCG64(seed).advance(a * ROW_WIDTH)`` (see ``uniform_rows``) and be merged
in any order.

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
import reprlib
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import chain, islice, product, repeat, starmap
from numbers import Real
from operator import attrgetter, mul
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .adversary import DISTURBANCE, MEASURE_RESEND, NONE, STRATEGIES
from .bell_core import ALL_CODES, BellIndex, PauliCode
from .protocol import (
    ORIGINAL,
    POLICY,
    PROTOCOLS,
    Mode,
    RoundTranscript,
    draw_error,
    round_key,
    run_round_modified,
    run_round_original,
    shaped_transcript,
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
    """The run's transcripts, one round at a time; the config is validated first."""
    config.validate()
    return _play_blocks(config, zip(_blocks(config.seed, 0, config.rounds), repeat(None)), 0)


def rounds_from_rows(
    config: RunConfig, rows: Iterable[Sequence[float]], first_round: int = 0
) -> Iterator[RoundTranscript]:
    """Play one round per row of uniforms, numbering them from ``first_round``.

    The config and ``first_round`` are validated on the call, before any row
    is read; a bad one raises ``ConfigurationError``.  The rows, full, short
    or long, are then played as ``iter_rounds`` plays its own, in blocks of
    up to ``BLOCK_ROWS``, and what each round reads is checked in numpy by
    one rule.  A round reads its modes first: a row too short for them
    raises ``RowOverdrawError``, and a mode's uniform outside [0, 1) the
    round's ``draw_error`` ``ValueError``.  Then a row too short for the
    round's other reads (its codes, channel and measurement) raises
    ``RowOverdrawError``, and any of those uniforms outside [0, 1) the
    round's ``ValueError``.  A row whose values are not all real numbers
    (a str or bytes that reads as one included) raises the round's
    ``TypeError``; a bool is a number, so ``True`` lies outside [0, 1).
    Every round before the first bad one is yielded first, and none after
    it.
    """
    config.validate()
    if not _is_int(first_round) or first_round < 0:
        raise ConfigurationError(f"first_round must be a non-negative integer, got {first_round!r}")
    # a generator, which ends at the error, so that no later round is played
    return (t for t in _play_blocks(config, _row_blocks(rows, first_round), first_round))


def _row_blocks(
    rows: Iterable[Sequence[float]], first_round: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows in blocks of up to BLOCK_ROWS, each as a ROW_WIDTH-wide
    array, zero-padded, with the length of each row.

    A row whose first ROW_WIDTH values are not all real numbers (see
    ``_real_values``) ends the blocks: the rows before it come as one more
    block, then its round, numbered from ``first_round``, raises
    ``TypeError``.
    """
    rows = iter(rows)
    while batch := list(islice(rows, BLOCK_ROWS)):
        block = np.zeros((len(batch), ROW_WIDTH))
        for n, (values, row) in enumerate(zip(block, batch)):
            real = _real_values(row)
            if real is None:
                if n:
                    yield block[:n], np.array([len(row) for row in batch[:n]])
                raise TypeError(f"round {first_round + n}: a row's values must be real numbers, "
                                f"got {reprlib.repr(row)}")
            values[:len(real)] = real
        yield block, np.array([len(row) for row in batch])
        first_round += len(batch)


def _real_values(row: Sequence[float]) -> np.ndarray | None:
    """The first ROW_WIDTH values of ``row`` as a 1-d array, or None unless
    they are all real numbers.  A bool is one; a str or bytes is not, even
    one that numpy would read as a number, nor is a sequence."""
    try:
        values = np.asarray(row[:ROW_WIDTH])
    except ValueError:  # ragged: some values are sequences
        return None
    kind = values.dtype.kind
    if values.ndim == 1 and (
            kind in "biuf" or kind == "O" and all(isinstance(v, Real) for v in values)):
        return values
    return None


# a block's modes are gathered from this in numpy, by whether their uniform is
# below p_cm, so that each round is handed one of these very objects
_MODE_OF = np.array((Mode.MM, Mode.CM), dtype=object)
_COLUMNS = np.arange(ROW_WIDTH)
_PAIR = np.array((2, 1))  # a round's modes -> its pair, 2 * (Bob in CM) + (Alice in CM)


@cache
def _layout(protocol: str, strategy: str) -> tuple:
    """What a round of ``protocol`` under ``strategy`` reads, worked out once:
    (codes_at, weights, reads, carries, scale).

    ``codes_at`` is the row position of the first code: a row holds Bob's
    mode, in a modified round, then Alice's.  ``weights[layout]`` is the
    weight in a round's table key of each quarter bin of its row, then of
    Bob's text code and of Alice's, for each layout 2 * (Bob's code from
    text) + (Alice's code from text).  A code not from text is the bin of
    the next uniform from ``row[codes_at]`` on, and ``round_key`` reads the
    channel's uniforms after the codes.  The key is linear in its digits, so
    a digit's weight is ``round_key`` of a round whose only nonzero digit is
    a 1 there.  ``reads[layout]`` is how many uniforms such a round reads:
    every one up to its last key digit.  ``carries[pair]`` says whether Bob's
    code, then Alice's, carries a message in a round of that pair of modes,
    2 * (Bob in CM) + (Alice in CM): a code does iff the other party decodes
    it (``POLICY``); Bob is in MM in every original round, so it has only
    the pairs 0 and 1.  ``scale`` is a column's weight in ``_play_blocks``'s
    faults.
    """
    codes_at = 1 if protocol == ORIGINAL else 2
    weights = np.zeros((4, ROW_WIDTH + 2), dtype=np.intp)
    for layout, column in product(range(4), range(ROW_WIDTH + 2)):
        digits = [0] * (ROW_WIDTH + 2)
        digits[column] = 1
        codes, at = [], codes_at
        for party, from_text in enumerate(divmod(layout, 2)):
            codes.append(digits[ROW_WIDTH + party] if from_text else digits[at])
            at += not from_text
        weights[layout, column] = round_key(strategy, *codes, [d / 4 for d in digits], at)
    reads = np.array([np.flatnonzero(w[:ROW_WIDTH])[-1] + 1 for w in weights])
    policies = [POLICY[protocol, bob, alice]
                for bob in (Mode.MM, Mode.CM)[:codes_at] for alice in (Mode.MM, Mode.CM)]
    carries = np.array([(policy.alice_decodes, policy.bob_decodes) for policy in policies])
    return codes_at, weights, reads, carries, np.where(_COLUMNS < codes_at, 3, 1)


def _raising(error: Exception) -> Iterator:
    """An iterator whose first ``next`` raises ``error``."""
    raise error
    yield  # unreachable: it makes this a generator


def _play_blocks(
    config: RunConfig, blocks: Iterable[tuple[np.ndarray, np.ndarray | None]], first_round: int
) -> Iterator[RoundTranscript]:
    """Play each block of rows as columns, numbering the rounds from ``first_round``.

    ``blocks`` yields (block, lengths): the rows, and the length of each
    before padding, or None for rows of the stream, which need no check.  A
    round reads its row by position: the modes, each code that does not
    come from a text queue, then the uniforms of its channel.  So its table
    key is linear in its row's quarter bins and its text codes, in one of 4
    layouts (``_layout``).  A code carries a message iff the other
    party decodes it (``POLICY``), and it comes from the party's text while
    that lasts: while a text lasts, a running count of the rounds that
    carry its party's code, carried from block to block, picks out the
    rounds that take a text code.  So each block's modes and keys are
    computed in numpy, and its rounds are then played by ``map``, one
    ``run_round_*`` call each, handed the round's modes and key.
    """
    strategy, p_cm = config.strategy, config.p_cm
    original = config.protocol == ORIGINAL
    suppress = config.suppress_outcome_reveal and original
    codes_at, weights, reads, carries, scale = _layout(config.protocol, strategy)
    columns = np.flatnonzero(weights[0, :ROW_WIDTH])  # the bins of a round without text
    texts = (_code_positions(config.bob_text), _code_positions(config.alice_text))
    totals = np.array([len(text) for text in texts])
    queued = np.zeros((totals.max() + 1, 2), dtype=np.intp)  # column p: party p's codes, then 0
    for party, text in enumerate(texts):
        queued[:len(text), party] = text
    first, used = first_round, np.zeros(2, dtype=np.intp)

    def block_rounds(block: np.ndarray, lengths: np.ndarray | None) -> Iterator[RoundTranscript]:
        nonlocal first, used
        # what goes wrong when a round reads a column of a checked row: 1, its
        # uniform is outside [0, 1); 2, it lies past the row's end; 3 and 6 on
        # a mode's column (``scale``), so that a round's largest fault is the
        # one it meets first.  The bad uniforms are zeroed, to be binned safely
        if lengths is not None:
            fault = np.where(_COLUMNS < lengths[:, None], ~((block >= 0) & (block < 1)), 2) * scale
            block = np.where(fault, 0.0, block)
        cm = block[:, :codes_at] < p_cm
        if (used < totals).any():
            carry = carries[cm @ _PAIR[-codes_at:]]
            count = used + carry.cumsum(0)
            from_text = carry & (count <= totals)
            codes = queued[np.minimum(count, len(queued)) - 1, (0, 1)] * from_text
            layout = from_text @ _PAIR
            keys = (np.hstack(((4 * block).astype(np.intp), codes)) * weights[layout]).sum(1)
            used = np.minimum(count[-1], totals)
            read = reads[layout][:, None]
        else:
            keys = (4 * block[:, columns]).astype(np.intp) @ weights[0, columns]
            read = reads[0]
        error = None
        if lengths is not None and (fault := np.where(_COLUMNS < read, fault, 0).max(1)).any():
            n = int(fault.argmax())  # the first bad round
            error = draw_error(first + n) if fault[n] % 2 else RowOverdrawError(
                f"round {first + n} read past the end of its row of {lengths[n]} uniforms")
            cm, keys = cm[:n], keys[:n]
        modes = _MODE_OF[cm.T.astype(np.intp)].tolist()
        ids = range(first, first + len(keys))
        first += len(keys)
        keys = keys.tolist()
        if original:
            (alice_modes,) = modes
            rounds = map(run_round_original, alice_modes, repeat(strategy), keys, ids,
                         repeat(suppress))
        else:
            bob_modes, alice_modes = modes
            rounds = map(run_round_modified, bob_modes, alice_modes, repeat(strategy), keys, ids)
        return rounds if error is None else chain(rounds, _raising(error))

    return chain.from_iterable(starmap(block_rounds, blocks))


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


_shape_of = attrgetter("shape")
_CONTRIBUTIONS: dict[int, tuple] = {}  # shape id -> the contribution of a round of it
SUMMARY_CHUNK = 64  # transcripts summarize holds at once: few, so peak RSS stays put


def summarize(transcripts: Iterable[RoundTranscript]) -> RunSummary:
    """Fold a sequence of transcripts into a RunSummary.

    Rounds of one shape contribute alike, so shaped transcripts are only
    counted: ``Counter`` counts the shape ids of each chunk of
    ``SUMMARY_CHUNK`` transcripts, with no Python loop per transcript, and
    a shape's contribution is worked out once.  A chunk that holds
    transcripts without a shape also counts each of those under its own
    contribution.  Each summary count is then one column of the
    contributions folded with the counts.
    """
    counts: Counter = Counter()  # shape id -> its count
    loose: Counter = Counter()  # the contribution of a shapeless transcript -> its count
    transcripts = iter(transcripts)
    while chunk := list(islice(transcripts, SUMMARY_CHUNK)):
        counts.update(map(_shape_of, chunk))
        if None in counts:
            del counts[None]
            loose.update(_contribution(t) for t in chunk if t.shape is None)
    for shape in counts.keys() - _CONTRIBUTIONS.keys():
        _CONTRIBUTIONS[shape] = _contribution(shaped_transcript(0, shape))
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

def _code_positions(text: str) -> np.ndarray:
    """The UTF-8 bytes of ``text`` as 2-bit ALL_CODES positions, most
    significant pair first."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return (data[:, None] >> np.array((6, 4, 2, 0), dtype=np.uint8) & 0b11).ravel()


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
