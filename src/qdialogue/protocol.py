"""Round state machines for the two-way dialogue protocol.

Every round runs the same quantum flow: Bob prepares the anchor Bell pair,
encodes his code on the travel qubit and sends it; Alice acknowledges
receipt, encodes her code and returns it; Bob Bell-measures the pair he
holds.  The state trajectory of a round never depends on the modes.

The variants differ only in who chooses a mode (original: Alice alone, Bob
is always in MM; modified: both, independently) and in what is said on the
public channel after the measurement.  ``POLICY`` holds that difference in
one row per (protocol, Bob's mode, Alice's mode): the ordered reveals,
whether the check runs, who decodes, and the summary bucket.  The round
functions, the summary and the transcript parser all read it; the exact
oracle in ``harness`` does not, so the two routes to every rate stay
independent.

A round's shape is everything in its transcript but the round_id.  It is
fixed by the row its announcements follow (one of the 7 in ``ROWS``), the
two codes, the outcome and Eve's inference of Alice's code or none, so a
shape has a dense id below ``N_SHAPES`` = 7 * 4 * 4 * 4 * 5 = 2240:

    shape = (((row * 4 + bob_code) * 4 + alice_code) * 4 + outcome) * 5 + eve

with a code or outcome (a, b) read as 2a + b, and eve = 0 without a report,
else 1 + Eve's inferred Alice code.  Every simulated or parsed round carries
its id as ``RoundTranscript.shape``; equal rounds get equal ids (see
``ROW_NUMBER``).

Since the shape fixes the announcements, Eve's report, the check and the
decodes, a round is played only up to its shape id.  On state ids (see
``bell_core``), Bob encodes his code on the anchor pair (id 0) with
``PAULI``, the strategy's forward leg runs (``adversary.LEGS``), Alice
encodes hers, the return leg runs, and Bob's outcome is ``bell_outcome`` of
the final state's ``CDF``.  Every ``CDF`` entry and tap ``P(1)`` is a
multiple of 1/4, and a code is ALL_CODES[floor(4u)], so each uniform the
round reads acts only through its quarter bin floor(4u).  The round is
therefore a function of five digits, each 0-3, in the order it happens:
Bob's code, the bin of the forward leg's uniform, Alice's code, the bin of
the return leg's, the bin of the measurement's; a leg that reads no
uniform has digit 0.  They make the round's key

    key = (((bob * 4 + forward) * 4 + alice) * 4 + back) * 4 + measure

in 0-1023.  ``round_key`` computes it from the codes and a row's uniforms,
checking every digit first, and is the one definition of which uniform
feeds which digit; the harness's block path reads the same layout off it
and computes a block's keys in numpy.  ``_round_table`` runs the legs for
every key, on first use of the strategy, into the flat table
``_ROUND_TABLES[strategy]``, and a round is one lookup there: a key that is
not one of 0-1023 (-1, 1024, 2.5, None) finds no entry, and the round
raises ``draw_error``, never reading another key's.  The lookup gives the
local shape id ``shape_id(0, ...)``; the round's is ``row * ROW_STRIDE``
plus that.  Its transcript is ``shaped_transcript(round_id, shape)``, a
copy of the shape's fields with the round_id set.  The fields are built
once per shape, on first use, from the id's digits, so the rules above run
and a ``RoundTranscript`` is constructed once per shape, not once per
round; the parser builds every transcript of a line the same way.  A round
with a round_id that is not an exact int gets the same fields without a
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, partial
from itertools import product
from math import nextafter
from typing import Sequence

from .adversary import LEGS, EveReport, replay_report
from .bell_core import (
    ALL_CODES,
    ALL_INDICES,
    CDF,
    PAULI,
    BellIndex,
    PauliCode,
    bell_outcome,
    decode_bits,
)

ORIGINAL = "original"
MODIFIED = "modified"
PROTOCOLS = (ORIGINAL, MODIFIED)

ALICE = "alice"
BOB = "bob"
SPEAKERS = (ALICE, BOB)

RECEIPT_ACK = "receipt-ack"
MODE_REVEAL = "mode-reveal"
OUTCOME_REVEAL = "outcome-reveal"
OP_REVEAL = "op-reveal"
ANNOUNCEMENT_KINDS = (RECEIPT_ACK, MODE_REVEAL, OUTCOME_REVEAL, OP_REVEAL)


class Mode(Enum):
    """Round mode: message mode carries payload bits, checking mode random ones."""

    MM = "MM"
    CM = "CM"

    # members are singletons compared by identity, so the identity hash is
    # correct, and it is much cheaper than Enum's hash of the member name
    __hash__ = object.__hash__


_PAYLOAD_TYPE = {
    RECEIPT_ACK: type(None),
    MODE_REVEAL: Mode,
    OUTCOME_REVEAL: BellIndex,
    OP_REVEAL: PauliCode,
}


@dataclass(frozen=True)
class Announcement:
    """One utterance on the public (readable, unforgeable) classical channel."""

    speaker: str
    kind: str
    payload: Mode | BellIndex | PauliCode | None

    def __post_init__(self) -> None:
        if self.speaker not in SPEAKERS:
            raise ValueError(f"unknown speaker {self.speaker!r}")
        if self.kind not in ANNOUNCEMENT_KINDS:
            raise ValueError(f"unknown announcement kind {self.kind!r}")
        expected = _PAYLOAD_TYPE[self.kind]
        if not isinstance(self.payload, expected):
            raise ValueError(
                f"{self.kind} payload must be {expected.__name__}, "
                f"got {type(self.payload).__name__}"
            )


# what a reveal publishes: an index into a round's values
# (bob_mode, alice_mode, bob_code, alice_code, outcome)
BOB_MODE, ALICE_MODE, BOB_CODE, ALICE_CODE, OUTCOME = range(5)


@dataclass(frozen=True)
class RoundPolicy:
    """What a round of one protocol and pair of modes does once Bob has measured."""

    reveals: tuple[tuple[str, str, int], ...]  # (speaker, kind, source), in order
    checks: bool
    bob_decodes: bool
    alice_decodes: bool
    bucket: str  # the summary counter: "cm", "mm" or "mixed"


_A_MODE = (ALICE, MODE_REVEAL, ALICE_MODE)
_MODES = ((BOB, MODE_REVEAL, BOB_MODE), _A_MODE)  # the modified order: Bob's first
_A_CODE = (ALICE, OP_REVEAL, ALICE_CODE)
_B_CODE = (BOB, OP_REVEAL, BOB_CODE)
_B_OUTCOME = (BOB, OUTCOME_REVEAL, OUTCOME)

# (protocol, bob_mode, alice_mode) -> RoundPolicy(reveals, checks, bob_decodes,
# alice_decodes, bucket).  An original round has Bob in MM, so there is no
# (ORIGINAL, CM, *) row.
POLICY = {
    (ORIGINAL, Mode.MM, Mode.MM): RoundPolicy((_A_MODE, _B_OUTCOME), False, True, True, "mm"),
    (ORIGINAL, Mode.MM, Mode.CM): RoundPolicy((_A_MODE, _A_CODE), True, False, False, "cm"),
    (MODIFIED, Mode.MM, Mode.MM): RoundPolicy((*_MODES, _B_OUTCOME), False, True, True, "mm"),
    # one-way transfer Bob -> Alice: the outcome goes public so Alice can decode
    (MODIFIED, Mode.MM, Mode.CM): RoundPolicy((*_MODES, _B_OUTCOME), False, False, True, "mixed"),
    # one-way transfer Alice -> Bob: Bob decodes privately, nothing more is said
    (MODIFIED, Mode.CM, Mode.MM): RoundPolicy(_MODES, False, True, False, "mixed"),
    (MODIFIED, Mode.CM, Mode.CM): RoundPolicy(
        (*_MODES, _A_CODE, _B_CODE, _B_OUTCOME), True, False, False, "cm"
    ),
}

# every row a round's announcements can follow, numbered in this order:
# ((protocol, bob_mode, alice_mode, outcome suppressed), row).  The POLICY rows
# come first, then the original ones that reveal the outcome, without that
# reveal (for ``suppress_outcome_reveal``); they check and decode as their
# POLICY rows do.
ROWS = (
    *(((*key, False), row) for key, row in POLICY.items()),
    *(((*key, True), replace(row, reveals=tuple(r for r in row.reveals if r[1] != OUTCOME_REVEAL)))
      for key, row in POLICY.items() if key[0] == ORIGINAL and _B_OUTCOME in row.reveals),
)
ROW_NUMBER = {key: number for number, (key, _) in enumerate(ROWS)}
# the original message-check round has no outcome reveal to suppress
ROW_NUMBER[ORIGINAL, Mode.MM, Mode.CM, True] = ROW_NUMBER[ORIGINAL, Mode.MM, Mode.CM, False]
N_SHAPES = len(ROWS) * 4 * 4 * 4 * 5  # see the module docstring
ROW_STRIDE = N_SHAPES // len(ROWS)  # shape_id(row, ...) == row * ROW_STRIDE + shape_id(0, ...)
# ROW_NUMBER as the round functions read it, with no key tuple built per
# round: alice_mode -> outcome suppressed -> row for an original round,
# bob_mode -> alice_mode -> row for a modified one
_ORIGINAL_ROW = {alice: {suppressed: ROW_NUMBER[ORIGINAL, Mode.MM, alice, suppressed]
                         for suppressed in (False, True)} for alice in Mode}
_MODIFIED_ROW = {bob: {alice: ROW_NUMBER[MODIFIED, bob, alice, False] for alice in Mode}
                 for bob in Mode}

_RECEIPT = Announcement(ALICE, RECEIPT_ACK, None)


def announcements_for(policy: RoundPolicy, values: tuple) -> tuple[Announcement, ...]:
    """A round's public announcements: Alice's receipt-ack, sent before Bob
    measures, then ``policy``'s reveals of ``values`` (indexed as the sources)."""
    return (_RECEIPT, *[Announcement(speaker, kind, values[source])
                        for speaker, kind, source in policy.reveals])


@dataclass(frozen=True)
class RoundTranscript:
    """Complete record of one protocol round.

    ``announcements`` is the public part; codes, the outcome and the decode
    results are the experimenter's omniscient view.

    ``shape`` is not a field: a transcript from ``shaped_transcript`` carries
    its round's shape id (see the module docstring), copied with the rest of
    the shape's fields.  A transcript built any other way, by hand or by
    ``dataclasses.replace``, has ``shape`` None.
    """

    round_id: int
    protocol: str
    bob_mode: Mode
    alice_mode: Mode
    bob_code: PauliCode
    alice_code: PauliCode
    outcome: BellIndex
    announcements: tuple[Announcement, ...]
    check_performed: bool
    check_passed: bool | None
    bob_decoded: PauliCode | None
    alice_decoded: PauliCode | None
    eve_report: EveReport | None
    shape = None

    def __post_init__(self) -> None:
        if self.check_performed != (self.check_passed is not None):
            raise ValueError("check_passed must be present iff check_performed")


def cm_check(outcome: BellIndex, bob_code: PauliCode, alice_code: PauliCode) -> bool:
    """Consistency check shared by both variants.

    The round is clean iff the measured index equals the XOR of the two
    codes, which is what an undisturbed pair always produces.
    """
    return outcome == ALL_INDICES[2 * (bob_code.k ^ alice_code.k) + (bob_code.l ^ alice_code.l)]


def shape_id(
    row: int, bob_code: int, alice_code: int, outcome: int, inferred_alice: int | None
) -> int:
    """The shape id of a round on ``ROWS[row]`` (see the module docstring);
    codes, the outcome and Eve's inference are ALL_CODES / ALL_INDICES
    positions."""
    shape = 5 * (((row * 4 + bob_code) * 4 + alice_code) * 4 + outcome)
    return shape if inferred_alice is None else shape + 1 + inferred_alice


# shape id -> the __dict__ of a transcript of that shape, filled on first use:
# a run meets a few dozen to a few hundred of the N_SHAPES ids
_TEMPLATES: dict[int, dict] = {}
# bound once: every simulated round and parsed line calls both
_new_object, _set_attribute = object.__new__, object.__setattr__


def _template(shape: int) -> dict:
    """The fields of the shape's transcript, built from the id's digits: its
    row says whether the check runs and who decodes."""
    rest, eve = divmod(shape, 5)
    rest, outcome = divmod(rest, 4)
    rest, alice = divmod(rest, 4)
    row, bob = divmod(rest, 4)
    (protocol, bob_mode, alice_mode, _), policy = ROWS[row]
    bob_code, alice_code, outcome = ALL_CODES[bob], ALL_CODES[alice], ALL_INDICES[outcome]
    announcements = announcements_for(policy, (bob_mode, alice_mode, bob_code, alice_code, outcome))
    t = RoundTranscript(
        0, protocol, bob_mode, alice_mode, bob_code, alice_code, outcome, announcements,
        policy.checks,
        cm_check(outcome, bob_code, alice_code) if policy.checks else None,
        decode_bits(outcome, bob_code) if policy.bob_decodes else None,
        decode_bits(outcome, alice_code) if policy.alice_decodes else None,
        None if eve == 0 else replay_report(ALL_CODES[eve - 1], announcements),
    )
    fields = _TEMPLATES[shape] = t.__dict__
    fields["shape"] = shape
    return fields


def shaped_transcript(round_id: int, shape: int) -> RoundTranscript:
    """The transcript of round ``round_id`` of shape id ``shape``: a copy of
    the shape's fields with the round_id set, so no rule runs per round.
    With a ``round_id`` that is not an exact int, which ``str`` would not
    write as JSON does, it has no shape.  ``shape`` must be an id that
    ``shape_id`` gave; it is not checked."""
    try:
        fields = _TEMPLATES[shape].copy()
    except KeyError:
        fields = _template(shape).copy()
    fields["round_id"] = round_id
    if type(round_id) is not int:
        del fields["shape"]
    t = _new_object(RoundTranscript)
    _set_attribute(t, "__dict__", fields)
    return t


# strategy -> its round table, {key: local shape id} for every key 0-1023
# (see the module docstring); filled on first use by ``_round_table``
_ROUND_TABLES: dict[str, dict[int, int]] = {}


def _round_table(strategy: str) -> dict[int, int]:
    """Tabulate ``strategy``'s round: table[key] is the local shape id (see
    the module docstring) of the round whose five digits make ``key``.  A
    leg that reads no uniform ignores its bin.

    Each step, a leg or Bob's measurement, compares its uniform only with
    quarters and table values, and its result moves one way as the uniform
    grows, so a table value inside a quarter bin makes the bin's two ends
    differ.  Each step is run at the lower end q/4 and at the last float
    below (q+1)/4, and a RuntimeError names the first whose results differ.
    """
    forward, _, back, _ = LEGS[strategy]

    def on_bin(name: str, step, q: int):
        low, high = step(q / 4), step(nextafter((q + 1) / 4, 0))
        if low != high:
            raise RuntimeError(
                f"{strategy}: the {name} changes inside the quarter bin [{q / 4}, {(q + 1) / 4}), "
                f"{low} at its lower end and {high} at its upper end"
            )
        return low

    # the steps run on nested dicts keyed by the digits, which are flattened
    # into the table once built.  A subtree depends only on the inputs of its
    # first step, so it is built once per distinct input and shared: 41 to 101
    # dicts, not the 341 of a tree with no shared nodes
    @cache
    def measured(bob: int, alice: int, final: int, inferred: int | None) -> dict:
        measure = partial(bell_outcome, CDF[final])
        return {q: shape_id(0, bob, alice, on_bin("measurement", measure, q), inferred)
                for q in range(4)}

    @cache
    def returned(bob: int, alice: int, state: int, memory) -> dict:
        return {q: measured(bob, alice, *on_bin("return leg", lambda u: back(state, u, memory), q))
                for q in range(4)}

    @cache
    def received(bob: int, state: int, memory) -> dict:
        return {alice: returned(bob, alice, PAULI[state][alice], memory) for alice in range(4)}

    nested = {bob: {q: received(bob, *on_bin("forward leg", partial(forward, PAULI[0][bob]), q))
                    for q in range(4)} for bob in range(4)}
    # product() counts the digits up in key order, Bob's code the most significant
    digits = product(range(4), repeat=5)
    table = _ROUND_TABLES[strategy] = {
        key: nested[bob][q_forward][alice][q_back][q_measure]
        for key, (bob, q_forward, alice, q_back, q_measure) in enumerate(digits)
    }
    return table


# the digit of a code, or of a uniform's quarter bin u // 0.25, which is
# exact: only 0-3 (or the equal floats) are found, and any other value,
# NaN included, finds none
_DIGIT = {0: 0, 1: 1, 2: 2, 3: 3}
_DRAW_RULE = "codes must be 0-3 and uniforms lie in [0, 1)"


def round_key(
    strategy: str, bob_code: int, alice_code: int, uniforms: Sequence[float], at: int = 0
) -> int:
    """The key of a round's entry in ``strategy``'s round table (see the
    module docstring).

    Codes are ALL_CODES positions.  The channel reads ``uniforms`` from
    position ``at`` on: the forward leg's uniform, the return leg's and
    Bob's measurement's, in that order, each the next one its predecessors
    did not read; a leg that reads none reads no position and its digit is
    0.  This is the one definition of which uniform feeds which digit.

    Every digit is checked before they are combined, so no bad digit can
    make another round's key: a ValueError means a code outside 0-3 or a
    uniform outside [0, 1), and an IndexError that ``uniforms`` ran out.
    """
    _, forward_reads, _, back_reads = LEGS[strategy]
    digit = _DIGIT
    try:
        bob = digit[bob_code]
        forward = digit[uniforms[at] // 0.25] if forward_reads else 0
        alice = digit[alice_code]
        back = digit[uniforms[at + forward_reads] // 0.25] if back_reads else 0
        measure = digit[uniforms[at + forward_reads + back_reads] // 0.25]
    except KeyError:
        raise ValueError(_DRAW_RULE) from None
    return (((bob * 4 + forward) * 4 + alice) * 4 + back) * 4 + measure


def draw_error(round_id: int) -> ValueError:
    """The error of round ``round_id`` drawn from a code outside 0-3 or a
    uniform outside [0, 1), or handed a key outside 0-1023, which no such
    draw makes."""
    return ValueError(f"round {round_id}: {_DRAW_RULE}")


def _missed(strategy: str, key: int, round_id: int) -> int:
    """A round's local shape id when the lookup in ``run_round_*`` misses:
    the strategy's table is built on first use, and a key not in it raises
    the round's ``draw_error``."""
    table = _ROUND_TABLES.get(strategy)
    if table is None:
        table = _round_table(strategy)
    try:
        return table[key]
    except KeyError:
        raise draw_error(round_id) from None


# Both round functions play a round on its ``ROWS`` row as one lookup in the
# strategy's table, each written out in full: a round is the hot path of
# every run, and a shared helper would cost each round one more call.

def run_round_original(
    alice_mode: Mode,
    strategy: str,
    key: int,
    round_id: int = 0,
    suppress_outcome_reveal: bool = False,
) -> RoundTranscript:
    """Execute one round of the original protocol (Bob is always in MM).

    ``key`` is the round's ``round_key``: Bob's code, which is always his
    payload for the round; Alice's, her message in MM or her sacrificial
    random bits in CM; and the quarter bins of the uniforms the channel,
    which plays ``strategy``, and Bob's measurement read.  With
    ``suppress_outcome_reveal`` the outcome still reaches Alice (modelled
    as an out-of-band private reveal) but is omitted from the public
    announcements, which is what an eavesdropper reads.

    A key outside 0-1023 raises the round's ``draw_error``; no key reads
    another key's entry.
    """
    row = _ORIGINAL_ROW[alice_mode][suppress_outcome_reveal]
    try:
        local = _ROUND_TABLES[strategy][key]
    except KeyError:
        local = _missed(strategy, key, round_id)
    return shaped_transcript(round_id, row * ROW_STRIDE + local)


def run_round_modified(
    bob_mode: Mode,
    alice_mode: Mode,
    strategy: str,
    key: int,
    round_id: int = 0,
) -> RoundTranscript:
    """Execute one round of the modified dual-mode protocol.

    Arguments and errors as for ``run_round_original``.  CM codes for
    either party are expected to be uniform random (the caller supplies
    them).
    """
    row = _MODIFIED_ROW[bob_mode][alice_mode]
    try:
        local = _ROUND_TABLES[strategy][key]
    except KeyError:
        local = _missed(strategy, key, round_id)
    return shaped_transcript(round_id, row * ROW_STRIDE + local)
