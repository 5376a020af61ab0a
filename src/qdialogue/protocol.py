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
fixed by the row its announcements follow (one of the 8 in ``ROWS``), the
two codes, the outcome and Eve's inference of Alice's code or none, so a
shape has a dense id below ``N_SHAPES`` = 8 * 4 * 4 * 4 * 5 = 2560:

    shape = (((row * 4 + bob_code) * 4 + alice_code) * 4 + outcome) * 5 + eve

with a code or outcome (a, b) read as 2a + b, and eve = 0 without a report,
else 1 + Eve's inferred Alice code.  Every simulated or parsed round carries
its id as ``RoundTranscript.shape``; equal rounds get equal ids (see
``ROW_NUMBER``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum

from .adversary import AdversaryChannel, EveReport
from .bell_core import (
    ALL_INDICES,
    BellIndex,
    PauliCode,
    Qubit,
    UniformSource,
    apply_pauli,
    bell_measure,
    bell_state,
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


@functools.cache
def _announce(speaker: str, kind: str, payload) -> Announcement:
    # rounds share one validated object per announcement; an invalid one
    # raises in the constructor and is never cached
    return Announcement(speaker, kind, payload)


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
# come first, then the original ones without their outcome reveal (for
# ``suppress_outcome_reveal``), which check and decode as their POLICY rows do.
ROWS = (
    *(((*key, False), row) for key, row in POLICY.items()),
    *(((*key, True), replace(row, reveals=tuple(r for r in row.reveals if r[1] != OUTCOME_REVEAL)))
      for key, row in POLICY.items() if key[0] == ORIGINAL),
)
# a suppressed row that hides nothing (the original message-check round has no
# outcome reveal) takes its POLICY row's number, so equal rounds get equal ids
_numbers: dict = {}
ROW_NUMBER = {
    key: _numbers.setdefault((key[:3], row.reveals), number)
    for number, (key, row) in enumerate(ROWS)
}
N_SHAPES = len(ROWS) * 4 * 4 * 4 * 5  # see the module docstring

_RECEIPT = _announce(ALICE, RECEIPT_ACK, None)


def announcements_for(policy: RoundPolicy, values: tuple) -> tuple[Announcement, ...]:
    """A round's public announcements: Alice's receipt-ack, sent before Bob
    measures, then ``policy``'s reveals of ``values`` (indexed as the sources)."""
    return (_RECEIPT, *[_announce(s, kind, values[source]) for s, kind, source in policy.reveals])


@dataclass(frozen=True, init=False)
class RoundTranscript:
    """Complete record of one protocol round.

    ``announcements`` is the public part; codes, the outcome and the decode
    results are the experimenter's omniscient view.  Every simulated round
    and every parsed line builds one, so ``__init__`` is written out: it
    checks the invariant and fills the frozen instance's ``__dict__`` key by
    key, which keeps the class's shared-key layout.  Its parameters are the
    fields, in order, as a generated ``__init__``'s would be, so
    ``dataclasses.replace`` goes through it too; ``__eq__``, ``__hash__``
    and ``__repr__`` are still generated.

    ``shape`` is not a field: ``transcript_for`` sets it to the round's shape
    id (see the module docstring).  A transcript built any other way, by
    hand or by ``dataclasses.replace``, has ``shape`` None.
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

    def __init__(
        self, round_id: int, protocol: str, bob_mode: Mode, alice_mode: Mode,
        bob_code: PauliCode, alice_code: PauliCode, outcome: BellIndex,
        announcements: tuple[Announcement, ...], check_performed: bool,
        check_passed: bool | None, bob_decoded: PauliCode | None,
        alice_decoded: PauliCode | None, eve_report: EveReport | None,
    ) -> None:
        if check_performed != (check_passed is not None):
            raise ValueError("check_passed must be present iff check_performed")
        d = self.__dict__
        d["round_id"] = round_id
        d["protocol"] = protocol
        d["bob_mode"] = bob_mode
        d["alice_mode"] = alice_mode
        d["bob_code"] = bob_code
        d["alice_code"] = alice_code
        d["outcome"] = outcome
        d["announcements"] = announcements
        d["check_performed"] = check_performed
        d["check_passed"] = check_passed
        d["bob_decoded"] = bob_decoded
        d["alice_decoded"] = alice_decoded
        d["eve_report"] = eve_report


def cm_check(outcome: BellIndex, bob_code: PauliCode, alice_code: PauliCode) -> bool:
    """Consistency check shared by both variants.

    The round is clean iff the measured index equals the XOR of the two
    codes, which is what an undisturbed pair always produces.
    """
    return outcome == ALL_INDICES[2 * (bob_code.k ^ alice_code.k) + (bob_code.l ^ alice_code.l)]


def transcript_for(
    row: int,
    round_id: int,
    values: tuple,
    announcements: tuple[Announcement, ...],
    eve_report: EveReport | None,
) -> RoundTranscript:
    """The transcript of a round on ``ROWS[row]``, whose ``values`` are as in
    ``announcements_for``: the row says whether the check runs and who
    decodes.  The transcript carries its shape id if ``round_id`` is an
    exact int, which ``str`` writes as JSON does."""
    key, policy = ROWS[row]
    _, _, bob_code, alice_code, outcome = values
    t = RoundTranscript(
        round_id, key[0], *values, announcements, policy.checks,
        cm_check(outcome, bob_code, alice_code) if policy.checks else None,
        decode_bits(outcome, bob_code) if policy.bob_decodes else None,
        decode_bits(outcome, alice_code) if policy.alice_decodes else None,
        eve_report,
    )
    shape = 5 * (((row * 4 + 2 * bob_code.k + bob_code.l) * 4 + 2 * alice_code.k + alice_code.l)
                 * 4 + 2 * outcome.x + outcome.y)
    if eve_report is not None:
        shape += 1 + 2 * eve_report.inferred_alice.k + eve_report.inferred_alice.l
    if type(round_id) is int:
        t.__dict__["shape"] = shape
    return t


def _quantum_exchange(
    bob_bits: PauliCode,
    alice_bits: PauliCode,
    channel: AdversaryChannel | None,
    rng: UniformSource,
) -> BellIndex:
    """Run the mode-independent quantum part of a round, return Bob's outcome."""
    state = bell_state(ALL_INDICES[0])
    state = apply_pauli(state, bob_bits, Qubit.TRAVEL)
    if channel is not None:
        state = channel.on_forward(state, rng)
    state = apply_pauli(state, alice_bits, Qubit.TRAVEL)
    if channel is not None:
        state = channel.on_return(state, rng)
    outcome, _ = bell_measure(state, rng)
    return outcome


def _run_round(
    protocol: str,
    bob_mode: Mode,
    bob_bits: PauliCode,
    alice_mode: Mode,
    alice_bits: PauliCode,
    channel: AdversaryChannel | None,
    rng: UniformSource,
    round_id: int,
    suppress_outcome_reveal: bool = False,
) -> RoundTranscript:
    """Play one round of (protocol, bob_mode, alice_mode) as its row of ``ROWS`` says."""
    row = ROW_NUMBER[protocol, bob_mode, alice_mode, suppress_outcome_reveal]
    outcome = _quantum_exchange(bob_bits, alice_bits, channel, rng)
    values = (bob_mode, alice_mode, bob_bits, alice_bits, outcome)
    announcements = announcements_for(ROWS[row][1], values)
    eve_report = None if channel is None else channel.observe_public(announcements)
    return transcript_for(row, round_id, values, announcements, eve_report)


def run_round_original(
    bob_bits: PauliCode,
    alice_mode: Mode,
    alice_bits: PauliCode,
    channel: AdversaryChannel | None,
    rng: UniformSource,
    *,
    round_id: int = 0,
    suppress_outcome_reveal: bool = False,
) -> RoundTranscript:
    """Execute one round of the original protocol (Bob is always in MM).

    ``alice_bits`` is Alice's message in MM or her sacrificial random bits
    in CM; ``bob_bits`` is always Bob's payload for the round.  With
    ``suppress_outcome_reveal`` the outcome still reaches Alice (modelled
    as an out-of-band private reveal) but is omitted from the public
    announcements, which is what an eavesdropper reads.
    """
    return _run_round(
        ORIGINAL, Mode.MM, bob_bits, alice_mode, alice_bits, channel, rng, round_id,
        suppress_outcome_reveal,
    )


def run_round_modified(
    bob_mode: Mode,
    bob_bits: PauliCode,
    alice_mode: Mode,
    alice_bits: PauliCode,
    channel: AdversaryChannel | None,
    rng: UniformSource,
    *,
    round_id: int = 0,
) -> RoundTranscript:
    """Execute one round of the modified dual-mode protocol.

    CM bits for either party are expected to be uniform random (the caller
    supplies them).
    """
    return _run_round(MODIFIED, bob_mode, bob_bits, alice_mode, alice_bits, channel, rng, round_id)
