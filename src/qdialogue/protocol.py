"""Round state machines for the two-way dialogue protocol.

Both protocol variants run the same quantum flow each round: Bob prepares
the anchor Bell pair, encodes his code on the travel qubit and sends it;
Alice encodes her code on the travel qubit she received and returns it; Bob
Bell-measures the pair he holds.  The variants differ only in who chooses a
mode and in what gets said on the public classical channel afterwards, so
the state trajectory of a round never depends on the modes.

Original variant: only Alice has a mode.  She reveals it after Bob's
measurement.  In message mode Bob announces the measurement outcome and
both sides decode; in checking mode Alice announces her (random) code and
Bob verifies the outcome against it privately.

Modified variant: both parties choose a mode independently and reveal it
only after Bob confirms his measurement is done.  The consistency check
runs iff both chose checking mode, in which case both codes and the outcome
are made public.  When the modes differ the round degrades to one-way
transfer: with Alice=CM/Bob=MM the outcome is announced so Alice can decode
Bob's message; with Alice=MM/Bob=CM Bob decodes privately and nothing
beyond the modes is announced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .adversary import AdversaryChannel, EveReport
from .bell_core import (
    ALL_CODES,
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


# every announcement a round can make, built once through the validating
# constructor; rounds look them up instead of building them afresh
_ANNOUNCEMENTS = {
    (a.speaker, a.kind, a.payload): a
    for speaker in SPEAKERS
    for kind, payloads in (
        (RECEIPT_ACK, (None,)),
        (MODE_REVEAL, tuple(Mode)),
        (OUTCOME_REVEAL, ALL_INDICES),
        (OP_REVEAL, ALL_CODES),
    )
    for a in (Announcement(speaker, kind, p) for p in payloads)
}


def _announce(speaker: str, kind: str, payload=None) -> Announcement:
    # a miss can only be an invalid announcement, which the constructor rejects
    return _ANNOUNCEMENTS.get((speaker, kind, payload)) or Announcement(speaker, kind, payload)


@dataclass(frozen=True)
class RoundTranscript:
    """Complete record of one protocol round.

    ``announcements`` is the public part; codes, the outcome and the decode
    results are the experimenter's omniscient view.
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

    def __post_init__(self) -> None:
        if self.check_performed != (self.check_passed is not None):
            raise ValueError("check_passed must be present iff check_performed")


def cm_check(outcome: BellIndex, bob_code: PauliCode, alice_code: PauliCode) -> bool:
    """Consistency check shared by both variants.

    The round is clean iff the measured index equals the XOR of the two
    codes, which is what an undisturbed pair always produces.
    """
    return outcome == ALL_INDICES[2 * (bob_code.k ^ alice_code.k) + (bob_code.l ^ alice_code.l)]


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


def _eve_report(
    channel: AdversaryChannel | None, announcements: list[Announcement]
) -> EveReport | None:
    if channel is None:
        return None
    report = channel.observe_public(announcements)
    return None if report.is_empty() else report


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
    """Execute one round of the original protocol.

    ``alice_bits`` is Alice's message in MM or her sacrificial random bits
    in CM; ``bob_bits`` is always Bob's payload for the round.  With
    ``suppress_outcome_reveal`` the outcome still reaches Alice (modelled
    as an out-of-band private reveal) but is omitted from the public
    announcements, which is what an eavesdropper reads.
    """
    announcements: list[Announcement] = []
    announcements.append(_announce(ALICE, RECEIPT_ACK))
    outcome = _quantum_exchange(bob_bits, alice_bits, channel, rng)
    announcements.append(_announce(ALICE, MODE_REVEAL, alice_mode))

    check_performed = False
    check_passed = None
    bob_decoded = None
    alice_decoded = None
    if alice_mode is Mode.MM:
        if not suppress_outcome_reveal:
            announcements.append(_announce(BOB, OUTCOME_REVEAL, outcome))
        bob_decoded = decode_bits(outcome, bob_bits)
        alice_decoded = decode_bits(outcome, alice_bits)
    else:
        announcements.append(_announce(ALICE, OP_REVEAL, alice_bits))
        check_performed = True
        check_passed = cm_check(outcome, bob_bits, alice_bits)

    return RoundTranscript(
        round_id=round_id,
        protocol=ORIGINAL,
        bob_mode=Mode.MM,
        alice_mode=alice_mode,
        bob_code=bob_bits,
        alice_code=alice_bits,
        outcome=outcome,
        announcements=tuple(announcements),
        check_performed=check_performed,
        check_passed=check_passed,
        bob_decoded=bob_decoded,
        alice_decoded=alice_decoded,
        eve_report=_eve_report(channel, announcements),
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
    supplies them).  Modes are revealed only once Bob's measurement is
    complete, Bob's first; inside a CM/CM round Alice's op-reveal precedes
    Bob's reveals.
    """
    announcements: list[Announcement] = []
    announcements.append(_announce(ALICE, RECEIPT_ACK))
    outcome = _quantum_exchange(bob_bits, alice_bits, channel, rng)
    announcements.append(_announce(BOB, MODE_REVEAL, bob_mode))
    announcements.append(_announce(ALICE, MODE_REVEAL, alice_mode))

    check_performed = False
    check_passed = None
    bob_decoded = None
    alice_decoded = None
    if bob_mode is Mode.CM and alice_mode is Mode.CM:
        announcements.append(_announce(ALICE, OP_REVEAL, alice_bits))
        announcements.append(_announce(BOB, OP_REVEAL, bob_bits))
        announcements.append(_announce(BOB, OUTCOME_REVEAL, outcome))
        check_performed = True
        check_passed = cm_check(outcome, bob_bits, alice_bits)
    elif bob_mode is Mode.MM and alice_mode is Mode.MM:
        announcements.append(_announce(BOB, OUTCOME_REVEAL, outcome))
        bob_decoded = decode_bits(outcome, bob_bits)
        alice_decoded = decode_bits(outcome, alice_bits)
    elif alice_mode is Mode.CM:  # Bob in MM: one-way transfer Bob -> Alice
        announcements.append(_announce(BOB, OUTCOME_REVEAL, outcome))
        alice_decoded = decode_bits(outcome, alice_bits)
    else:  # Alice in MM, Bob in CM: one-way transfer Alice -> Bob, no reveal
        bob_decoded = decode_bits(outcome, bob_bits)

    return RoundTranscript(
        round_id=round_id,
        protocol=MODIFIED,
        bob_mode=bob_mode,
        alice_mode=alice_mode,
        bob_code=bob_bits,
        alice_code=alice_bits,
        outcome=outcome,
        announcements=tuple(announcements),
        check_performed=check_performed,
        check_passed=check_passed,
        bob_decoded=bob_decoded,
        alice_decoded=alice_decoded,
        eve_report=_eve_report(channel, announcements),
    )
