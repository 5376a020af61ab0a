"""Channel interception strategies for the eavesdropper.

Eve never touches Bob's home qubit; she gets two shots at the travel qubit,
once on the Bob->Alice leg (``on_forward``) and once on the Alice->Bob leg
(``on_return``).  Four strategies are modelled, selected by name:

* ``none``              - transparent channel.
* ``disturbance``       - blind noise: one uniformly random code applied to
                          the travel qubit on the return leg.
* ``measure-resend``    - naive tap: measure the travel qubit in the
                          computational basis on the forward leg and pass
                          the collapsed pair on.
* ``bell-substitution`` - the replay attack: keep Bob's genuine pair, hand
                          Alice the travel half of Eve's own Bell pair,
                          Bell-measure that pair once Alice returns it
                          (which reads off Alice's code exactly), then
                          apply the same code to Bob's stored pair and
                          deliver it.

Every strategy acts on one pair at a time, so two 4-amplitude states are an
exact representation; no joint 16-dimensional state is ever needed.

Each strategy is two leg functions on state ids (positions in
``bell_core.REACHABLE``), listed in ``LEGS``:

    forward(state, u) -> (state Alice receives, Eve's memory)
    back(state, u, memory) -> (state Bob measures, Eve's inference of
                               Alice's code as an ALL_CODES position, or None)

``u`` is the leg's uniform; a leg that reads none ignores it, and ``LEGS``
says how many each leg reads (0 or 1).  The legs are the one definition of
each strategy: ``protocol`` runs them once per key into the round tables a
simulated round looks up.  An ``AdversaryChannel`` is one round of Eve on
``TwoQubitState``s: it finds a state's id by its class up to global phase
(``bell_core.phase_class``), so any member of a reachable class will do,
runs the same leg functions, and hands back the class's representative in
``REACHABLE``.  Once the announcements are public it files Eve's report,
which is ``None`` unless she learned Alice's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .bell_core import (
    ALL_CODES,
    CDF,
    CLASS_ID,
    PAULI,
    REACHABLE,
    TAP,
    PauliCode,
    TwoQubitState,
    UniformSource,
    bell_outcome,
    decode_bits,
    phase_class,
)

if TYPE_CHECKING:
    from .protocol import Announcement

NONE = "none"
DISTURBANCE = "disturbance"
MEASURE_RESEND = "measure-resend"
BELL_SUBSTITUTION = "bell-substitution"
STRATEGIES = (NONE, DISTURBANCE, MEASURE_RESEND, BELL_SUBSTITUTION)


class ProtocolOrderError(RuntimeError):
    """The channel was driven out of order; this signals a harness bug."""


@dataclass(frozen=True)
class EveReport:
    """What Eve learned in a round: Alice's code, and Bob's if the outcome was public."""

    inferred_alice: PauliCode
    inferred_bob_public: PauliCode | None = None


def _pass_forward(state: int, u: float) -> tuple[int, None]:
    return state, None


def _pass_back(state: int, u: float, memory: None) -> tuple[int, None]:
    return state, None


def _tap_forward(state: int, u: float) -> tuple[int, None]:
    """measure-resend: measure the travel qubit (bit 1 iff u < P(1)) and
    pass the collapsed pair on."""
    p_one, on_zero, on_one = TAP[state]
    return on_one if u < p_one else on_zero, None


def _disturb_back(state: int, u: float, memory: None) -> tuple[int, None]:
    """disturbance: the code ALL_CODES[floor(4u)] on the travel qubit."""
    return PAULI[state][int(4 * u)], None


def _substitute_forward(state: int, u: float) -> tuple[int, tuple[int, int]]:
    """bell-substitution: keep Bob's pair and hand Alice the travel half of
    the Bell pair labelled by Eve's code ALL_CODES[floor(4u)]; Bell state
    ids are their ALL_INDICES positions, so that pair's id is the code's."""
    code = int(4 * u)
    return code, (state, code)


def _substitute_back(state: int, u: float, memory: tuple[int, int]) -> tuple[int, int]:
    """bell-substitution: Bell-measure Eve's pair, read Alice's code off the
    outcome with her own (``decode_bits`` on positions), and apply it to
    Bob's stored pair."""
    bob_pair, eve_code = memory
    inferred = bell_outcome(CDF[state], u) ^ eve_code
    return PAULI[bob_pair][inferred], inferred


# strategy -> (forward, uniforms it reads, back, uniforms it reads)
LEGS = {
    NONE: (_pass_forward, 0, _pass_back, 0),
    DISTURBANCE: (_pass_forward, 0, _disturb_back, 1),
    MEASURE_RESEND: (_tap_forward, 1, _pass_back, 0),
    BELL_SUBSTITUTION: (_substitute_forward, 1, _substitute_back, 1),
}


def _state_id(world: TwoQubitState) -> int:
    try:
        return CLASS_ID[phase_class(world)]
    except KeyError:
        raise ValueError("the channel acts only on states of bell_core.REACHABLE") from None


class AdversaryChannel:
    """One round's channel on ``TwoQubitState``s, with the two interception points.

    ``on_forward`` must be called exactly once before ``on_return``; a
    fresh channel is needed for every round.  Each leg reads one uniform
    from ``rng`` if the strategy's leg reads one.
    """

    def __init__(self, strategy: str):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
            )
        self.strategy = strategy
        # Eve's working memory between the legs (bell-substitution: Bob's
        # pair id and her code), confined to this round
        self.memory = None
        self.inferred_alice: PauliCode | None = None
        self._leg = "idle"

    def on_forward(self, world: TwoQubitState, rng: UniformSource) -> TwoQubitState:
        """Intercept the travel qubit on its way Bob -> Alice.

        Returns the pair state whose travel qubit Alice will receive (under
        bell-substitution that pair is Eve's own).
        """
        if self._leg != "idle":
            raise ProtocolOrderError(f"on_forward called while {self._leg}")
        self._leg = "forwarded"
        forward, reads, _, _ = LEGS[self.strategy]
        state, self.memory = forward(_state_id(world), rng.random() if reads else 0.0)
        return REACHABLE[state]

    def on_return(self, world: TwoQubitState, rng: UniformSource) -> TwoQubitState:
        """Intercept the travel qubit on its way Alice -> Bob.

        ``world`` is the pair whose travel qubit Alice just encoded and
        released.  Returns the pair Bob will measure.
        """
        if self._leg != "forwarded":
            raise ProtocolOrderError(f"on_return called while {self._leg}")
        self._leg = "returned"
        _, _, back, reads = LEGS[self.strategy]
        state, inferred = back(_state_id(world), rng.random() if reads else 0.0, self.memory)
        # Eve's pair is consumed by her measurement and Bob's pair leaves her
        # hands here; only the inference survives the round
        self.memory = None
        if inferred is not None:
            self.inferred_alice = ALL_CODES[inferred]
        return REACHABLE[state]

    def observe_public(self, announcements: Iterable["Announcement"]) -> EveReport | None:
        """Digest the round's public announcements into Eve's final report.

        Only the replay attacker ever learns anything: Alice's code from her
        own Bell measurement, and Bob's code by XORing a publicly revealed
        outcome with it.  Without the outcome reveal Bob's code stays out of
        reach.  Returns ``None`` when Eve learned nothing.
        """
        if self.inferred_alice is None:
            return None
        return replay_report(self.inferred_alice, announcements)


def replay_report(inferred_alice: PauliCode, announcements: Iterable["Announcement"]) -> EveReport:
    """The replay attacker's report once she holds Alice's code: Bob's code
    too, by XOR with the first publicly revealed outcome, if there is one."""
    for ann in announcements:
        if ann.kind == "outcome-reveal":
            return EveReport(inferred_alice, decode_bits(ann.payload, inferred_alice))
    return EveReport(inferred_alice)
