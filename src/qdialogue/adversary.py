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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .bell_core import (
    ALL_INDICES,
    PauliCode,
    Qubit,
    TwoQubitState,
    UniformSource,
    apply_pauli,
    bell_measure,
    bell_state,
    decode_bits,
    measure_computational,
    random_code,
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


@dataclass
class EveState:
    """Eve's working memory, confined to a single round."""

    stored_bob_pair: TwoQubitState | None = None
    eve_pair: TwoQubitState | None = None
    eve_code: PauliCode | None = None
    inferred_alice: PauliCode | None = None


@dataclass(frozen=True)
class EveReport:
    """What Eve believes she learned, before and after the announcements."""

    inferred_alice: PauliCode | None = None
    inferred_bob_private: PauliCode | None = None
    inferred_bob_public: PauliCode | None = None

    def is_empty(self) -> bool:
        return (
            self.inferred_alice is None
            and self.inferred_bob_private is None
            and self.inferred_bob_public is None
        )


class AdversaryChannel:
    """One round's channel, with the two interception points.

    ``on_forward`` must be called exactly once before ``on_return``; a
    fresh channel is needed for every round.
    """

    def __init__(self, strategy: str):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
            )
        self.strategy = strategy
        self.eve = EveState()
        self._leg = "idle"

    def on_forward(
        self, world: TwoQubitState, rng: UniformSource
    ) -> TwoQubitState:
        """Intercept the travel qubit on its way Bob -> Alice.

        Returns the pair state whose travel qubit Alice will receive (under
        bell-substitution that pair is Eve's own).
        """
        if self._leg != "idle":
            raise ProtocolOrderError(f"on_forward called while {self._leg}")
        self._leg = "forwarded"

        if self.strategy == MEASURE_RESEND:
            _, collapsed = measure_computational(world, Qubit.TRAVEL, rng)
            return collapsed
        if self.strategy == BELL_SUBSTITUTION:
            self.eve.stored_bob_pair = world
            code = self.eve.eve_code = random_code(rng)
            # Eve prepares the Bell pair labelled by the code she drew
            self.eve.eve_pair = bell_state(ALL_INDICES[2 * code.k + code.l])
            return self.eve.eve_pair
        return world

    def on_return(
        self, world: TwoQubitState, rng: UniformSource
    ) -> TwoQubitState:
        """Intercept the travel qubit on its way Alice -> Bob.

        ``world`` is the pair whose travel qubit Alice just encoded and
        released.  Returns the pair Bob will measure.
        """
        if self._leg != "forwarded":
            raise ProtocolOrderError(f"on_return called while {self._leg}")
        self._leg = "returned"

        if self.strategy == DISTURBANCE:
            return apply_pauli(world, random_code(rng), Qubit.TRAVEL)
        if self.strategy == BELL_SUBSTITUTION:
            eve = self.eve
            if eve.stored_bob_pair is None or eve.eve_code is None:
                raise ProtocolOrderError(
                    "bell-substitution state missing on return leg"
                )
            outcome, _ = bell_measure(world, rng)
            eve.inferred_alice = decode_bits(outcome, eve.eve_code)
            delivered = apply_pauli(eve.stored_bob_pair, eve.inferred_alice, Qubit.TRAVEL)
            # Eve's pair is consumed by her measurement and Bob's pair leaves
            # her hands here; only the inference survives the round.
            eve.stored_bob_pair = None
            eve.eve_pair = None
            return delivered
        return world

    def observe_public(self, announcements: Iterable["Announcement"]) -> EveReport:
        """Digest the round's public announcements into Eve's final report.

        Only the replay attacker ever learns anything: Alice's code from her
        own Bell measurement, and Bob's code by XORing a publicly revealed
        outcome with it.  Without the outcome reveal Bob's code stays out of
        reach.
        """
        if self.strategy != BELL_SUBSTITUTION or self.eve.inferred_alice is None:
            return EveReport()
        inferred_alice = self.eve.inferred_alice
        inferred_bob = None
        for ann in announcements:
            if ann.kind == "outcome-reveal":
                inferred_bob = decode_bits(ann.payload, inferred_alice)
                break
        return EveReport(
            inferred_alice=inferred_alice,
            inferred_bob_private=None,
            inferred_bob_public=inferred_bob,
        )
