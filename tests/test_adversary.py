"""Adversary strategy tests.

The replay attack is cross-checked against a 16-dimensional joint-state
oracle built here with np.kron: Bob's pair tensor Eve's pair, Alice encoding
on Eve's travel qubit, Eve's Bell measurement as an explicit projector, and
her conditional replay on Bob's pair.  Agreement shows the factorized
two-pair representation inside the package is exact.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import BIT_PAIRS, U_ORACLE, on_travel, oracle_bell, uniforms

from qdialogue.adversary import (
    BELL_SUBSTITUTION,
    DISTURBANCE,
    LEGS,
    MEASURE_RESEND,
    NONE,
    STRATEGIES,
    AdversaryChannel,
    ProtocolOrderError,
)
from qdialogue.bell_core import (
    ALL_CODES,
    ALL_INDICES,
    CDF,
    PAULI,
    REACHABLE,
    TAP,
    BellIndex,
    PauliCode,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_outcome,
    bell_state,
    overlap,
)
from qdialogue.harness import exact_oracle
from qdialogue.protocol import (
    ALICE,
    BOB,
    MODE_REVEAL,
    OUTCOME_REVEAL,
    PROTOCOLS,
    Announcement,
    Mode,
    round_key,
    run_round_original,
)


class FixedRng:
    """A stand-in generator whose every draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def code_uniform(k: int, l: int) -> float:
    """A uniform that draws the code (k, l): ALL_CODES[floor(4u)]."""
    return (2 * k + l + 0.5) / 4


def joint_replay_oracle(bob, eve_code, alice):
    """Full 4-qubit model of the replay attack, qubit order (h, t, h', t').

    Returns (eve_branches, final) where eve_branches maps Eve's possible
    Bell outcomes to their probability, and final maps Bob's measured index
    to its probability after Eve's conditional replay.
    """
    psi = np.kron(oracle_bell(*bob), oracle_bell(*eve_code))
    # Alice encodes on t', the last qubit
    psi = np.kron(np.eye(8), U_ORACLE[alice]) @ psi

    eve_branches = {}
    final = {}
    for xp, yp in BIT_PAIRS:
        b = oracle_bell(xp, yp)
        projector = np.kron(np.eye(4), np.outer(b, b.conj()))
        branch = projector @ psi
        p = float(np.vdot(branch, branch).real)
        eve_branches[(xp, yp)] = p
        if p < 1e-12:
            continue
        post = branch / np.sqrt(p)
        # post factorizes as phi_(h,t) (x) b_(h',t'); contract out Eve's pair
        phi = post.reshape(4, 4) @ b.conj()
        inferred = (xp ^ eve_code[0], yp ^ eve_code[1])
        replayed = on_travel(U_ORACLE[inferred]) @ phi
        for x, y in BIT_PAIRS:
            q = p * abs(np.vdot(oracle_bell(x, y), replayed)) ** 2
            final[(x, y)] = final.get((x, y), 0.0) + q
    return eve_branches, final


class TestTransparency:
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_none_strategy_matches_bare_channel(self, seed):
        # the same exchange on states with no channel in between
        encoded = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(1, 0))
        encoded = apply_pauli(encoded, PauliCode(0, 1))
        bare, _ = bell_measure(encoded, np.random.default_rng(seed))
        for mode in (Mode.MM, Mode.CM):
            t = run_round_original(mode, NONE, round_key(NONE, 2, 1, uniforms(seed)))
            assert t.outcome == bare
            assert t.eve_report is None

    def test_forward_and_return_leave_state_alone(self):
        channel = AdversaryChannel(NONE)
        state = bell_state(BellIndex(1, 0))
        rng = np.random.default_rng(0)
        assert channel.on_forward(state, rng) is state
        assert channel.on_return(state, rng) is state


class TestBellSubstitution:
    def test_forward_hands_alice_eves_pair(self):
        channel = AdversaryChannel(BELL_SUBSTITUTION)
        world = bell_state(BellIndex(0, 1))
        handed = channel.on_forward(world, FixedRng(code_uniform(1, 1)))
        np.testing.assert_allclose(handed.amps, bell_state(BellIndex(1, 1)).amps, atol=1e-12)
        stored_bob_pair, eve_code = channel.memory
        assert REACHABLE[stored_bob_pair] is world
        assert ALL_CODES[eve_code] == PauliCode(1, 1)

    def test_return_example(self):
        # Eve's pair (1,0), Alice applies (0,1): Eve infers (0,1) and Bob
        # receives his own pair shifted by exactly that code.
        for k, l in BIT_PAIRS:
            channel = AdversaryChannel(BELL_SUBSTITUTION)
            rng = FixedRng(code_uniform(1, 0))
            handed = channel.on_forward(bell_state(BellIndex(k, l)), rng)
            encoded = apply_pauli(handed, PauliCode(0, 1))
            delivered = channel.on_return(encoded, rng)
            assert channel.inferred_alice == PauliCode(0, 1)
            inner = overlap(bell_state(BellIndex(k, l ^ 1)), delivered)
            assert abs(abs(inner) - 1.0) <= 1e-9

    def test_exhaustive_inference_and_invisibility(self):
        # all 64 (bob, eve, alice) combinations, no sampling: the inference
        # is always right and the checking round can never fail
        for k, l in BIT_PAIRS:
            for ek, el in BIT_PAIRS:
                for i, j in BIT_PAIRS:
                    # Eve's code is the first uniform the channel reads
                    row = [code_uniform(ek, el), *uniforms(1)]
                    key = round_key(BELL_SUBSTITUTION, 2 * k + l, 2 * i + j, row)
                    t = run_round_original(Mode.CM, BELL_SUBSTITUTION, key)
                    assert t.eve_report.inferred_alice == PauliCode(i, j)
                    assert t.outcome == BellIndex(k ^ i, l ^ j)
                    assert t.check_passed is True

    def test_agrees_with_joint_state_oracle(self):
        for bob in BIT_PAIRS:
            for eve in BIT_PAIRS:
                for alice in BIT_PAIRS:
                    eve_branches, final = joint_replay_oracle(bob, eve, alice)
                    # Eve's measurement is deterministic on her Bell pair
                    expected_eve = (alice[0] ^ eve[0], alice[1] ^ eve[1])
                    assert eve_branches[expected_eve] == pytest.approx(1.0, abs=1e-9)
                    # and Bob's final index is the honest XOR with certainty
                    honest = (bob[0] ^ alice[0], bob[1] ^ alice[1])
                    assert final[honest] == pytest.approx(1.0, abs=1e-9)

    def test_state_is_confined_to_the_legs(self):
        channel = AdversaryChannel(BELL_SUBSTITUTION)
        rng = FixedRng(code_uniform(0, 1))
        handed = channel.on_forward(bell_state(BellIndex(0, 0)), rng)
        assert channel.memory is not None
        encoded = apply_pauli(handed, PauliCode(1, 1))
        channel.on_return(encoded, rng)
        assert channel.memory is None
        assert channel.inferred_alice == PauliCode(1, 1)


class TestDisturbance:
    @pytest.mark.parametrize("code", [PauliCode(a, b) for a, b in BIT_PAIRS])
    def test_check_passes_iff_identity_code(self, code):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                # Eve's code is the first uniform the channel reads
                row = [code_uniform(code.k, code.l), *uniforms(3)]
                key = round_key(DISTURBANCE, 2 * k + l, 2 * i + j, row)
                t = run_round_original(Mode.CM, DISTURBANCE, key)
                assert t.outcome == BellIndex(k ^ i ^ code.k, l ^ j ^ code.l)
                assert t.check_passed is (code == PauliCode(0, 0))

    def test_forward_leg_untouched(self):
        channel = AdversaryChannel(DISTURBANCE)
        state = bell_state(BellIndex(1, 1))
        assert channel.on_forward(state, np.random.default_rng(0)) is state


class TestMeasureResend:
    def test_forward_collapses_anchor_to_product(self):
        rng = np.random.default_rng(9)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        hits = {"01": 0, "10": 0}
        n = 2000
        for _ in range(n):
            channel = AdversaryChannel(MEASURE_RESEND)
            out = channel.on_forward(bell_state(BellIndex(0, 0)), rng)
            if np.allclose(out.amps, ket01, atol=1e-12):
                hits["01"] += 1
            elif np.allclose(out.amps, ket10, atol=1e-12):
                hits["10"] += 1
            else:
                pytest.fail(f"unexpected post-tap state {out.amps}")
        sigma = (0.25 / n) ** 0.5
        assert abs(hits["01"] / n - 0.5) <= 3 * sigma

    def test_return_leg_untouched(self):
        channel = AdversaryChannel(MEASURE_RESEND)
        rng = np.random.default_rng(0)
        channel.on_forward(bell_state(BellIndex(0, 0)), rng)
        state = bell_state(BellIndex(0, 1))
        assert channel.on_return(state, rng) is state


class TestObservePublic:
    def _substitution_channel_with(self, inferred):
        channel = AdversaryChannel(BELL_SUBSTITUTION)
        channel.inferred_alice = inferred
        return channel

    def test_public_outcome_gives_bobs_code(self):
        channel = self._substitution_channel_with(PauliCode(0, 1))
        announcements = [
            Announcement(ALICE, MODE_REVEAL, Mode.MM),
            Announcement(BOB, OUTCOME_REVEAL, BellIndex(1, 1)),
        ]
        report = channel.observe_public(announcements)
        assert report.inferred_alice == PauliCode(0, 1)
        assert report.inferred_bob_public == PauliCode(1, 0)

    def test_none_strategy_reports_nothing(self):
        channel = AdversaryChannel(NONE)
        report = channel.observe_public([Announcement(BOB, OUTCOME_REVEAL, BellIndex(1, 1))])
        assert report is None

    def test_no_outcome_reveal_means_no_bob_inference(self):
        channel = self._substitution_channel_with(PauliCode(1, 0))
        announcements = [
            Announcement(BOB, MODE_REVEAL, Mode.CM),
            Announcement(ALICE, MODE_REVEAL, Mode.MM),
        ]
        report = channel.observe_public(announcements)
        assert report.inferred_alice == PauliCode(1, 0)
        assert report.inferred_bob_public is None


class TestChannelOrdering:
    def test_return_before_forward_faults(self):
        channel = AdversaryChannel(BELL_SUBSTITUTION)
        with pytest.raises(ProtocolOrderError):
            channel.on_return(bell_state(BellIndex(0, 0)), np.random.default_rng(0))

    def test_double_forward_faults(self):
        channel = AdversaryChannel(NONE)
        rng = np.random.default_rng(0)
        channel.on_forward(bell_state(BellIndex(0, 0)), rng)
        with pytest.raises(ProtocolOrderError):
            channel.on_forward(bell_state(BellIndex(0, 0)), rng)

    def test_a_state_off_the_tables_is_rejected(self):
        channel = AdversaryChannel(NONE)
        off_table = TwoQubitState(np.array([1, 1, 1, 1]) / 2)
        with pytest.raises(ValueError, match="REACHABLE"):
            channel.on_forward(off_table, np.random.default_rng(0))

    @pytest.mark.parametrize("k, l", BIT_PAIRS)
    def test_a_negated_bell_state_is_accepted(self, k, l):
        negated = TwoQubitState(-bell_state(BellIndex(k, l)).amps)
        channel = AdversaryChannel(NONE)
        assert channel.on_forward(negated, FixedRng(0.5)) is bell_state(BellIndex(k, l))

    def test_an_apply_pauli_image_is_accepted(self):
        # apply_pauli computes a new state, not a table object; the channel
        # finds its class all the same
        channel = AdversaryChannel(MEASURE_RESEND)
        handed = channel.on_forward(bell_state(BellIndex(0, 0)), FixedRng(0.25))  # |01>
        encoded = apply_pauli(handed, PauliCode(1, 0))  # iY|01> = -|00>
        assert all(encoded is not state for state in REACHABLE)
        delivered = channel.on_return(encoded, FixedRng(0.5))
        assert abs(abs(overlap(delivered, encoded)) - 1.0) <= 1e-12

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            AdversaryChannel("entangle-and-measure")


def law(step, state, reads=1):
    """{result: exact probability} of ``step(state, u)`` for u uniform on
    [0, 1).  A step compares its uniform only with quarters (a code draw)
    and with the table values of ``state``, so it is constant between
    consecutive such cuts, and each interval's midpoint stands for it."""
    if not reads:
        return {step(state, 0.0): Fraction(1)}
    cuts = {0, 1, 0.25, 0.5, 0.75, TAP[state][0], *CDF[state]}
    points = sorted(map(Fraction, cuts))
    out = {}
    for a, b in zip(points, points[1:]):
        result = step(state, float((a + b) / 2))
        out[result] = out.get(result, 0) + b - a
    return out


def born(state):
    """{Bell outcome position: the weight ``CDF[state]`` gives it}, nonzero ones only."""
    cdf = [Fraction(0), *map(Fraction, CDF[state])]
    return {i: b - a for i, (a, b) in enumerate(zip(cdf, cdf[1:])) if b > a}


@pytest.mark.parametrize("state", range(len(REACHABLE)))
def test_bell_outcome_draws_the_tabulated_weights(state):
    assert law(lambda s, u: bell_outcome(CDF[s], u), state) == born(state)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_engine_law_on_the_tables_is_the_exact_oracle(protocol, strategy):
    """The law of the engine's round, enumerated over ``LEGS``, ``PAULI``,
    ``CDF`` and ``TAP`` with Fraction weights, is the oracle's exactly; Bob's
    outcome takes the weights of its ``CDF`` entry (the test above)."""
    forward, forward_reads, back, back_reads = LEGS[strategy]
    distribution = {}
    pass_prob = eve_hits = eve_total = Fraction(0)
    for bob in range(4):
        for alice in range(4):
            cell = {}
            for (state, memory), w1 in law(forward, PAULI[0][bob], forward_reads).items():
                returned = law(lambda s, u: back(s, u, memory), PAULI[state][alice], back_reads)
                for (final, inferred), w2 in returned.items():
                    for outcome, w3 in born(final).items():
                        weight = w1 * w2 * w3
                        index = ALL_INDICES[outcome]
                        cell[index] = cell.get(index, 0) + weight
                        share = weight / 16  # of all rounds: the 16 code pairs are equally likely
                        if outcome == bob ^ alice:  # the honest index passes a check
                            pass_prob += share
                        if inferred is not None:
                            eve_total += share
                            eve_hits += share if inferred == alice else 0
            distribution[ALL_CODES[bob], ALL_CODES[alice]] = cell
    oracle = exact_oracle(protocol, strategy)
    assert distribution == oracle.outcome_distribution
    assert pass_prob == oracle.check_pass_probability
    assert (eve_hits / eve_total if eve_total else None) == oracle.eve_alice_accuracy_exact
