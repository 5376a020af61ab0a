"""Round-driver tests: honest completeness, announcements, mode independence.

Honest expectations come from the XOR law (an undisturbed encoded pair
measures to the XOR of the two codes), which the bell_core tests pin to the
matrix oracle independently.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace

import pytest
from conftest import BIT_PAIRS, uniforms

from qdialogue import protocol as protocol_mod
from qdialogue.adversary import LEGS, NONE, STRATEGIES, EveReport
from qdialogue.bell_core import BellIndex, PauliCode
from qdialogue.protocol import (
    ALICE,
    BOB,
    MODE_REVEAL,
    OP_REVEAL,
    OUTCOME_REVEAL,
    RECEIPT_ACK,
    Announcement,
    Mode,
    RoundTranscript,
    cm_check,
    run_round_modified,
    run_round_original,
)

ALL_MODES = (Mode.MM, Mode.CM)


def kinds(transcript):
    return [a.kind for a in transcript.announcements]


class TestCmCheck:
    def test_xor_match(self):
        assert cm_check(BellIndex(1, 1), PauliCode(1, 0), PauliCode(0, 1))

    def test_all_zero(self):
        assert cm_check(BellIndex(0, 0), PauliCode(0, 0), PauliCode(0, 0))

    def test_mismatch(self):
        assert not cm_check(BellIndex(0, 0), PauliCode(0, 0), PauliCode(1, 0))


class TestHonestCompletenessOriginal:
    def test_message_mode_exhaustive(self):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                t = run_round_original(2 * k + l, Mode.MM, 2 * i + j, NONE, uniforms(0))
                assert t.outcome == BellIndex(k ^ i, l ^ j)
                assert t.bob_decoded == PauliCode(i, j)
                assert t.alice_decoded == PauliCode(k, l)
                assert not t.check_performed and t.check_passed is None

    def test_checking_mode_exhaustive(self):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                t = run_round_original(2 * k + l, Mode.CM, 2 * i + j, NONE, uniforms(0))
                assert t.outcome == BellIndex(k ^ i, l ^ j)
                assert t.check_performed and t.check_passed is True
                assert t.bob_decoded is None and t.alice_decoded is None


class TestHonestCompletenessModified:
    def test_all_modes_and_bits_exhaustive(self):
        for bob_mode in ALL_MODES:
            for alice_mode in ALL_MODES:
                for k, l in BIT_PAIRS:
                    for i, j in BIT_PAIRS:
                        t = run_round_modified(
                            bob_mode,
                            2 * k + l,
                            alice_mode,
                            2 * i + j,
                            NONE,
                            uniforms(0),
                        )
                        assert t.outcome == BellIndex(k ^ i, l ^ j)
                        if bob_mode is Mode.CM and alice_mode is Mode.CM:
                            assert t.check_performed and t.check_passed is True
                            assert t.bob_decoded is None and t.alice_decoded is None
                        elif bob_mode is Mode.MM and alice_mode is Mode.MM:
                            assert t.bob_decoded == PauliCode(i, j)
                            assert t.alice_decoded == PauliCode(k, l)
                        elif alice_mode is Mode.CM:  # one-way Bob -> Alice
                            assert t.alice_decoded == PauliCode(k, l)
                            assert t.bob_decoded is None
                        else:  # one-way Alice -> Bob
                            assert t.bob_decoded == PauliCode(i, j)
                            assert t.alice_decoded is None


class TestRoundExamples:
    def test_original_mm_example(self):
        t = run_round_original(3, Mode.MM, 1, NONE, uniforms(0))
        assert t.outcome == BellIndex(1, 0)
        assert t.bob_decoded == PauliCode(0, 1)
        assert t.alice_decoded == PauliCode(1, 1)

    def test_original_cm_identity_example(self):
        t = run_round_original(0, Mode.CM, 0, NONE, uniforms(0))
        assert t.outcome == BellIndex(0, 0)
        assert t.check_passed is True

    def test_modified_cm_cm_example(self):
        t = run_round_modified(Mode.CM, 2, Mode.CM, 1, NONE, uniforms(0))
        assert t.outcome == BellIndex(1, 1)
        assert t.check_passed is True

    def test_modified_one_way_to_bob_example(self):
        t = run_round_modified(Mode.CM, 1, Mode.MM, 2, NONE, uniforms(0))
        assert t.bob_decoded == PauliCode(1, 0)
        assert OUTCOME_REVEAL not in kinds(t)

    def test_modified_mm_mm_all_zero(self):
        t = run_round_modified(Mode.MM, 0, Mode.MM, 0, NONE, uniforms(0))
        assert t.outcome == BellIndex(0, 0)
        assert t.bob_decoded == PauliCode(0, 0)
        assert t.alice_decoded == PauliCode(0, 0)


class TestAnnouncementDiscipline:
    def test_original_mm_sequence(self):
        t = run_round_original(2, Mode.MM, 1, NONE, uniforms(0))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, OUTCOME_REVEAL]
        assert t.announcements[1].payload is Mode.MM
        assert t.announcements[2].speaker == BOB
        assert t.announcements[2].payload == t.outcome

    def test_original_cm_sequence(self):
        t = run_round_original(2, Mode.CM, 1, NONE, uniforms(0))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, OP_REVEAL]
        assert t.announcements[2].speaker == ALICE
        assert t.announcements[2].payload == PauliCode(0, 1)

    def test_suppressed_outcome_reveal_still_decodes(self):
        t = run_round_original(
            2,
            Mode.MM,
            1,
            NONE,
            uniforms(0),
            suppress_outcome_reveal=True,
        )
        assert OUTCOME_REVEAL not in kinds(t)
        assert t.alice_decoded == PauliCode(1, 0)

    def test_modified_cm_cm_sequence(self):
        t = run_round_modified(Mode.CM, 2, Mode.CM, 1, NONE, uniforms(0))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL, OP_REVEAL, OP_REVEAL, OUTCOME_REVEAL]
        # Alice's op-reveal comes before any of Bob's reveals
        speakers = [(a.kind, a.speaker) for a in t.announcements[3:]]
        assert speakers[0] == (OP_REVEAL, ALICE)
        assert speakers[1] == (OP_REVEAL, BOB)
        assert speakers[2] == (OUTCOME_REVEAL, BOB)

    def test_modified_modes_revealed_after_measurement(self):
        t = run_round_modified(Mode.MM, 0, Mode.MM, 0, NONE, uniforms(0))
        assert kinds(t)[:3] == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL]
        assert [a.speaker for a in t.announcements[1:3]] == [BOB, ALICE]

    def test_modified_one_way_to_bob_reveals_nothing_extra(self):
        t = run_round_modified(Mode.CM, 3, Mode.MM, 1, NONE, uniforms(0))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL]

    def test_modified_one_way_to_alice_reveals_outcome_only(self):
        t = run_round_modified(Mode.MM, 3, Mode.CM, 1, NONE, uniforms(0))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL, OUTCOME_REVEAL]
        assert OP_REVEAL not in kinds(t)


class TestModeIndependence:
    def _trace(self, run, strategy, monkeypatch):
        """Record every state id, uniform and result of the round's channel
        legs and Bob's Bell measurement."""
        recorded = []
        forward, forward_reads, back, back_reads = LEGS[strategy]
        real_outcome = protocol_mod.bell_outcome

        def spy_forward(state, u):
            out = forward(state, u)
            recorded.append(("forward", state, u, out))
            return out

        def spy_back(state, u, memory):
            out = back(state, u, memory)
            recorded.append(("back", state, u, memory, out))
            return out

        def spy_outcome(cdf, u):
            out = real_outcome(cdf, u)
            recorded.append(("bell", cdf, u, out))
            return out

        monkeypatch.setitem(LEGS, strategy, (spy_forward, forward_reads, spy_back, back_reads))
        monkeypatch.setattr(protocol_mod, "bell_outcome", spy_outcome)
        transcript = run()
        monkeypatch.undo()
        return recorded, transcript

    def test_original_trace_ignores_mode(self, monkeypatch):
        bob, alice = 2, 1
        for strategy in STRATEGIES:
            traces = {}
            for mode in ALL_MODES:
                traces[mode], _ = self._trace(
                    lambda m=mode: run_round_original(bob, m, alice, strategy, uniforms(17)),
                    strategy,
                    monkeypatch,
                )
            assert len(traces[Mode.MM]) == 3
            assert traces[Mode.MM] == traces[Mode.CM], strategy

    def test_modified_trace_ignores_modes(self, monkeypatch):
        bob, alice = 3, 2
        for strategy in STRATEGIES:
            traces = []
            for bob_mode in ALL_MODES:
                for alice_mode in ALL_MODES:
                    trace, _ = self._trace(
                        lambda bm=bob_mode, am=alice_mode: run_round_modified(
                            bm, bob, am, alice, strategy, uniforms(23)
                        ),
                        strategy,
                        monkeypatch,
                    )
                    traces.append(trace)
            assert len(traces[0]) == 3
            assert all(t == traces[0] for t in traces), strategy


class TestTranscriptInvariants:
    def test_check_passed_present_iff_performed(self):
        base = dict(
            round_id=0,
            protocol="original",
            bob_mode=Mode.MM,
            alice_mode=Mode.MM,
            bob_code=PauliCode(0, 0),
            alice_code=PauliCode(0, 0),
            outcome=BellIndex(0, 0),
            announcements=(),
            bob_decoded=None,
            alice_decoded=None,
            eve_report=None,
        )
        with pytest.raises(ValueError):
            RoundTranscript(check_performed=True, check_passed=None, **base)
        with pytest.raises(ValueError):
            RoundTranscript(check_performed=False, check_passed=True, **base)

    def test_announcement_payload_shapes(self):
        with pytest.raises(ValueError):
            Announcement(ALICE, RECEIPT_ACK, Mode.MM)
        with pytest.raises(ValueError):
            Announcement(BOB, OUTCOME_REVEAL, PauliCode(0, 0))
        with pytest.raises(ValueError):
            Announcement(BOB, OP_REVEAL, BellIndex(0, 0))
        with pytest.raises(ValueError):
            Announcement(ALICE, MODE_REVEAL, None)
        with pytest.raises(ValueError):
            Announcement("eve", RECEIPT_ACK, None)
        with pytest.raises(ValueError):
            Announcement(ALICE, "shout", None)


# one value per field, pairwise unequal, so a value stored under another
# field's name shows; the constructor checks only the check invariant, not
# the round's shape
FIELD_VALUES = {
    "round_id": 7,
    "protocol": "original",
    "bob_mode": Mode.MM,
    "alice_mode": Mode.CM,
    "bob_code": PauliCode(1, 0),
    "alice_code": PauliCode(0, 1),
    "outcome": BellIndex(1, 1),
    "announcements": (Announcement(ALICE, RECEIPT_ACK, None),),
    "check_performed": False,
    "check_passed": None,
    "bob_decoded": PauliCode(1, 1),
    "alice_decoded": PauliCode(0, 0),
    "eve_report": EveReport(PauliCode(0, 1), PauliCode(1, 0)),
}
# what a generated frozen dataclass with the same fields does
GeneratedTranscript = make_dataclass(
    "RoundTranscript", [(f.name, f.type) for f in fields(RoundTranscript)], frozen=True
)


def stored(t):
    return {f.name: getattr(t, f.name) for f in fields(t)}


class TestTranscriptConstructor:
    """``RoundTranscript``'s generated ``__init__``, with the invariant in
    ``__post_init__``, keeps the dataclass contract.  These tests were
    written for a hand-written ``__init__`` and pin the generated one
    unedited."""

    def test_parameters_are_the_fields_in_order(self):
        names = list(inspect.signature(RoundTranscript).parameters)
        assert names == [f.name for f in fields(RoundTranscript)] == list(FIELD_VALUES)

    def test_positional_and_keyword_builds_store_every_field(self):
        assert stored(RoundTranscript(*FIELD_VALUES.values())) == FIELD_VALUES
        assert stored(RoundTranscript(**FIELD_VALUES)) == FIELD_VALUES

    def test_fields_are_frozen(self):
        t = RoundTranscript(**FIELD_VALUES)
        for name in FIELD_VALUES:
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert stored(t) == FIELD_VALUES

    def test_behaves_as_the_generated_dataclass(self):
        t = RoundTranscript(*FIELD_VALUES.values())
        by_keyword = RoundTranscript(**FIELD_VALUES)
        generated = GeneratedTranscript(**FIELD_VALUES)
        assert t == by_keyword and hash(t) == hash(by_keyword) == hash(generated)
        assert repr(t) == repr(by_keyword) == repr(generated)
        assert t != replace(t, round_id=8)
        assert stored(replace(t, round_id=8)) == {**FIELD_VALUES, "round_id": 8}
        for twin in (copy.copy(t), pickle.loads(pickle.dumps(t))):
            assert twin is not t
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
            with pytest.raises(FrozenInstanceError):
                twin.round_id = 8

    def test_shape_is_not_a_field(self):
        t = run_round_modified(Mode.MM, 2, Mode.CM, 1, NONE, uniforms(0))
        plain = replace(t)  # through __init__, which knows no shape
        assert t.shape is not None and plain.shape is None
        assert "shape" not in [f.name for f in fields(t)]
        assert t == plain and hash(t) == hash(plain) and repr(t) == repr(plain)
        assert RoundTranscript(**FIELD_VALUES).shape is None

    def test_check_invariant_holds_on_every_construction(self):
        bad = {**FIELD_VALUES, "check_performed": True, "check_passed": None}
        checked = RoundTranscript(**{**bad, "check_passed": True})
        for build in (
            lambda: RoundTranscript(*bad.values()),
            lambda: RoundTranscript(**bad),
            lambda: replace(checked, check_passed=None),
            lambda: replace(RoundTranscript(**FIELD_VALUES), check_passed=False),
        ):
            with pytest.raises(ValueError, match="check_passed must be present iff check_performed"):
                build()
