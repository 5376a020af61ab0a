"""Round-driver tests: honest completeness, announcements, mode independence.

Honest expectations come from the XOR law (an undisturbed encoded pair
measures to the XOR of the two codes), which the bell_core tests pin to the
matrix oracle independently.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace
from itertools import product

import pytest
from conftest import BIT_PAIRS, uniforms

from qdialogue import protocol as protocol_mod
from qdialogue.adversary import NONE, STRATEGIES, EveReport
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
    round_key,
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
                key = round_key(NONE, 2 * k + l, 2 * i + j, uniforms(0))
                t = run_round_original(Mode.MM, NONE, key)
                assert t.outcome == BellIndex(k ^ i, l ^ j)
                assert t.bob_decoded == PauliCode(i, j)
                assert t.alice_decoded == PauliCode(k, l)
                assert not t.check_performed and t.check_passed is None

    def test_checking_mode_exhaustive(self):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                key = round_key(NONE, 2 * k + l, 2 * i + j, uniforms(0))
                t = run_round_original(Mode.CM, NONE, key)
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
                            alice_mode,
                            NONE,
                            round_key(NONE, 2 * k + l, 2 * i + j, uniforms(0)),
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
        t = run_round_original(Mode.MM, NONE, round_key(NONE, 3, 1, uniforms(0)))
        assert t.outcome == BellIndex(1, 0)
        assert t.bob_decoded == PauliCode(0, 1)
        assert t.alice_decoded == PauliCode(1, 1)

    def test_original_cm_identity_example(self):
        t = run_round_original(Mode.CM, NONE, round_key(NONE, 0, 0, uniforms(0)))
        assert t.outcome == BellIndex(0, 0)
        assert t.check_passed is True

    def test_modified_cm_cm_example(self):
        t = run_round_modified(Mode.CM, Mode.CM, NONE, round_key(NONE, 2, 1, uniforms(0)))
        assert t.outcome == BellIndex(1, 1)
        assert t.check_passed is True

    def test_modified_one_way_to_bob_example(self):
        t = run_round_modified(Mode.CM, Mode.MM, NONE, round_key(NONE, 1, 2, uniforms(0)))
        assert t.bob_decoded == PauliCode(1, 0)
        assert OUTCOME_REVEAL not in kinds(t)

    def test_modified_mm_mm_all_zero(self):
        t = run_round_modified(Mode.MM, Mode.MM, NONE, round_key(NONE, 0, 0, uniforms(0)))
        assert t.outcome == BellIndex(0, 0)
        assert t.bob_decoded == PauliCode(0, 0)
        assert t.alice_decoded == PauliCode(0, 0)


class TestAnnouncementDiscipline:
    def test_original_mm_sequence(self):
        t = run_round_original(Mode.MM, NONE, round_key(NONE, 2, 1, uniforms(0)))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, OUTCOME_REVEAL]
        assert t.announcements[1].payload is Mode.MM
        assert t.announcements[2].speaker == BOB
        assert t.announcements[2].payload == t.outcome

    def test_original_cm_sequence(self):
        t = run_round_original(Mode.CM, NONE, round_key(NONE, 2, 1, uniforms(0)))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, OP_REVEAL]
        assert t.announcements[2].speaker == ALICE
        assert t.announcements[2].payload == PauliCode(0, 1)

    def test_suppressed_outcome_reveal_still_decodes(self):
        t = run_round_original(
            Mode.MM,
            NONE,
            round_key(NONE, 2, 1, uniforms(0)),
            suppress_outcome_reveal=True,
        )
        assert OUTCOME_REVEAL not in kinds(t)
        assert t.alice_decoded == PauliCode(1, 0)

    def test_modified_cm_cm_sequence(self):
        t = run_round_modified(Mode.CM, Mode.CM, NONE, round_key(NONE, 2, 1, uniforms(0)))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL, OP_REVEAL, OP_REVEAL, OUTCOME_REVEAL]
        # Alice's op-reveal comes before any of Bob's reveals
        speakers = [(a.kind, a.speaker) for a in t.announcements[3:]]
        assert speakers[0] == (OP_REVEAL, ALICE)
        assert speakers[1] == (OP_REVEAL, BOB)
        assert speakers[2] == (OUTCOME_REVEAL, BOB)

    def test_modified_modes_revealed_after_measurement(self):
        t = run_round_modified(Mode.MM, Mode.MM, NONE, round_key(NONE, 0, 0, uniforms(0)))
        assert kinds(t)[:3] == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL]
        assert [a.speaker for a in t.announcements[1:3]] == [BOB, ALICE]

    def test_modified_one_way_to_bob_reveals_nothing_extra(self):
        t = run_round_modified(Mode.CM, Mode.MM, NONE, round_key(NONE, 3, 1, uniforms(0)))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL]

    def test_modified_one_way_to_alice_reveals_outcome_only(self):
        t = run_round_modified(Mode.MM, Mode.CM, NONE, round_key(NONE, 3, 1, uniforms(0)))
        assert kinds(t) == [RECEIPT_ACK, MODE_REVEAL, MODE_REVEAL, OUTCOME_REVEAL]
        assert OP_REVEAL not in kinds(t)


class TestModeIndependence:
    """A round's quantum path never depends on the modes: every mode pair
    gives the same outcome and the same Eve inference, and the table a round
    is looked up in is keyed by codes and quarter bins alone."""

    SEEDS = range(12)

    @staticmethod
    def _physics(t):
        return t.outcome, t.eve_report and t.eve_report.inferred_alice

    def test_original_round_ignores_mode(self):
        for strategy in STRATEGIES:
            for bob, alice in product(range(4), repeat=2):
                for seed in self.SEEDS:
                    key = round_key(strategy, bob, alice, uniforms(seed))
                    results = {self._physics(run_round_original(mode, strategy, key))
                               for mode in ALL_MODES}
                    assert len(results) == 1, (strategy, bob, alice, seed)

    def test_modified_round_ignores_modes(self):
        for strategy in STRATEGIES:
            for bob, alice in product(range(4), repeat=2):
                for seed in self.SEEDS:
                    key = round_key(strategy, bob, alice, uniforms(seed))
                    results = {
                        self._physics(run_round_modified(bob_mode, alice_mode, strategy, key))
                        for bob_mode, alice_mode in product(ALL_MODES, repeat=2)
                    }
                    assert len(results) == 1, (strategy, bob, alice, seed)

    def test_the_table_key_takes_no_mode(self):
        # the flat table is keyed by the 1,024 ints of five digits, each 0-3,
        # and by nothing else; round_key, which makes them, is handed no mode
        assert "mode" not in "".join(inspect.signature(round_key).parameters)
        for strategy in STRATEGIES:
            table = protocol_mod._round_table(strategy)
            assert list(table) == list(range(1024)), strategy
            assert {type(key) for key in table} == {int}, strategy


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
        t = run_round_modified(Mode.MM, Mode.CM, NONE, round_key(NONE, 2, 1, uniforms(0)))
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
