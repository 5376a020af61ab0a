"""The JSONL transcript codec: per-shape lines, typed parse failures, invariants.

Both directions of the codec work per round shape: ``TAILS`` maps a shape
id to its line tail, and the parser maps a canonical tail to the fields of
its shape's round and builds a hit as ``protocol.shaped_transcript`` does.
The reference they must match is the plain dict + json path:
``json.dumps(transcript_to_record(t), separators=(",", ":"))`` to write and
``record_to_transcript(json.loads(line))`` to read.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import qdialogue
from qdialogue import protocol
from qdialogue import transcript_codec as codec
from qdialogue.adversary import STRATEGIES, replay_report
from qdialogue.bell_core import ALL_CODES, ALL_INDICES, decode_bits
from qdialogue.harness import (
    ConfigurationError,
    RunConfig,
    TranscriptFormatError,
    iter_rounds,
    parse_transcript_line,
    transcript_to_line,
)
from qdialogue.protocol import (
    MODIFIED,
    N_SHAPES,
    ORIGINAL,
    POLICY,
    PROTOCOLS,
    ROWS,
    RoundTranscript,
    announcements_for,
    cm_check,
    shaped_transcript,
)
from qdialogue.transcript_codec import record_to_transcript, transcript_to_record

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_line(t) -> str:
    return json.dumps(transcript_to_record(t), separators=(",", ":"))


def reference_parse(line: str):
    return record_to_transcript(json.loads(line))


def run_lines(protocol, strategy, rounds=200, seed=3, p_cm=0.5):
    config = RunConfig(protocol=protocol, strategy=strategy, rounds=rounds, p_cm=p_cm, seed=seed)
    return [transcript_to_line(t) for t in iter_rounds(config)]


def rebuild(round_id: int, shape: int):
    """The round of shape id ``shape``, read digit by digit as the protocol
    module's docstring lays the id out, and built field by field: the check
    from its ``POLICY`` row's flags and ``cm_check``, the decodes with
    ``decode_bits``, and the shape id as given."""
    rest, eve = divmod(shape, 5)
    rest, outcome = divmod(rest, 4)
    rest, alice = divmod(rest, 4)
    row, bob = divmod(rest, 4)
    (protocol, bob_mode, alice_mode, _), reveals = ROWS[row]
    policy = POLICY[protocol, bob_mode, alice_mode]
    bob, alice, outcome = ALL_CODES[bob], ALL_CODES[alice], ALL_INDICES[outcome]
    announcements = announcements_for(reveals, (bob_mode, alice_mode, bob, alice, outcome))
    t = RoundTranscript(
        round_id, protocol, bob_mode, alice_mode, bob, alice, outcome, announcements,
        policy.checks, cm_check(outcome, bob, alice) if policy.checks else None,
        decode_bits(outcome, bob) if policy.bob_decodes else None,
        decode_bits(outcome, alice) if policy.alice_decodes else None,
        None if eve == 0 else replay_report(ALL_CODES[eve - 1], announcements),
    )
    t.__dict__["shape"] = shape
    return t


@pytest.fixture
def cold_memos():
    codec.TAILS.clear()
    codec._PARSED.clear()
    yield
    codec.TAILS.clear()
    codec._PARSED.clear()


def parse_memo_size() -> int:
    return len(codec._PARSED)


@pytest.fixture
def json_loads_calls(monkeypatch):
    """The number of ``json.loads`` calls made so far, as a one-item list."""
    calls = [0]
    loads = json.loads

    def counting(*args, **kwargs):
        calls[0] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


class TestSerializer:
    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        strategy=st.sampled_from(STRATEGIES),
        p_cm=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
        suppress=st.booleans(),
        round_ids=st.lists(st.integers(0, 10**12), min_size=1, max_size=6),
    )
    def test_memoized_line_is_the_reference_line(
        self, protocol, strategy, p_cm, seed, suppress, round_ids
    ):
        config = RunConfig(
            protocol=protocol,
            strategy=strategy,
            rounds=6,
            p_cm=p_cm,
            seed=seed,
            suppress_outcome_reveal=suppress,
        )
        for t, round_id in zip(iter_rounds(config), round_ids * 6):
            # the engine's transcript, cold or warm, and again once the table
            # surely holds its tail
            assert t.shape is not None
            assert transcript_to_line(t) == reference_line(t)
            assert transcript_to_line(t) == reference_line(t)
            # a replaced transcript has no shape; a parsed one has the engine's
            t = replace(t, round_id=round_id)
            assert t.shape is None
            assert transcript_to_line(t) == reference_line(t)
            parsed = parse_transcript_line(reference_line(t))
            assert parsed.shape is not None
            assert transcript_to_line(parsed) == reference_line(parsed) == reference_line(t)
            # wrong types hash like the right ones but serialize differently
            for odd in (replace(t, round_id=bool(round_id % 2)),
                        replace(t, check_performed=int(t.check_performed))):
                assert transcript_to_line(odd) == reference_line(odd)
            if t.check_performed:
                odd = replace(t, check_passed=int(t.check_passed))
                assert transcript_to_line(odd) == reference_line(odd)
                assert f'"check_passed":{int(t.check_passed)}' in transcript_to_line(odd)

    def test_warm_memo_does_not_serve_a_bool_round_id(self, cold_memos):
        t = next(iter_rounds(RunConfig(rounds=1)))
        one = replace(t, round_id=1)
        assert transcript_to_line(one).startswith('{"round_id":1,')
        assert transcript_to_line(replace(t, round_id=True)).startswith('{"round_id":true,')

    def test_types_json_cannot_serialize_still_raise(self):
        t = next(iter_rounds(RunConfig(rounds=1, p_cm=1.0)))
        transcript_to_line(t)  # warm
        for odd in (replace(t, round_id=np.int64(3)), replace(t, check_passed=np.bool_(True))):
            with pytest.raises(TypeError):
                reference_line(odd)
            with pytest.raises(TypeError):
                transcript_to_line(odd)

    def test_unhashable_field_takes_the_reference_path(self):
        t = next(iter_rounds(RunConfig(rounds=1)))
        odd = replace(t, announcements=list(t.announcements))
        assert transcript_to_line(odd) == reference_line(t)


class TestParser:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_memoized_parse_equals_full_parse(self, protocol, strategy, cold_memos):
        for line in run_lines(protocol, strategy):
            for text in (line, line + "\n"):
                expected = reference_parse(text)
                assert parse_transcript_line(text) == expected  # cold or warm
                assert parse_transcript_line(text) == expected  # warm
        assert 0 < parse_memo_size() <= N_SHAPES

    def test_a_hit_only_changes_the_round_id(self, cold_memos, json_loads_calls):
        line = run_lines(MODIFIED, "bell-substitution", rounds=1)[0]
        first = parse_transcript_line(line)
        # the engine filled the shape's template, and the miss returns its
        # id object, not the one it read off the line
        assert first.shape is protocol._TEMPLATES[first.shape]["shape"]
        assert parse_memo_size() == 1
        assert json_loads_calls == [1]
        for round_id in (1, 10, 999_999_999_999):
            other = line.replace('"round_id":0,', f'"round_id":{round_id},', 1)
            for text in (other, other + "\n"):
                hit = parse_transcript_line(text)
                assert hit == replace(first, round_id=round_id)
                # one id object per shape (this id is past the cached small
                # ints), so summarize's counts match it by identity
                assert hit.shape is first.shape > 256
                assert transcript_to_line(hit) == other
        assert parse_memo_size() == 1
        assert json_loads_calls == [1]  # every hit skipped the full parse

    def test_a_non_canonical_line_is_parsed_once(self, cold_memos, json_loads_calls):
        line = run_lines(MODIFIED, "bell-substitution", rounds=1)[0]
        odd = line.replace(',"protocol":', ', "protocol":', 1)
        for warm in (False, True):  # a miss whether or not the canonical tail is known
            if warm:
                parse_transcript_line(line)
            expected = reference_parse(odd)
            before = json_loads_calls[0]
            assert parse_transcript_line(odd) == expected
            assert json_loads_calls[0] == before + 1
            assert parse_memo_size() == warm

    @pytest.mark.parametrize(
        "variant",
        [
            lambda line: line.replace('{"round_id":7,', '{"round_id":007,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":-7,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":5,"round_id":7,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":7,"round_id":5,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id": 7,', 1),
            lambda line: line.replace(',"protocol":', ', "protocol":', 1),
            lambda line: " " + line,
            lambda line: line + "\r\n",
            lambda line: line + "\n\n",
            lambda line: line + " ",
            lambda line: line[:-1] + ',"extra":1}',
            # digits that int() reads but JSON does not, and numbers that
            # JSON reads but not as a canonical id
            lambda line: line.replace('{"round_id":7,', '{"round_id":\u0667,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":\uff17,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":+7,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":7.0,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":7e0,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":1000000000000000007,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_id":7\t,', 1),
            lambda line: line.replace('{"round_id":7,', '{"round_ie":7,', 1),
        ],
        ids=["leading-zero", "negative", "duplicate-id-first", "duplicate-id-last",
             "space-after-head", "space-in-tail", "leading-space", "crlf", "two-newlines",
             "trailing-space", "extra-key", "arabic-indic-digit", "fullwidth-digit", "plus-sign",
             "float", "exponent", "19-digits", "tab-before-comma", "misspelled-key"],
    )
    def test_non_canonical_lines_are_never_stored(self, variant, cold_memos):
        line = run_lines(ORIGINAL, "bell-substitution", rounds=8)[7]
        odd = variant(line)
        assert odd != line
        for warm in (False, True):
            if warm:
                parse_transcript_line(line)
            before = parse_memo_size()
            try:
                expected = reference_parse(odd)
            except (TranscriptFormatError, ValueError):
                with pytest.raises(TranscriptFormatError):
                    parse_transcript_line(odd)
            else:
                assert parse_transcript_line(odd) == expected
                assert parse_transcript_line(odd) == expected
            assert parse_memo_size() == before

    @pytest.mark.parametrize("round_id", [10**18, 10**18 + 7, 2**64, 10**40])
    def test_long_round_id_takes_the_full_parse(self, round_id, cold_memos, json_loads_calls):
        # 19 digits or more: more than the canonical head admits, so each
        # parse is a full one, while 18 digits still hit
        line = run_lines(MODIFIED, "bell-substitution", rounds=1)[0]
        parse_transcript_line(line)  # warm: the tail is cached
        longest = line.replace('{"round_id":0,', f'{{"round_id":{10**18 - 1},', 1)
        before = json_loads_calls[0]
        assert parse_transcript_line(longest).round_id == 10**18 - 1
        assert json_loads_calls[0] == before
        long = line.replace('{"round_id":0,', f'{{"round_id":{round_id},', 1)
        assert parse_transcript_line(long) == reference_parse(long)
        assert parse_transcript_line(long).round_id == round_id
        assert json_loads_calls[0] == before + 3  # two parses and the reference
        assert parse_memo_size() == 1

    def test_canonical_line_round_trips_byte_for_byte(self):
        for line in run_lines(MODIFIED, "disturbance"):
            assert transcript_to_line(parse_transcript_line(line + "\n")) == line


def distinct_shapes() -> list:
    """One round of every shape id, numbered in order."""
    return [rebuild(shape, shape) for shape in range(N_SHAPES)]


def test_every_shape_id_round_trips():
    for shape, t in enumerate(distinct_shapes()):
        assert t.shape == shape
        line = transcript_to_line(t)
        assert line == reference_line(t)
        parsed = parse_transcript_line(line)
        assert parsed == t
        assert transcript_to_line(parsed) == line


def test_a_shaped_transcript_is_the_round_its_shape_id_spells():
    for shape in range(N_SHAPES):
        t, expected = shaped_transcript(shape + 3, shape), rebuild(shape + 3, shape)
        # every field, the shape id and their order, as a constructed one stores them
        assert list(t.__dict__.items()) == list(expected.__dict__.items())
        assert t == expected and t.shape == expected.shape == shape
        assert transcript_to_line(t) == reference_line(expected)
    assert len(protocol._TEMPLATES) == N_SHAPES


def test_builds_of_one_shape_share_no_fields():
    first, second = shaped_transcript(1, 7), shaped_transcript(2, 7)
    template = protocol._TEMPLATES[7]
    assert len({id(first.__dict__), id(second.__dict__), id(template)}) == 3
    assert (first.round_id, second.round_id, template["round_id"]) == (1, 2, 0)


def test_a_round_id_that_is_not_an_int_gives_no_shape():
    builds = [
        lambda round_id: shaped_transcript(round_id, 7),
        # the round functions build their transcripts inline, the same way
        lambda round_id: protocol.run_round_original(protocol.Mode.CM, "none", 5, round_id),
        lambda round_id: protocol.run_round_modified(
            protocol.Mode.CM, protocol.Mode.MM, "bell-substitution", 5, round_id),
    ]
    for build in builds:
        assert build(0).shape is not None
        for round_id in (True, 7.0):
            t = build(round_id)
            assert t.shape is None and t.round_id == round_id
            assert t == replace(build(0), round_id=round_id)
            assert transcript_to_line(t) == reference_line(t)


def test_importing_the_cli_fills_no_template():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import qdialogue.cli, qdialogue.protocol as p; print(len(p._TEMPLATES))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_transcript_is_constructed_per_shape_not_per_round(name, strategy, monkeypatch):
    for module, table in ((protocol, "_TEMPLATES"), (codec, "TAILS"), (codec, "_PARSED")):
        monkeypatch.setattr(module, table, {})
    calls = [0]
    init = RoundTranscript.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RoundTranscript, "__init__", counting)
    rounds = list(iter_rounds(RunConfig(protocol=name, strategy=strategy, rounds=2000, seed=3)))
    assert 0 < calls[0] <= len({t.shape for t in rounds})
    built = calls[0]
    # the parser's map is cold, so each shape's first line is a full parse
    lines = [transcript_to_line(t) for t in rounds]
    assert [parse_transcript_line(line) for line in lines] == rounds
    assert calls[0] == built


def _non_canonical(line: str) -> list[str]:
    return [
        line.replace(',"protocol":', ', "protocol":', 1),
        line.replace(',"protocol":', ',"round_id":3,"protocol":', 1),
        line[:-1] + ',"extra":1}',
        line + " ",
        line + "\r\n",
    ]


def test_tables_stay_within_the_shape_universe(cold_memos):
    for t in distinct_shapes():
        line = transcript_to_line(t)
        assert parse_transcript_line(line) == t
        for odd in _non_canonical(line):
            try:
                expected = reference_parse(odd)
            except TranscriptFormatError:
                with pytest.raises(TranscriptFormatError):
                    parse_transcript_line(odd)
            else:
                assert parse_transcript_line(odd) == expected
    assert len(codec.TAILS) == N_SHAPES
    assert len(set(codec.TAILS.values())) == parse_memo_size() == N_SHAPES
    assert len(protocol._TEMPLATES) <= N_SHAPES
    for shape, tail in codec.TAILS.items():
        assert codec._reference_line(rebuild(0, shape)) == '{"round_id":0' + tail


def test_every_tail_in_the_parsers_map_is_canonical(cold_memos):
    for line in _VALID_LINES:
        for odd in [line, line + "\n", *_non_canonical(line)]:
            try:
                parse_transcript_line(odd)
            except TranscriptFormatError:
                pass
    assert 0 < parse_memo_size() <= N_SHAPES
    # a tail is what follows a line's first comma, and it maps to the fields
    # of its shape's round
    for tail, fields in codec._PARSED.items():
        shape = fields["shape"]
        t = rebuild(0, shape)
        assert codec._reference_line(t) == '{"round_id":0,' + tail
        assert codec.TAILS[shape] == "," + tail
        assert {**fields, "round_id": 0} == t.__dict__


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    strategy=st.sampled_from(STRATEGIES),
    p_cm=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    suppress=st.booleans(),
)
def test_a_round_is_its_round_id_and_shape(protocol, strategy, p_cm, seed, suppress):
    config = RunConfig(protocol=protocol, strategy=strategy, rounds=8, p_cm=p_cm, seed=seed,
                       suppress_outcome_reveal=suppress and protocol == ORIGINAL)
    for t in iter_rounds(config):
        assert 0 <= t.shape < N_SHAPES
        again = rebuild(t.round_id, t.shape)
        assert again == t and again.shape == t.shape
        assert transcript_to_line(again) == transcript_to_line(t) == reference_line(t)
        # equal rounds have equal ids, however they were built
        assert parse_transcript_line(reference_line(t)).shape == t.shape


class TestFormatErrors:
    def test_is_a_value_error_exported_by_the_package(self):
        assert issubclass(TranscriptFormatError, ValueError)
        assert qdialogue.TranscriptFormatError is TranscriptFormatError

    @pytest.mark.parametrize(
        "line, field",
        [
            ("{}", "round_id"),
            ("null", "JSON object"),
            ("[]", "JSON object"),
            ("", "JSON"),
            ("{", "JSON"),
            ('{"round_id":1}', "protocol"),
        ],
    )
    def test_message_names_the_field(self, line, field):
        with pytest.raises(TranscriptFormatError, match=field):
            parse_transcript_line(line)

    @staticmethod
    def record(protocol=ORIGINAL, p_cm=1.0):
        t = next(iter_rounds(RunConfig(protocol=protocol, strategy="none", rounds=1, p_cm=p_cm)))
        return transcript_to_record(t)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("round_id", -1),
            ("round_id", True),
            ("round_id", 1.5),
            ("round_id", "3"),
            ("protocol", "bogus"),
            ("outcome", [1, 2]),
            ("outcome", [True, 0]),
            ("outcome", [1]),
            ("announcements", {}),
            ("eve", []),
        ],
    )
    def test_bad_top_level_values_are_rejected(self, field, value):
        rec = self.record()
        rec[field] = value
        with pytest.raises(TranscriptFormatError, match=field):
            parse_transcript_line(json.dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_flipped_check_passed_is_rejected(self, protocol, cold_memos):
        rec = self.record(protocol=protocol)
        assert rec["check"] == {"check_performed": True, "check_passed": True}
        parse_transcript_line(json.dumps(rec, separators=(",", ":")))  # warm the memo
        rec["check"]["check_passed"] = False
        with pytest.raises(TranscriptFormatError, match="check_passed"):
            parse_transcript_line(json.dumps(rec, separators=(",", ":")))
        rec["check"]["check_passed"] = 1
        with pytest.raises(TranscriptFormatError, match="check_passed"):
            parse_transcript_line(json.dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_check_performed_must_follow_the_modes(self, protocol):
        check_round = self.record(protocol=protocol, p_cm=1.0)
        check_round["check"] = {"check_performed": False, "check_passed": None}
        message_round = self.record(protocol=protocol, p_cm=0.0)
        message_round["check"] = {"check_performed": True, "check_passed": True}
        for rec in (check_round, message_round):
            with pytest.raises(TranscriptFormatError, match="check_performed"):
                parse_transcript_line(json.dumps(rec))

    def test_message_round_must_not_report_a_result(self):
        rec = self.record(p_cm=0.0)
        rec["check"]["check_passed"] = False
        with pytest.raises(TranscriptFormatError, match="check_passed"):
            parse_transcript_line(json.dumps(rec))

    @pytest.mark.parametrize(
        "announcement, field",
        [
            ({"speaker": "eve", "kind": "receipt-ack", "payload": None}, "speaker"),
            ({"speaker": "bob", "kind": "shout", "payload": None}, "kind"),
            ({"speaker": "bob", "kind": "receipt-ack", "payload": [0, 1]}, "payload"),
            ({"speaker": "bob", "kind": "mode-reveal", "payload": "XX"}, "payload"),
            ({"speaker": "bob", "kind": "op-reveal", "payload": "ab"}, "payload"),
            ({"speaker": ["bob"], "kind": "op-reveal", "payload": [0, 1]}, "speaker"),
            ({"speaker": "bob", "kind": ["op-reveal"], "payload": [0, 1]}, "kind"),
            ({"speaker": "bob", "kind": "mode-reveal", "payload": ["MM"]}, "payload"),
            ({"speaker": "bob", "kind": "mode-reveal"}, "payload"),
            ("bob", "JSON object"),
        ],
    )
    def test_bad_announcements_are_rejected(self, announcement, field):
        rec = self.record()
        rec["announcements"].append(announcement)
        with pytest.raises(TranscriptFormatError, match=rf"announcements\[3\].*{field}"):
            parse_transcript_line(json.dumps(rec))


def first_record(protocol, p_cm, strategy="bell-substitution", suppress=False):
    config = RunConfig(protocol=protocol, strategy=strategy, rounds=1, p_cm=p_cm,
                       suppress_outcome_reveal=suppress)
    return transcript_to_record(next(iter_rounds(config)))


def dumps(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


class TestPolicyInvariants:
    """Doctored lines: each contradicts the POLICY row of its round shape."""

    def test_bob_in_cm_with_nothing_announced_and_a_private_inference(self):
        rec = first_record(ORIGINAL, p_cm=0.0)
        rec["modes"]["bob"] = "CM"
        rec["announcements"] = []
        rec["eve"]["inferred_bob_private"] = [0, 1]
        with pytest.raises(TranscriptFormatError, match="modes.bob"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize("alice", ["MM", "CM"])
    def test_original_round_with_bob_in_cm(self, alice):
        rec = first_record(ORIGINAL, p_cm=0.0, strategy="none")
        rec["modes"] = {"bob": "CM", "alice": alice}
        with pytest.raises(TranscriptFormatError, match="modes.bob"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize(
        "protocol, p_cm, edit",
        [
            (ORIGINAL, 0.0, lambda anns: []),
            (ORIGINAL, 0.0, lambda anns: anns[:1]),
            (ORIGINAL, 1.0, lambda anns: anns[:2]),  # the check needs Alice's op-reveal
            (ORIGINAL, 0.0, lambda anns: anns + anns[-1:]),
            (MODIFIED, 0.0, lambda anns: anns[:3]),  # suppression is original-only
            (MODIFIED, 1.0, lambda anns: anns[:3] + [anns[4], anns[3], anns[5]]),
            (MODIFIED, 1.0, lambda anns: [anns[0], anns[2], anns[1]] + anns[3:]),
            (MODIFIED, 0.0, lambda anns: anns[:1] + [{**anns[1], "speaker": "alice"}] + anns[2:]),
            (MODIFIED, 0.0, lambda anns: anns[:1] + [{**anns[1], "payload": "CM"}] + anns[2:]),
            (ORIGINAL, 1.0, lambda anns: anns[:2] + [{**anns[2], "payload": [1, 1]}]),
            (MODIFIED, 0.0, lambda anns: anns[:3] + [{**anns[3], "payload": [1, 1]}]),
        ],
        ids=["none", "ack-only", "no-op-reveal", "repeated", "modified-suppressed",
             "op-reveals-swapped", "mode-reveals-swapped", "wrong-speaker",
             "wrong-mode", "wrong-code", "wrong-outcome"],
    )
    def test_announcements_must_be_the_rows_sequence(self, protocol, p_cm, edit):
        rec = first_record(protocol, p_cm, strategy="none")
        rec["codes"] = {"bob": [0, 0], "alice": [0, 0]}
        rec["outcome"] = [0, 0]
        rec["announcements"] = [
            {**a, "payload": [0, 0]} if isinstance(a["payload"], list) else a
            for a in rec["announcements"]
        ]
        parse_transcript_line(dumps(rec))  # the undoctored line parses
        rec["announcements"] = edit(rec["announcements"])
        with pytest.raises(TranscriptFormatError, match=r"^announcements must be"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("p_cm", [0.0, 1.0])
    def test_the_rejection_names_each_allowed_sequence_once(self, protocol, p_cm):
        def described(announcements):
            return "[" + ", ".join(f"{a['speaker']} {a['kind']}" for a in announcements) + "]"

        rec = first_record(protocol, p_cm, strategy="none")
        announcements = rec["announcements"]
        allowed = [described(announcements)]
        if protocol == ORIGINAL and p_cm == 0.0:  # a message round may drop its outcome reveal
            allowed.append(described(announcements[:2]))
        rec["announcements"] = announcements[:1]
        modes = rec["modes"]
        with pytest.raises(TranscriptFormatError) as raised:
            parse_transcript_line(dumps(rec))
        assert str(raised.value) == (
            f"announcements must be {' or '.join(allowed)} for a {protocol} round with modes "
            f"bob={modes['bob']}, alice={modes['alice']}, got [alice receipt-ack]"
        )

    def test_original_message_round_may_suppress_the_outcome_reveal(self):
        rec = first_record(ORIGINAL, p_cm=0.0, suppress=True)
        assert [a["kind"] for a in rec["announcements"]] == ["receipt-ack", "mode-reveal"]
        assert rec["eve"]["inferred_bob_public"] is None
        t = parse_transcript_line(dumps(rec))
        assert t.bob_decoded is not None and t.alice_decoded is not None
        # but then Eve cannot have read Bob's code off a public outcome
        revealed = first_record(ORIGINAL, p_cm=0.0)
        rec["eve"]["inferred_bob_public"] = revealed["eve"]["inferred_bob_public"]
        with pytest.raises(TranscriptFormatError, match="eve.inferred_bob_public"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_inferred_bob_private_must_be_null(self, protocol):
        rec = first_record(protocol, p_cm=0.0)
        rec["eve"]["inferred_bob_private"] = rec["codes"]["bob"]
        with pytest.raises(TranscriptFormatError, match="eve.inferred_bob_private"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("p_cm", [0.0, 1.0])
    def test_an_eve_report_names_alices_code(self, protocol, p_cm):
        rec = first_record(protocol, p_cm)
        rec["eve"]["inferred_alice"] = None
        with pytest.raises(TranscriptFormatError, match="eve.inferred_alice"):
            parse_transcript_line(dumps(rec))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_inferred_bob_public_follows_the_outcome_reveal(self, protocol):
        rec = first_record(protocol, p_cm=0.0)  # a message round: the outcome is public
        public = rec["eve"]["inferred_bob_public"]
        assert public is not None
        for wrong in (None, [public[0] ^ 1, public[1]]):
            rec["eve"]["inferred_bob_public"] = wrong
            with pytest.raises(TranscriptFormatError, match="eve.inferred_bob_public"):
                parse_transcript_line(dumps(rec))

    def test_inferred_bob_public_without_an_outcome_reveal(self):
        rec = first_record(ORIGINAL, p_cm=1.0)  # a check round: no outcome reveal
        assert rec["eve"]["inferred_bob_public"] is None
        rec["eve"]["inferred_bob_public"] = rec["codes"]["bob"]
        with pytest.raises(TranscriptFormatError, match="eve.inferred_bob_public"):
            parse_transcript_line(dumps(rec))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, prefix + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _paths(inner, prefix + (i,))


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replaced(value[head], rest, new)}
    return [_replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


def _assert_parses_soundly_or_rejects(line: str) -> None:
    try:
        t = parse_transcript_line(line)
    except TranscriptFormatError:
        return
    # what parses is a round that passes the invariants the parser checks
    assert t.protocol in PROTOCOLS
    assert t.round_id >= 0 and type(t.round_id) is int
    if t.check_performed:
        assert t.check_passed is cm_check(t.outcome, t.bob_code, t.alice_code)
    else:
        assert t.check_passed is None
    assert parse_transcript_line(transcript_to_line(t)) == t


_VALID_LINES = [
    line
    for protocol in PROTOCOLS
    for strategy in STRATEGIES
    for line in run_lines(protocol, strategy, rounds=12, seed=9)
]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, text):
        _assert_parses_soundly_or_rejects(text)

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, value):
        _assert_parses_soundly_or_rejects(json.dumps(value))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_VALID_LINES), st.data())
    def test_one_field_of_a_valid_line_replaced(self, line, data):
        record = json.loads(line)
        path = data.draw(st.sampled_from(list(_paths(record))))
        new = data.draw(json_values)
        line = json.dumps(_replaced(record, path, new), separators=(",", ":"))
        _assert_parses_soundly_or_rejects(line)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_VALID_LINES), st.data())
    def test_a_valid_line_cut_or_spliced(self, line, data):
        i = data.draw(st.integers(0, len(line)))
        j = data.draw(st.integers(i, len(line)))
        insert = data.draw(st.text(alphabet='{}[]",:0123456789 truefalsn-\n', max_size=6))
        _assert_parses_soundly_or_rejects(line[:i] + insert + line[j:])


class TestPCmValidation:
    @pytest.mark.parametrize("p_cm", ["0.5", True, False, None, 0.5j, [0.5], np.bool_(True)])
    def test_non_real_or_bool_p_cm_rejected(self, p_cm):
        with pytest.raises(ConfigurationError, match="p_cm"):
            RunConfig(p_cm=p_cm).validate()

    @pytest.mark.parametrize("p_cm", [float("nan"), -0.1, 1.5, float("inf")])
    def test_out_of_range_p_cm_rejected(self, p_cm):
        with pytest.raises(ConfigurationError, match="p_cm"):
            RunConfig(p_cm=p_cm).validate()

    @pytest.mark.parametrize("p_cm", [0, 1, 0.25, np.float64(0.5)])
    def test_real_p_cm_accepted(self, p_cm):
        RunConfig(p_cm=p_cm).validate()
