"""The JSONL transcript format: one round per line, and the codec for it.

A transcript serializes as a UTF-8 JSON object with the fixed top-level keys
round_id, protocol, modes, codes, outcome, announcements, check, eve, in
that order, written compactly (``separators=(",", ":")``).  The decode
results are not stored because protocol, modes, codes and outcome imply
them; the parser reconstructs them from ``protocol.POLICY``, so a parsed
line compares equal to the transcript that produced it.
``transcript_to_record`` and ``record_to_transcript`` are the reference
definition of the format;
``record_to_transcript`` rejects a malformed record, or one whose check,
announcements or Eve report differ from what the POLICY row of its round
implies, with ``TranscriptFormatError``, naming the field.  It reads a
record's row, codes, outcome and Eve's inference of Alice's code as a shape
id, and returns ``protocol.shaped_transcript`` of its round_id and that id,
the engine's own construction path.

A line is '{"round_id":N' and a tail that the round's shape fixes (see
``protocol``): there are at most ``N_SHAPES`` = 2240 tails, and a run has a
few dozen to a few hundred.  So the codec works per shape, in two tables
with no cap, each bounded by the shape universe.  ``TAILS`` maps a shape id
to its tail, filled on first use from the reference line, so writing a
shaped transcript is a head, its round_id and one lookup.  The parser
splits a line at its first comma and checks the head with plain str
operations (see ``parse_transcript_line``).  It maps a canonical tail to
the fields of its shape's round, and a hit is a copy of those fields with
the line's round_id, built inline as ``protocol.shaped_transcript`` builds
one, with no regex match and no second call per line.  A miss takes the
full parse once, and its tail enters the map only if the transcript
re-serializes to the line byte for byte.  A transcript without a shape
(built by hand or by ``dataclasses.replace``) always takes the reference
serializer.
"""

from __future__ import annotations

import json
import reprlib

from .adversary import EveReport, replay_report
from .bell_core import ALL_CODES, ALL_INDICES, BellIndex, PauliCode
from .protocol import (
    ANNOUNCEMENT_KINDS,
    MODE_REVEAL,
    OP_REVEAL,
    OUTCOME_REVEAL,
    PROTOCOLS,
    RECEIPT_ACK,
    ROW_NUMBER,
    ROWS,
    SPEAKERS,
    Announcement,
    Mode,
    RoundTranscript,
    _new_object,
    _set_fields,
    announcements_for,
    shape_id,
    shaped_transcript,
)


class TranscriptFormatError(ValueError):
    """A transcript line is not a valid serialized round; the message names the field."""


def _code_pair(code: PauliCode | BellIndex | None) -> list[int] | None:
    return None if code is None else [int(b) for b in code]


def _announcement_record(ann: Announcement) -> dict:
    if isinstance(ann.payload, Mode):
        payload = ann.payload.value
    elif isinstance(ann.payload, (PauliCode, BellIndex)):
        payload = _code_pair(ann.payload)
    else:
        payload = None
    return {"speaker": ann.speaker, "kind": ann.kind, "payload": payload}


def transcript_to_record(t: RoundTranscript) -> dict:
    """Flatten one transcript to a JSON-ready dict with the fixed schema."""
    eve = None
    if t.eve_report is not None:
        eve = {
            "inferred_alice": _code_pair(t.eve_report.inferred_alice),
            "inferred_bob_private": None,  # reserved: Eve never learns Bob's code privately
            "inferred_bob_public": _code_pair(t.eve_report.inferred_bob_public),
        }
    return {
        "round_id": t.round_id,
        "protocol": t.protocol,
        "modes": {"bob": t.bob_mode.value, "alice": t.alice_mode.value},
        "codes": {"bob": _code_pair(t.bob_code), "alice": _code_pair(t.alice_code)},
        "outcome": _code_pair(t.outcome),
        "announcements": [_announcement_record(a) for a in t.announcements],
        "check": {"check_performed": t.check_performed, "check_passed": t.check_passed},
        "eve": eve,
    }


# -- record fields: each reader names the field it rejects

_MODES = {m.value: m for m in Mode}


def _get(rec, key: str, path: str):
    if not isinstance(rec, dict):
        raise TranscriptFormatError(
            f"{path or 'line'} must be a JSON object, got {reprlib.repr(rec)}"
        )
    try:
        return rec[key]
    except KeyError:
        raise TranscriptFormatError(f"{path + '.' if path else ''}{key} is missing") from None


def _pair(raw, table: tuple, path: str):
    """The interned code or index of a JSON pair of bits (ints 0/1, not booleans)."""
    if isinstance(raw, list) and len(raw) == 2 and all(type(b) is int and b in (0, 1) for b in raw):
        return table[2 * raw[0] + raw[1]]
    raise TranscriptFormatError(f"{path} must be a pair of bits, got {reprlib.repr(raw)}")


def _mode(raw, path: str) -> Mode:
    mode = _MODES.get(raw) if isinstance(raw, str) else None
    if mode is None:
        raise TranscriptFormatError(
            f"{path} must be one of {tuple(_MODES)}, got {reprlib.repr(raw)}"
        )
    return mode


def _announcement_from_record(rec, path: str) -> Announcement:
    speaker = _get(rec, "speaker", path)
    kind = _get(rec, "kind", path)
    raw = _get(rec, "payload", path)
    if speaker not in SPEAKERS:
        raise TranscriptFormatError(
            f"{path}.speaker must be one of {SPEAKERS}, got {reprlib.repr(speaker)}"
        )
    if kind == MODE_REVEAL:
        payload = _mode(raw, f"{path}.payload")
    elif kind == OUTCOME_REVEAL:
        payload = _pair(raw, ALL_INDICES, f"{path}.payload")
    elif kind == OP_REVEAL:
        payload = _pair(raw, ALL_CODES, f"{path}.payload")
    elif kind == RECEIPT_ACK:
        if raw is not None:
            raise TranscriptFormatError(
                f"{path}.payload of {kind} must be null, got {reprlib.repr(raw)}"
            )
        payload = None
    else:
        raise TranscriptFormatError(
            f"{path}.kind must be one of {ANNOUNCEMENT_KINDS}, got {reprlib.repr(kind)}"
        )
    return Announcement(speaker, kind, payload)


def _describe(announcements) -> str:
    return "[" + ", ".join(f"{a.speaker} {a.kind}" for a in announcements) + "]"


def _eve_from_record(raw, announcements) -> EveReport | None:
    """Eve's report, which only the replay attacker files, so it must be the
    one her inference of Alice's code and the announcements give."""
    if raw is None:
        return None
    alice = _pair(_get(raw, "inferred_alice", "eve"), ALL_CODES, "eve.inferred_alice")
    report = replay_report(alice, announcements)
    for key, expected in (
        ("inferred_bob_private", None),
        ("inferred_bob_public", report.inferred_bob_public),
    ):
        raw_code = _get(raw, key, "eve")
        code = None if raw_code is None else _pair(raw_code, ALL_CODES, f"eve.{key}")
        if code != expected:
            raise TranscriptFormatError(
                f"eve.{key} must be {json.dumps(_code_pair(expected))} "
                f"for this round, got {json.dumps(raw_code)}"
            )
    return report


def record_to_transcript(rec: dict) -> RoundTranscript:
    """Rebuild a transcript from its serialized record.

    Raises ``TranscriptFormatError`` naming the first field that is missing,
    mistyped, or inconsistent with the rest of the round.
    """
    round_id = _get(rec, "round_id", "")
    if type(round_id) is not int or round_id < 0:
        raise TranscriptFormatError(
            f"round_id must be a non-negative integer, got {reprlib.repr(round_id)}"
        )
    protocol = _get(rec, "protocol", "")
    if protocol not in PROTOCOLS:
        raise TranscriptFormatError(
            f"protocol must be one of {PROTOCOLS}, got {reprlib.repr(protocol)}"
        )
    modes = _get(rec, "modes", "")
    bob_mode = _mode(_get(modes, "bob", "modes"), "modes.bob")
    alice_mode = _mode(_get(modes, "alice", "modes"), "modes.alice")
    codes = _get(rec, "codes", "")
    bob_code = _pair(_get(codes, "bob", "codes"), ALL_CODES, "codes.bob")
    alice_code = _pair(_get(codes, "alice", "codes"), ALL_CODES, "codes.alice")
    outcome = _pair(_get(rec, "outcome", ""), ALL_INDICES, "outcome")
    raw_announcements = _get(rec, "announcements", "")
    if not isinstance(raw_announcements, list):
        raise TranscriptFormatError(
            f"announcements must be a JSON array, got {reprlib.repr(raw_announcements)}"
        )
    announcements = tuple(
        _announcement_from_record(a, f"announcements[{i}]")
        for i, a in enumerate(raw_announcements)
    )
    check = _get(rec, "check", "")
    check_performed = _get(check, "check_performed", "check")
    if type(check_performed) is not bool:
        raise TranscriptFormatError(
            f"check.check_performed must be true or false, got {reprlib.repr(check_performed)}"
        )
    check_passed = _get(check, "check_passed", "check")
    kind = f"{protocol} round with modes bob={bob_mode.value}, alice={alice_mode.value}"
    # an original round may have kept its outcome reveal off the public channel
    keys = [(protocol, bob_mode, alice_mode, suppressed) for suppressed in (False, True)]
    # without an outcome reveal to suppress, both keys name one row
    rows = list(dict.fromkeys(ROW_NUMBER[key] for key in keys if key in ROW_NUMBER))
    if not rows:
        raise TranscriptFormatError(f"modes.bob: there is no {kind}")
    values = (bob_mode, alice_mode, bob_code, alice_code, outcome)
    sequences = [announcements_for(ROWS[row][1], values) for row in rows]
    if announcements not in sequences:
        raise TranscriptFormatError(
            f"announcements must be {' or '.join(map(_describe, sequences))} for a {kind}, "
            f"got {_describe(announcements)}"
        )
    eve = _eve_from_record(_get(rec, "eve", ""), announcements)
    row = rows[sequences.index(announcements)]
    inferred = None if eve is None else ALL_CODES.index(eve.inferred_alice)
    shape = shape_id(row, ALL_CODES.index(bob_code), ALL_CODES.index(alice_code),
                     ALL_INDICES.index(outcome), inferred)
    t = shaped_transcript(round_id, shape)
    if check_performed is not t.check_performed:
        raise TranscriptFormatError(
            f"check.check_performed must be {json.dumps(t.check_performed)} for a {kind}, "
            f"got {json.dumps(check_performed)}"
        )
    if check_passed is not t.check_passed:
        raise TranscriptFormatError(
            f"check.check_passed must be {json.dumps(t.check_passed)} for this round, "
            f"got {reprlib.repr(check_passed)}"
        )
    return t


# -- the line codec, per round shape (see the module docstring)

_LINE_HEAD = '{"round_id":'
TAILS: dict[int, str] = {}  # shape id -> the line after '{"round_id":N'
# a line's tail after its first comma, with no newline -> the fields of the
# first round parsed with it, whose shape id object every hit shares
_PARSED: dict[str, dict] = {}


def _reference_line(t: RoundTranscript) -> str:
    return json.dumps(transcript_to_record(t), separators=(",", ":"))


def transcript_to_line(t: RoundTranscript) -> str:
    """The canonical JSON line of a transcript (compact, keys in schema order)."""
    shape = t.shape
    if shape is None:  # a hand-built or replaced transcript: its fields may be anything
        return _reference_line(t)
    try:
        return _LINE_HEAD + str(t.round_id) + TAILS[shape]
    except KeyError:
        line = _reference_line(t)
        TAILS[shape] = line[line.index(",") :]
        return line


def _parse(line: str) -> RoundTranscript:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TranscriptFormatError(f"line is not a JSON value: {exc}") from None
    return record_to_transcript(record)


def parse_transcript_line(line: str) -> RoundTranscript:
    """Parse one JSON line (an optional trailing newline included).

    Raises ``TranscriptFormatError`` on a malformed line.  A canonical head
    is '{"round_id":' and 1 to 18 ASCII digits 0-9 with no leading zero, up
    to the line's first comma; a longer id always takes the full parse,
    which also keeps int() far from its digit limit.  Once the head is
    canonical, whether the line is valid and canonical depends only on its
    tail, so a tail in the map is the canonical line of a round that
    already passed the full parse.  Hit or miss, a parsed line is a copy of
    its shape's fields, so all rounds of a shape hold one shape id object.
    """
    head, _, tail = line.removesuffix("\n").partition(",")
    digits = head[12:]  # 12 == len(_LINE_HEAD)
    # a str is all ASCII digits iff it is isdigit() and isascii(): "٧" and
    # "７" are digits that int() reads, but not JSON
    if not (head[:12] == _LINE_HEAD and digits.isdigit() and digits.isascii()
            and len(digits) <= 18 and (len(digits) == 1 or digits[0] != "0")):
        return _parse(line)
    fields = _PARSED.get(tail)
    if fields is not None:
        fields = fields.copy()
        fields["round_id"] = int(digits)
        t = _new_object(RoundTranscript)
        _set_fields(t, fields)
        return t
    t = _parse(line)
    if head + "," + tail == transcript_to_line(t):
        _PARSED[tail] = t.__dict__.copy()
    return t
