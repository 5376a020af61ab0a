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
shape implies, with ``TranscriptFormatError``, naming the field.

The lines of a run differ almost only in round_id: a run has a few dozen to
a few hundred distinct "tails", the canonical line after '{"round_id":N'.
``transcript_to_line`` caches the tail on every field but round_id, and
``parse_transcript_line`` caches those fields on the tail, each in a
``functools.lru_cache`` of at most ``MEMO_CAP`` entries; a miss runs the
reference path, and the parser caches only canonical tails.
"""

from __future__ import annotations

import functools
import json
import re
import reprlib
from dataclasses import fields
from operator import attrgetter

from .adversary import EveReport, replay_report
from .bell_core import ALL_CODES, ALL_INDICES, BellIndex, PauliCode
from .protocol import (
    ANNOUNCEMENT_KINDS,
    MODE_REVEAL,
    OP_REVEAL,
    OUTCOME_REVEAL,
    POLICY,
    PROTOCOLS,
    RECEIPT_ACK,
    SPEAKERS,
    SUPPRESSED_POLICY,
    Announcement,
    Mode,
    RoundTranscript,
    _announce,
    announcements_for,
    transcript_for,
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
            "inferred_bob_private": _code_pair(t.eve_report.inferred_bob_private),
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
    return _announce(speaker, kind, payload)


def _describe(announcements) -> str:
    return "[" + ", ".join(f"{a.speaker} {a.kind}" for a in announcements) + "]"


def _eve_from_record(raw, announcements) -> EveReport | None:
    """Eve's report, which only the replay attacker files, so it must be the
    one her inference of Alice's code and the announcements give."""
    if raw is None:
        return None
    alice = _pair(_get(raw, "inferred_alice", "eve"), ALL_CODES, "eve.inferred_alice")
    report = replay_report(alice, announcements)
    for key in ("inferred_bob_private", "inferred_bob_public"):
        raw_code = _get(raw, key, "eve")
        code = None if raw_code is None else _pair(raw_code, ALL_CODES, f"eve.{key}")
        if code != getattr(report, key):
            raise TranscriptFormatError(
                f"eve.{key} must be {json.dumps(_code_pair(getattr(report, key)))} "
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
    shape = f"{protocol} round with modes bob={bob_mode.value}, alice={alice_mode.value}"
    key = (protocol, bob_mode, alice_mode)
    policy = POLICY.get(key)
    if policy is None:
        raise TranscriptFormatError(f"modes.bob: there is no {shape}")
    values = (bob_mode, alice_mode, bob_code, alice_code, outcome)
    # an original round may have kept its outcome reveal off the public channel
    rows = (policy, SUPPRESSED_POLICY.get(key))
    sequences = [announcements_for(row, values) for row in rows if row is not None]
    if announcements not in sequences:
        raise TranscriptFormatError(
            f"announcements must be {' or '.join(map(_describe, sequences))} for a {shape}, "
            f"got {_describe(announcements)}"
        )
    eve = _eve_from_record(_get(rec, "eve", ""), announcements)
    t = transcript_for(policy, round_id, protocol, values, announcements, eve)
    if check_performed is not t.check_performed:
        raise TranscriptFormatError(
            f"check.check_performed must be {json.dumps(t.check_performed)} for a {shape}, "
            f"got {json.dumps(check_performed)}"
        )
    if check_passed is not t.check_passed:
        raise TranscriptFormatError(
            f"check.check_passed must be {json.dumps(t.check_passed)} for this round, "
            f"got {reprlib.repr(check_passed)}"
        )
    return t


# -- the line codec, cached on everything but round_id (see the module docstring)

_LINE_HEAD = '{"round_id":'
_ZERO_HEAD = _LINE_HEAD + "0"
# a canonical head: no sign, no leading zero; ids of 19 digits or more always
# take the full parse, which also keeps int() far from its digit limit
_CANONICAL_HEAD = re.compile(r'\{"round_id":(0|[1-9][0-9]{0,17})')
MEMO_CAP = 1024  # entries per cache; the least recently used goes first
# the RoundTranscript fields after round_id, in constructor order
_fields_after_round_id = attrgetter(*[f.name for f in fields(RoundTranscript)][1:])


def _reference_line(t: RoundTranscript) -> str:
    return json.dumps(transcript_to_record(t), separators=(",", ":"))


@functools.lru_cache(maxsize=MEMO_CAP, typed=True)
def _line_tail(*fields_after_round_id) -> str:
    # typed: a bool and an int hash alike but serialize differently
    return _reference_line(RoundTranscript(0, *fields_after_round_id))[len(_ZERO_HEAD) :]


def transcript_to_line(t: RoundTranscript) -> str:
    """The canonical JSON line of a transcript (compact, keys in schema order)."""
    round_id = t.round_id
    if type(round_id) is not int:  # str(True) is not "true"
        return _reference_line(t)
    try:
        tail = _line_tail(*_fields_after_round_id(t))
    except TypeError:  # unhashable or unserializable: only the reference path can say
        return _reference_line(t)
    return _LINE_HEAD + str(round_id) + tail


def _parse(line: str) -> RoundTranscript:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TranscriptFormatError(f"line is not a JSON value: {exc}") from None
    return record_to_transcript(record)


@functools.lru_cache(maxsize=MEMO_CAP)
def _canonical_fields(tail: str) -> tuple:
    """The fields after round_id of the line '{"round_id":0' + ``tail`` if it
    is canonical, optionally with one newline; raises for any other tail, and
    an exception is never cached."""
    line = _ZERO_HEAD + tail
    t = _parse(line)
    canonical = _reference_line(t)
    if line != canonical and line != canonical + "\n":
        raise TranscriptFormatError("line is not canonical")
    return _fields_after_round_id(t)


def parse_transcript_line(line: str) -> RoundTranscript:
    """Parse one JSON line (an optional trailing newline included).

    Raises ``TranscriptFormatError`` on a malformed line.  Once the head has
    given canonical id digits, whether the line is valid and canonical
    depends only on its tail, so a cached tail is the canonical line of a
    transcript that already passed the full parse.
    """
    head = _CANONICAL_HEAD.match(line)
    if head is not None:
        try:
            return RoundTranscript(int(head[1]), *_canonical_fields(line[head.end() :]))
        except TranscriptFormatError:
            pass  # the full parse reads a non-canonical line or names the fault
    return _parse(line)
