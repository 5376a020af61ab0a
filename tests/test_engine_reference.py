"""The round engine against a statevector reference round.

The engine plays a round on state ids (positions in ``bell_core.REACHABLE``)
with one leg function per strategy and reads its row by position.  The
reference here plays the same rows on plain amplitude vectors built from
conftest's literal-matrix oracle (``U_ORACLE``, ``on_travel``,
``oracle_bell``), with its own Born sampling, so it shares no code with the
package's amplitude functions or the tables built from them.  A cursor
hands out the row's uniforms in order, and the four strategies are spelled
out on vectors.  It builds each transcript field by field from the round's
``POLICY`` row.  Both must give the same transcripts, field for field, and
the same shape ids; a row too short for its round must raise
``RowOverdrawError`` on both.  The engine plays rows in blocks, so the
property also draws texts that outlast a block, and blocks of a few rows,
so that runs and text queues cross block edges.
"""

from collections import deque
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import BIT_PAIRS, TRAVEL_BIT, U_ORACLE, on_travel, oracle_bell
from hypothesis import given, settings

from qdialogue import harness
from qdialogue.adversary import (
    BELL_SUBSTITUTION,
    DISTURBANCE,
    MEASURE_RESEND,
    STRATEGIES,
    replay_report,
)
from qdialogue.bell_core import ALL_CODES, ALL_INDICES, decode_bits
from qdialogue.harness import (
    ROW_WIDTH,
    RowOverdrawError,
    RunConfig,
    rounds_from_rows,
    text_to_codes,
    uniform_rows,
)
from qdialogue.protocol import (
    ORIGINAL,
    OUTCOME_REVEAL,
    POLICY,
    PROTOCOLS,
    ROW_NUMBER,
    ROWS,
    Mode,
    RoundTranscript,
    announcements_for,
    cm_check,
    shape_id,
)


class RowCursor:
    """One round's uniforms, handed out in order by ``random()``."""

    def __init__(self, row):
        self._next = iter(row).__next__

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            raise RowOverdrawError("the reference read past the end of its row") from None


def encode(amps, code):
    """U_code on the travel qubit, from the literal matrices."""
    return on_travel(U_ORACLE[(code.k, code.l)]) @ amps


def random_code(rng):
    """The code ALL_CODES[floor(4u)] of the next uniform."""
    return ALL_CODES[int(4 * rng.random())]


def tap(amps, rng):
    """Measure the travel bit (1 iff u < P(1)) and renormalize what is kept."""
    p_one = float(np.sum(np.abs(amps[TRAVEL_BIT == 1]) ** 2))
    kept = np.where(TRAVEL_BIT == int(rng.random() < p_one), amps, 0)
    return kept / np.linalg.norm(kept)


def bell_sample(amps, rng):
    """The Bell outcome of the inverse Born CDF at the next uniform: the
    first whose cumulative weight exceeds u * total, else the last."""
    cdf = np.cumsum([abs(np.vdot(oracle_bell(x, y), amps)) ** 2 for x, y in BIT_PAIRS])
    u = rng.random()
    return ALL_INDICES[next((i for i, c in enumerate(cdf[:3]) if u * cdf[-1] < c), 3)]


def reference_exchange(strategy, bob, alice, rng):
    """Bob's outcome and Eve's inference of Alice's code (or None), on vectors."""
    state = encode(oracle_bell(0, 0), bob)
    if strategy == MEASURE_RESEND:  # Eve taps the travel qubit on its way out
        state = tap(state, rng)
    elif strategy == BELL_SUBSTITUTION:  # Eve keeps Bob's pair, hands Alice her own
        stored, eve_code = state, random_code(rng)
        state = oracle_bell(eve_code.k, eve_code.l)
    state = encode(state, alice)
    inferred = None
    if strategy == DISTURBANCE:  # a random code on the way back
        state = encode(state, random_code(rng))
    elif strategy == BELL_SUBSTITUTION:  # read Alice's code, replay it on Bob's pair
        inferred = decode_bits(bell_sample(state, rng), eve_code)
        state = encode(stored, inferred)
    return bell_sample(state, rng), inferred


def reference_rounds(config, rows, first_round):
    alice_queue = deque(text_to_codes(config.alice_text))
    bob_queue = deque(text_to_codes(config.bob_text))
    original = config.protocol == ORIGINAL
    for i, row in enumerate(rows, first_round):
        rng = RowCursor(row)
        bob_mode = Mode.MM if original else (Mode.CM if rng.random() < config.p_cm else Mode.MM)
        alice_mode = Mode.CM if rng.random() < config.p_cm else Mode.MM
        policy = POLICY[config.protocol, bob_mode, alice_mode]
        # a code carries a message iff the other party decodes it
        bob = bob_queue.popleft() if policy.alice_decodes and bob_queue else random_code(rng)
        alice = alice_queue.popleft() if policy.bob_decodes and alice_queue else random_code(rng)
        outcome, inferred = reference_exchange(config.strategy, bob, alice, rng)
        reveals = policy.reveals
        if original and config.suppress_outcome_reveal:
            reveals = tuple(r for r in reveals if r[1] != OUTCOME_REVEAL)
        announcements = announcements_for(
            replace(policy, reveals=reveals), (bob_mode, alice_mode, bob, alice, outcome)
        )
        t = RoundTranscript(
            i, config.protocol, bob_mode, alice_mode, bob, alice, outcome, announcements,
            policy.checks,
            cm_check(outcome, bob, alice) if policy.checks else None,
            decode_bits(outcome, bob) if policy.bob_decodes else None,
            decode_bits(outcome, alice) if policy.alice_decodes else None,
            None if inferred is None else replay_report(inferred, announcements),
        )
        key = (config.protocol, bob_mode, alice_mode, config.suppress_outcome_reveal and original)
        row_number = ROW_NUMBER[key]
        assert ROWS[row_number][1].reveals == reveals
        shape = shape_id(
            row_number, ALL_CODES.index(bob), ALL_CODES.index(alice),
            ALL_INDICES.index(outcome), None if inferred is None else ALL_CODES.index(inferred),
        )
        yield t, shape


def played(rounds):
    """The rounds an iterator yields, and whether it then overdrew its row."""
    out = []
    try:
        for item in rounds:
            out.append(item)
    except RowOverdrawError:
        return out, True
    return out, False


# up to 12 characters, 48 or more codes: enough to outlast a block of a few rows
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    strategy=st.sampled_from(STRATEGIES),
    p_cm=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    seed=st.integers(0, 2**64 - 1),
    first_round=st.integers(0, 10**6),
    rounds=st.integers(1, 40),
    suppress=st.booleans(),
    alice_text=texts,
    bob_text=texts,
    cut=st.one_of(st.none(), st.integers(0, ROW_WIDTH - 1)),
    block_rows=st.one_of(st.none(), st.integers(2, 5)),
)
def test_engine_rounds_match_the_statevector_reference(
    protocol, strategy, p_cm, seed, first_round, rounds, suppress, alice_text, bob_text, cut,
    block_rows,
):
    config = RunConfig(protocol=protocol, strategy=strategy, p_cm=p_cm, seed=seed,
                       alice_text=alice_text, bob_text=bob_text,
                       suppress_outcome_reveal=suppress)
    rows = list(uniform_rows(seed, first_round, first_round + rounds))
    if cut is not None:  # a short last row: both overdraw it, or neither does
        rows[-1] = rows[-1][:cut]
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:  # blocks of a few rows: a run crosses block edges
            patch.setattr(harness, "BLOCK_ROWS", block_rows)
        engine, engine_overdrew = played(rounds_from_rows(config, rows, first_round))
    reference, reference_overdrew = played(reference_rounds(config, rows, first_round))
    assert engine_overdrew == reference_overdrew
    assert len(engine) == len(reference) >= rounds - 1
    for got, (expected, shape) in zip(engine, reference):
        assert list(got.__dict__.items()) == [*expected.__dict__.items(), ("shape", shape)]
        assert got == expected and got.shape == shape
