"""The round engine against a statevector reference round.

The engine plays a round on state ids (positions in ``bell_core.REACHABLE``)
with one leg function per strategy and reads its row by position.  The
reference here plays the same rows on ``TwoQubitState``s: ``bell_state``,
``apply_pauli``, ``measure_computational`` and ``bell_measure``, a cursor
handing out the row's uniforms in order, and the four strategies spelled
out on states.  It builds each transcript field by field from the round's
``POLICY`` row.  Both must give the same transcripts, field for field, and
the same shape ids; a row too short for its round must raise
``RowOverdrawError`` on both.
"""

from collections import deque
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given, settings

from qdialogue.adversary import (
    BELL_SUBSTITUTION,
    DISTURBANCE,
    MEASURE_RESEND,
    STRATEGIES,
    replay_report,
)
from qdialogue.bell_core import (
    ALL_CODES,
    ALL_INDICES,
    BellIndex,
    Qubit,
    apply_pauli,
    bell_measure,
    bell_state,
    decode_bits,
    measure_computational,
    random_code,
)
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

TRAVEL = Qubit.TRAVEL


class RowCursor:
    """One round's uniforms, handed out in order by ``random()``."""

    def __init__(self, row):
        self._next = iter(row).__next__

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            raise RowOverdrawError("the reference read past the end of its row") from None


def reference_exchange(strategy, bob, alice, rng):
    """Bob's outcome and Eve's inference of Alice's code (or None), on states."""
    state = apply_pauli(bell_state(BellIndex(0, 0)), bob, TRAVEL)
    if strategy == MEASURE_RESEND:  # Eve taps the travel qubit on its way out
        _, state = measure_computational(state, TRAVEL, rng)
    elif strategy == BELL_SUBSTITUTION:  # Eve keeps Bob's pair, hands Alice her own
        stored, eve_code = state, random_code(rng)
        state = bell_state(BellIndex(eve_code.k, eve_code.l))
    state = apply_pauli(state, alice, TRAVEL)
    inferred = None
    if strategy == DISTURBANCE:  # a random code on the way back
        state = apply_pauli(state, random_code(rng), TRAVEL)
    elif strategy == BELL_SUBSTITUTION:  # read Alice's code, replay it on Bob's pair
        eve_outcome, _ = bell_measure(state, rng)
        inferred = decode_bits(eve_outcome, eve_code)
        state = apply_pauli(stored, inferred, TRAVEL)
    outcome, _ = bell_measure(state, rng)
    return outcome, inferred


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


texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


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
)
def test_engine_rounds_match_the_statevector_reference(
    protocol, strategy, p_cm, seed, first_round, rounds, suppress, alice_text, bob_text, cut
):
    config = RunConfig(protocol=protocol, strategy=strategy, p_cm=p_cm, seed=seed,
                       alice_text=alice_text, bob_text=bob_text,
                       suppress_outcome_reveal=suppress)
    rows = list(uniform_rows(seed, first_round, first_round + rounds))
    if cut is not None:  # a short last row: both overdraw it, or neither does
        rows[-1] = rows[-1][:cut]
    engine, engine_overdrew = played(rounds_from_rows(config, rows, first_round))
    reference, reference_overdrew = played(reference_rounds(config, rows, first_round))
    assert engine_overdrew == reference_overdrew
    assert len(engine) == len(reference) >= rounds - 1
    for got, (expected, shape) in zip(engine, reference):
        assert list(got.__dict__.items()) == [*expected.__dict__.items(), ("shape", shape)]
        assert got == expected and got.shape == shape
