"""The round tables: what a simulated round looks up, checked against the legs.

Every ``CDF`` entry and tap ``P(1)`` is a multiple of 1/4, so a round reads
each of its uniforms only through its quarter bin, and ``protocol`` plays a
round as one lookup in a table derived from ``adversary.LEGS``.  These tests
pin that table three ways: its build refuses tables that are not constant
on quarter bins, its exact law is the oracle's, and on rows at the bins'
edges it plays every round as the legs composed directly do.
"""

from fractions import Fraction
from itertools import product
from math import nextafter

import pytest

from qdialogue import adversary as adversary_mod
from qdialogue import protocol as protocol_mod
from qdialogue.adversary import BELL_SUBSTITUTION, LEGS, MEASURE_RESEND, STRATEGIES
from qdialogue.bell_core import ALL_CODES, ALL_INDICES, CDF, PAULI, TAP, bell_outcome
from qdialogue.harness import exact_oracle
from qdialogue.protocol import (
    MODIFIED,
    ORIGINAL,
    PROTOCOLS,
    ROW_NUMBER,
    Mode,
    run_round_modified,
    run_round_original,
    shape_id,
    shaped_transcript,
)

# a uniform at every quarter's edges in [0, 1): its lower end k/4 and the
# last float below it; a uniform of 1.0 lies outside a row's contract
EDGES = (0.0, *(k / 4 for k in range(1, 4)), *(nextafter(k / 4, 0) for k in range(1, 5)))


def reads(strategy):
    """How many uniforms a round under ``strategy`` reads after the codes."""
    _, forward_reads, _, back_reads = LEGS[strategy]
    return forward_reads + back_reads + 1


def reference_round(row, bob, alice, strategy, uniforms, round_id=0):
    """The legs composed directly, one call per step, as a round was played
    before the tables: the forward leg, Alice's encoding, the return leg and
    Bob's measurement read ``uniforms`` from the start."""
    forward, forward_reads, back, back_reads = LEGS[strategy]
    state, memory = forward(PAULI[0][bob], uniforms[0])
    state, inferred = back(PAULI[state][alice], uniforms[forward_reads], memory)
    outcome = bell_outcome(CDF[state], uniforms[forward_reads + back_reads])
    return shaped_transcript(round_id, shape_id(row, bob, alice, outcome, inferred))


def table_law(strategy):
    """{(bob, alice, outcome, inferred alice or None): exact probability} of a
    round that looks its shape up in the table: 1/16 per code pair and 1/4
    per quarter bin of each uniform the round reads."""
    table, back_at, measure_at = protocol_mod._round_table(strategy)
    n = measure_at + 1
    law = {}
    for bob, alice in product(range(4), repeat=2):
        for bins in product(range(4), repeat=n):
            local = table[bob][bins[0]][alice][bins[back_at]][bins[measure_at]]
            rest, eve = divmod(local, 5)
            rest, outcome = divmod(rest, 4)
            assert divmod(rest, 4) == (bob, alice)  # row 0, the round's own codes
            key = (bob, alice, outcome, None if eve == 0 else eve - 1)
            law[key] = law.get(key, 0) + Fraction(1, 16 * 4**n)
    return law


class TestTabulationGuard:
    @staticmethod
    def _off_quarter(table, state, entry):
        """``table`` with ``state``'s row starting at 0.3, inside a quarter bin."""
        row = list(table[state])
        row[entry] = 0.3
        return (*table[:state], tuple(row), *table[state + 1:])

    @pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != MEASURE_RESEND])
    def test_a_cdf_entry_off_the_quarters_is_refused(self, strategy, monkeypatch):
        # Bob measures Bell state 0 in some round of each of these strategies
        monkeypatch.setattr(protocol_mod, "_ROUND_TABLES", {})
        monkeypatch.setattr(protocol_mod, "CDF", self._off_quarter(CDF, 0, 0))
        with pytest.raises(RuntimeError, match="measurement changes inside the quarter bin"):
            protocol_mod._round_table(strategy)
        assert protocol_mod._ROUND_TABLES == {}

    def test_a_tap_probability_off_the_quarters_is_refused(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "_ROUND_TABLES", {})
        monkeypatch.setattr(adversary_mod, "TAP", self._off_quarter(TAP, 0, 0))
        with pytest.raises(RuntimeError, match="forward leg changes inside the quarter bin"):
            protocol_mod._round_table(MEASURE_RESEND)

    def test_eves_cdf_entry_off_the_quarters_is_refused(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "_ROUND_TABLES", {})
        monkeypatch.setattr(adversary_mod, "CDF", self._off_quarter(CDF, 0, 0))
        with pytest.raises(RuntimeError, match="return leg changes inside the quarter bin"):
            protocol_mod._round_table(BELL_SUBSTITUTION)

    def test_the_tables_are_built_on_first_use(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "_ROUND_TABLES", {})
        run_round_original(1, Mode.MM, 2, MEASURE_RESEND, [0.1, 0.6])
        assert list(protocol_mod._ROUND_TABLES) == [MEASURE_RESEND]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_table_law_is_the_exact_oracle(protocol, strategy):
    """The law of exactly what the engine plays, enumerated over its table
    with Fraction weights, is ``exact_oracle``'s; the oracle's branches are
    bit arithmetic, so the two derivations share nothing."""
    distribution = {}
    pass_prob = eve_hits = eve_total = Fraction(0)
    for (bob, alice, outcome, inferred), weight in table_law(strategy).items():
        cell = distribution.setdefault((ALL_CODES[bob], ALL_CODES[alice]), {})
        cell[ALL_INDICES[outcome]] = cell.get(ALL_INDICES[outcome], 0) + 16 * weight
        if outcome == bob ^ alice:  # the honest index passes a check
            pass_prob += weight
        if inferred is not None:
            eve_total += weight
            eve_hits += weight if inferred == alice else 0
    oracle = exact_oracle(protocol, strategy)
    assert distribution == oracle.outcome_distribution
    assert pass_prob == oracle.check_pass_probability
    assert (eve_hits / eve_total if eve_total else None) == oracle.eve_alice_accuracy_exact


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rounds_at_the_quarter_edges_match_the_legs(strategy):
    """Seeded rows almost never land on a bin's edge; these rows put every
    uniform the round reads on one, in every combination."""
    rounds = [
        *((ROW_NUMBER[ORIGINAL, Mode.MM, mode, suppressed],
           lambda b, a, u, mode=mode, suppressed=suppressed: run_round_original(
               b, mode, a, strategy, u, suppress_outcome_reveal=suppressed))
          for mode in Mode for suppressed in (False, True)),
        *((ROW_NUMBER[MODIFIED, bob_mode, alice_mode, False],
           lambda b, a, u, bob_mode=bob_mode, alice_mode=alice_mode: run_round_modified(
               bob_mode, b, alice_mode, a, strategy, u))
          for bob_mode in Mode for alice_mode in Mode),
    ]
    for uniforms in product(EDGES, repeat=reads(strategy)):
        for bob, alice in product(range(4), repeat=2):
            for row, play in rounds:
                t = play(bob, alice, uniforms)
                expected = reference_round(row, bob, alice, strategy, uniforms)
                assert (t, t.shape) == (expected, expected.shape), (uniforms, bob, alice, row)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_bin_outside_the_quarters_is_refused(strategy):
    """A uniform outside [0, 1), or a code outside 0-3, reaches no other
    key's entry: the round raises, at every position it reads."""
    n = reads(strategy)
    bad_uniforms = (1.0, 1.25, -0.25, -0.1, -1.0, float("inf"), float("nan"))
    for position, bad in product(range(n), bad_uniforms):
        uniforms = [0.5] * n
        uniforms[position] = bad
        with pytest.raises(ValueError, match="uniforms lie in"):
            run_round_original(1, Mode.MM, 2, strategy, uniforms)
    for code in (4, -1):
        with pytest.raises(ValueError, match="codes must be 0-3"):
            run_round_modified(Mode.MM, code, Mode.CM, 0, strategy, [0.5] * n)
        with pytest.raises(ValueError, match="codes must be 0-3"):
            run_round_modified(Mode.MM, 0, Mode.CM, code, strategy, [0.5] * n)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_short_row_still_runs_out(strategy):
    # the round reads the same positions the legs did, so one uniform
    # fewer is an IndexError, which the harness reports as an overdraw
    with pytest.raises(IndexError):
        run_round_original(0, Mode.MM, 0, strategy, [0.5] * (reads(strategy) - 1))
