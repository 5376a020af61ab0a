"""Acceptance suite: one test per criterion, run at the stated tolerances.

Prints one pass/fail line per criterion; run it with

    pytest tests/test_acceptance.py -v -s

Monte Carlo gates use 1e5 rounds and the 3-sigma binomial rule; exhaustive
gates enumerate every branch and assert exactly.  A shared module cache
keeps each large run to a single execution.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from conftest import BIT_PAIRS, PSI00, U_ORACLE, on_travel, oracle_bell, uniforms

from qdialogue.adversary import BELL_SUBSTITUTION, NONE, STRATEGIES
from qdialogue.bell_core import (
    ALL_CODES,
    ALL_INDICES,
    BellIndex,
    PauliCode,
    apply_pauli,
    bell_measure,
    bell_state,
    overlap,
)
from qdialogue.cli import main
from qdialogue.harness import (
    RunConfig,
    exact_oracle,
    iter_rounds,
    parse_transcript_line,
    summarize,
    transcript_to_line,
)
from qdialogue.protocol import (
    MODIFIED,
    ORIGINAL,
    OUTCOME_REVEAL,
    PROTOCOLS,
    Mode,
    round_key,
    run_round_modified,
    run_round_original,
)

MC_ROUNDS = 100_000


@contextmanager
def criterion(num, message):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {message}")
        raise
    print(f"\n[PASS] criterion {num}: {message}")


@pytest.fixture(scope="module")
def mc():
    """Cache of full-size Monte Carlo summaries keyed by configuration.

    A run's rounds are streamed into its summary, so no run holds its
    transcripts.
    """
    cache = {}

    def get(protocol, strategy, p_cm=0.5, seed=11, rounds=MC_ROUNDS):
        key = (protocol, strategy, p_cm, seed, rounds)
        if key not in cache:
            cache[key] = summarize(iter_rounds(
                RunConfig(protocol=protocol, strategy=strategy, rounds=rounds, p_cm=p_cm, seed=seed)
            ))
        return cache[key]

    return get


def three_sigma(p, n):
    return 3 * (p * (1 - p) / n) ** 0.5


def test_criterion_1_honest_completeness_original():
    with criterion(1, "original protocol honest completeness, exhaustive and exact"):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                key = round_key(NONE, 2 * k + l, 2 * i + j, uniforms(0))
                mm = run_round_original(Mode.MM, NONE, key)
                assert mm.outcome == BellIndex(k ^ i, l ^ j)
                assert mm.bob_decoded == PauliCode(i, j)
                assert mm.alice_decoded == PauliCode(k, l)
                cm = run_round_original(Mode.CM, NONE, key)
                assert cm.outcome == BellIndex(k ^ i, l ^ j)
                assert cm.check_passed is True


def test_criterion_2_honest_completeness_modified():
    with criterion(2, "modified protocol honest completeness and announcement discipline"):
        for bob_mode in (Mode.MM, Mode.CM):
            for alice_mode in (Mode.MM, Mode.CM):
                for k, l in BIT_PAIRS:
                    for i, j in BIT_PAIRS:
                        t = run_round_modified(
                            bob_mode,
                            alice_mode,
                            NONE,
                            round_key(NONE, 2 * k + l, 2 * i + j, uniforms(0)),
                        )
                        assert t.outcome == BellIndex(k ^ i, l ^ j)
                        kinds = [a.kind for a in t.announcements]
                        if bob_mode is Mode.CM and alice_mode is Mode.CM:
                            assert t.check_passed is True
                            assert kinds.count("op-reveal") == 2
                            assert OUTCOME_REVEAL in kinds
                        elif bob_mode is Mode.MM and alice_mode is Mode.MM:
                            assert t.bob_decoded == PauliCode(i, j)
                            assert t.alice_decoded == PauliCode(k, l)
                        elif alice_mode is Mode.CM:
                            assert t.alice_decoded == PauliCode(k, l)
                        else:  # Alice=MM, Bob=CM: nothing beyond the mode reveals
                            assert t.bob_decoded == PauliCode(i, j)
                            assert OUTCOME_REVEAL not in kinds
                            assert "op-reveal" not in kinds


def test_criterion_3_replay_attack_reproduction(mc):
    with criterion(3, "replay attack: Eve exact on Alice, detection exactly 0"):
        # exhaustive over all 64 (bob, eve, alice) combinations; Eve's
        # code ALL_CODES[floor(4u)] is the first uniform the channel reads
        for k, l in BIT_PAIRS:
            for ek, el in BIT_PAIRS:
                for i, j in BIT_PAIRS:
                    row = [(2 * ek + el + 0.5) / 4, *uniforms(1)]
                    key = round_key(BELL_SUBSTITUTION, 2 * k + l, 2 * i + j, row)
                    t = run_round_original(Mode.CM, BELL_SUBSTITUTION, key)
                    assert t.eve_report.inferred_alice == PauliCode(i, j)
                    assert t.check_passed is True

        # Monte Carlo at 1e5 rounds: both rates are exact, not approximate
        summary = mc(ORIGINAL, BELL_SUBSTITUTION)
        assert summary.checks_performed > 0
        assert summary.detection_rate == 0.0
        assert summary.eve_alice_accuracy == 1.0

        # and at a second seed, smaller but still exact
        other = summarize(iter_rounds(
            RunConfig(strategy=BELL_SUBSTITUTION, rounds=20_000, p_cm=0.5, seed=99)
        ))
        assert other.detection_rate == 0.0
        assert other.eve_alice_accuracy == 1.0


def test_criterion_4_baseline_attacks_detectable(mc):
    with criterion(4, "baselines: disturbance caught 3/4, measure-resend 1/2"):
        assert exact_oracle(ORIGINAL, "disturbance").detection_probability == Fraction(3, 4)
        assert exact_oracle(ORIGINAL, "measure-resend").detection_probability == Fraction(1, 2)

        for strategy, p in (("disturbance", 0.75), ("measure-resend", 0.5)):
            summary = mc(ORIGINAL, strategy, p_cm=1.0)  # 1e5 checking rounds
            assert summary.checks_performed == MC_ROUNDS
            assert abs(summary.detection_rate - p) <= three_sigma(p, summary.checks_performed)


def test_criterion_5_pauli_bell_algebra():
    with criterion(5, "composition, orthonormality and encoding law at stated tolerances"):
        # all 16 composition pairs: two encodings in turn on the travel
        # qubit against the direct matrix product, sign included
        for ko, lo in BIT_PAIRS:
            for ki, li in BIT_PAIRS:
                inner = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(ki, li))
                got = apply_pauli(inner, PauliCode(ko, lo))
                product = on_travel(U_ORACLE[(ko, lo)] @ U_ORACLE[(ki, li)]) @ PSI00
                assert np.max(np.abs(got.amps - product)) <= 1e-12

        # Bell basis orthonormality
        for a in ALL_INDICES:
            for b in ALL_INDICES:
                inner = overlap(bell_state(a), bell_state(b))
                assert abs(inner - (1.0 if a == b else 0.0)) <= 1e-9

        # encoding law, exhaustive, up to a unit-modulus global phase
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                got = apply_pauli(bell_state(BellIndex(k, l)), PauliCode(i, j))
                inner = overlap(bell_state(BellIndex(i ^ k, j ^ l)), got)
                assert abs(abs(inner) - 1.0) <= 1e-9


def test_criterion_6_sampling_correctness():
    with criterion(6, "Bell measurement frequencies match Born probabilities at 1e5 draws"):
        draws = MC_ROUNDS

        # anchor pair after each of the four encodings: deterministic outcome
        for code in ALL_CODES:
            state = apply_pauli(bell_state(BellIndex(0, 0)), code)
            rng = np.random.default_rng(17)
            hits = sum(
                bell_measure(state, rng)[0] == BellIndex(code.k, code.l) for _ in range(draws)
            )
            assert hits == draws  # p = 1, so 3 sigma = 0

        # product states: Born weights from the matrix oracle, then frequencies
        for ket, label in ((np.array([0, 1, 0, 0]), "|01>"), (np.array([1, 0, 0, 0]), "|00>")):
            from qdialogue.bell_core import TwoQubitState

            expected = {
                BellIndex(x, y): abs(np.vdot(oracle_bell(x, y), ket.astype(complex))) ** 2
                for x, y in BIT_PAIRS
            }
            state = TwoQubitState(ket.astype(complex))
            rng = np.random.default_rng(29)
            counts = {idx: 0 for idx in ALL_INDICES}
            for _ in range(draws):
                outcome, _ = bell_measure(state, rng)
                counts[outcome] += 1
            for idx, p in expected.items():
                freq = counts[idx] / draws
                tolerance = three_sigma(p, draws) if 0 < p < 1 else 0.0
                assert abs(freq - p) <= tolerance, f"{label} outcome {idx}"


def test_criterion_7_modified_protocol_replay_evaluation(mc):
    oracle = exact_oracle(MODIFIED, BELL_SUBSTITUTION)
    summary = mc(MODIFIED, BELL_SUBSTITUTION)
    detection = float(oracle.detection_probability)
    with criterion(
        7,
        "modified protocol vs replay attack: oracle detection probability "
        f"= {oracle.detection_probability} (measured {summary.detection_rate:.6f} "
        f"over {summary.checks_performed} checks)",
    ):
        assert summary.checks_performed > 0
        tolerance = three_sigma(detection, summary.checks_performed)
        assert abs(summary.detection_rate - detection) <= tolerance
        # Eve's read of Alice is also oracle-exact (probability 1)
        assert summary.eve_alice_accuracy == float(oracle.eve_alice_accuracy_exact)


def test_criterion_8_determinism_and_round_trip(capsys):
    with criterion(8, "determinism, dialogue round-trip, lossless transcript parsing"):
        config = RunConfig(
            protocol=MODIFIED, strategy=BELL_SUBSTITUTION, rounds=10_000, p_cm=0.5, seed=42
        )
        t1 = list(iter_rounds(config))
        t2 = list(iter_rounds(config))
        assert summarize(t1) == summarize(t2)
        lines1 = "\n".join(transcript_to_line(t) for t in t1)
        lines2 = "\n".join(transcript_to_line(t) for t in t2)
        assert lines1 == lines2

        # dialogue text round-trips exactly under the transparent channel
        code = main(["dialogue", "--attack", "none", "--alice-text", "hi", "--bob-text", "ok"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bob recovered  'hi'" in out
        assert "alice recovered 'ok'" in out

        # every emitted line parses back losslessly
        for protocol in PROTOCOLS:
            for strategy in STRATEGIES:
                for t in iter_rounds(
                    RunConfig(protocol=protocol, strategy=strategy, rounds=400, p_cm=0.5, seed=3)
                ):
                    assert parse_transcript_line(transcript_to_line(t)) == t


def test_oracle_monte_carlo_agreement_grid(mc):
    """Harness invariant: every (protocol, strategy) pair agrees with the oracle."""
    with criterion(
        "grid", "oracle vs Monte Carlo at 1e5 rounds for all protocol/strategy pairs"
    ):
        for protocol in PROTOCOLS:
            for strategy in STRATEGIES:
                oracle = exact_oracle(protocol, strategy)
                summary = mc(protocol, strategy)
                p = float(oracle.detection_probability)
                n = summary.checks_performed
                assert n > 0
                assert abs(summary.detection_rate - p) <= max(three_sigma(p, n), 0.0)
                if oracle.eve_alice_accuracy_exact is None:
                    assert summary.eve_alice_accuracy is None
                else:
                    q = float(oracle.eve_alice_accuracy_exact)
                    m = summary.rounds_total
                    assert abs(summary.eve_alice_accuracy - q) <= max(three_sigma(q, m), 0.0)
