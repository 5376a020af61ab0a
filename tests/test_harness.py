"""Harness tests: config validation, determinism, metrics, oracle, serialization.

Full-size (1e5 round) oracle-vs-Monte-Carlo agreement lives in the
acceptance suite; here the runs are kept small for fast feedback.
"""

import io
import json
from collections import Counter
from itertools import accumulate, chain
from dataclasses import fields, replace
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qdialogue import harness
from qdialogue.adversary import BELL_SUBSTITUTION, STRATEGIES
from qdialogue.bell_core import BellIndex, PauliCode
from qdialogue.harness import (
    BLOCK_ROWS,
    LINES_PER_WRITE,
    ROW_WIDTH,
    SUMMARY_COLUMNS,
    ConfigurationError,
    RowOverdrawError,
    RunConfig,
    RunSummary,
    codes_to_text,
    delivered_codes,
    exact_oracle,
    iter_rounds,
    parse_transcript_line,
    rounds_from_rows,
    run_sessions,
    summarize,
    summary_to_record,
    tee_transcripts,
    text_to_codes,
    transcript_to_line,
    uniform_rows,
    write_summary,
    write_transcripts,
)
from qdialogue.protocol import (
    MODIFIED,
    N_SHAPES,
    ORIGINAL,
    POLICY,
    PROTOCOLS,
    Mode,
    RoundTranscript,
    shaped_transcript,
)


def dump(transcripts) -> str:
    sink = io.StringIO()
    write_transcripts(transcripts, sink)
    return sink.getvalue()


class TestConfigValidation:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            RunConfig(rounds=0).validate()

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_p_cm_out_of_range_rejected(self, p):
        with pytest.raises(ConfigurationError, match="p_cm"):
            RunConfig(p_cm=p).validate()

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            RunConfig(protocol="improved").validate()
        with pytest.raises(ConfigurationError, match="strategy"):
            RunConfig(strategy="clone").validate()

    def test_bool_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            RunConfig(rounds=True).validate()

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            RunConfig(seed=seed).validate()

    def test_large_seed_accepted(self):
        RunConfig(seed=2**64 - 1).validate()

    def test_run_sessions_validates_first(self):
        with pytest.raises(ConfigurationError):
            run_sessions(RunConfig(rounds=0))

    @pytest.mark.parametrize("field", ["alice_text", "bob_text"])
    @pytest.mark.parametrize("text", [None, b"hi", 7, ["hi"]])
    def test_non_str_text_rejected(self, field, text):
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{field: text}).validate()

    @pytest.mark.parametrize("field", ["alice_text", "bob_text"])
    def test_text_without_a_utf8_encoding_rejected(self, field):
        # a lone surrogate: what a non-UTF-8 command-line byte decodes to
        with pytest.raises(ConfigurationError, match=f"{field} cannot be encoded as UTF-8"):
            RunConfig(**{field: "ok\udcff"}).validate()

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.bool_(True)])
    def test_non_bool_suppress_outcome_reveal_rejected(self, value):
        with pytest.raises(ConfigurationError, match="suppress_outcome_reveal"):
            RunConfig(suppress_outcome_reveal=value).validate()


class TestDeterminism:
    def test_same_config_byte_identical(self):
        config = RunConfig(protocol=MODIFIED, strategy="bell-substitution", rounds=400, seed=42)
        s1, t1 = run_sessions(config)
        s2, t2 = run_sessions(config)
        assert s1 == s2
        assert dump(t1) == dump(t2)

    def test_different_seed_differs(self):
        a = dump(run_sessions(RunConfig(rounds=200, seed=1))[1])
        b = dump(run_sessions(RunConfig(rounds=200, seed=2))[1])
        assert a != b

    def test_rounds_are_order_independent_substreams(self):
        # a shorter run is a prefix of a longer one with the same seed
        long = dump(run_sessions(RunConfig(rounds=100, seed=9))[1])
        short = dump(run_sessions(RunConfig(rounds=60, seed=9))[1])
        assert long.startswith(short)


def advanced_rows(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the run's uniform stream, straight from numpy."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(start * ROW_WIDTH)
    return np.random.Generator(bit_generator).random((stop - start, ROW_WIDTH))


# texts of 2,880 and 720 codes (12 bytes a phrase): at p_cm 0.5 a party
# sends a code in about every other round, so the first outlasts a block of
# rows and the second runs out in the run's second block
LONG_TEXT = "ψ → noon " * 60
TEXTS = ["", "ok", "ψ → noon " * 15, LONG_TEXT]


class TestUniformStream:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(PROTOCOLS),
        st.sampled_from(STRATEGIES),
        st.integers(0, 2**64 - 1),
        st.integers(0, 1500),
        st.integers(1, 700),
    )
    def test_chunk_from_advanced_stream_matches_full_run(
        self, protocol, strategy, seed, start, length
    ):
        # covers chunks that start and end inside and across draw blocks
        config = RunConfig(
            protocol=protocol, strategy=strategy, rounds=start + length, p_cm=0.5, seed=seed
        )
        full = list(iter_rounds(config))
        rows = advanced_rows(seed, start, start + length)
        assert list(uniform_rows(seed, start, start + length)) == rows.tolist()
        chunk = list(rounds_from_rows(config, rows, start))
        assert chunk == full[start:]
        assert dump(chunk) == dump(full[start:])

    def test_chunks_merge_in_any_order(self):
        config = RunConfig(protocol=MODIFIED, strategy=BELL_SUBSTITUTION, rounds=900, seed=3)
        bounds = [(600, 900), (0, 250), (250, 600)]
        chunks = {a: list(rounds_from_rows(config, advanced_rows(3, a, b), a)) for a, b in bounds}
        merged = chunks[0] + chunks[250] + chunks[600]
        assert summarize(merged) == summarize(iter_rounds(config))

    @pytest.mark.parametrize(
        "fields, first_round, match",
        [
            ({"protocol": "bogus"}, 0, "protocol"),
            ({"p_cm": "0.5"}, 0, "p_cm"),
            ({"p_cm": 2.0}, 0, "p_cm"),
            ({"alice_text": None}, 0, "alice_text"),
            ({}, -3, "first_round"),
            ({}, True, "first_round"),
            ({}, 1.0, "first_round"),
        ],
        ids=["protocol", "p_cm-str", "p_cm-above-1", "text-none", "first-round-negative",
             "first-round-bool", "first-round-float"],
    )
    def test_chunk_rejects_a_bad_config_before_reading_a_row(self, fields, first_round, match):
        rows = iter([[0.5] * ROW_WIDTH])
        with pytest.raises(ConfigurationError, match=match):
            rounds_from_rows(RunConfig(**fields), rows, first_round)  # on the call, not on next()
        assert next(rows) == [0.5] * ROW_WIDTH

    @pytest.mark.parametrize(
        "start, stop, match",
        [(-5, 2, "start"), (True, 2, "start"), (1.0, 2, "start"), (3, 2, "stop"), (0, 2.0, "stop")],
        ids=["start-negative", "start-bool", "start-float", "stop-below-start", "stop-float"],
    )
    def test_uniform_rows_rejects_bad_bounds(self, start, stop, match):
        with pytest.raises(ConfigurationError, match=match):
            uniform_rows(0, start, stop)  # on the call, not on next()

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7", None])
    def test_uniform_rows_rejects_a_bad_seed(self, seed):
        # as RunConfig.validate does, before numpy sees it
        with pytest.raises(ConfigurationError, match="^seed must be a non-negative integer"):
            uniform_rows(seed, 0, 2)

    @pytest.mark.parametrize("rounds", [0, -5, True, 2.0])
    def test_iter_rounds_names_a_bad_rounds_before_the_row_bounds(self, rounds):
        with pytest.raises(ConfigurationError, match="^rounds must be"):
            iter_rounds(RunConfig(rounds=rounds))

    def test_empty_row_range_is_empty(self):
        assert list(uniform_rows(0, 5, 5)) == []

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p_cm", [0.0, 0.5, 1.0])
    def test_every_round_fits_in_a_row(self, protocol, strategy, p_cm):
        # iter_rounds hands each round a ROW_WIDTH row, and reading past it raises
        config = RunConfig(protocol=protocol, strategy=strategy, rounds=300, p_cm=p_cm, seed=1)
        assert summarize(iter_rounds(config)).rounds_total == 300

    def test_row_width_is_tight_enough_to_catch_an_overdraw(self):
        # a modified bell-substitution round reads 7 uniforms: 2 modes, 2
        # codes, Eve's code and her measurement, Bob's measurement
        config = RunConfig(protocol=MODIFIED, strategy=BELL_SUBSTITUTION, rounds=1)
        assert len(list(rounds_from_rows(config, [[0.5] * 7]))) == 1
        with pytest.raises(RowOverdrawError):
            list(rounds_from_rows(config, [[0.5] * 6]))

    def test_codes_modes_and_outcomes_follow_the_row(self):
        # original protocol: mode, Bob's code, Alice's code, Bob's measurement
        config = RunConfig(protocol=ORIGINAL, rounds=1, p_cm=0.5)
        (t,) = rounds_from_rows(config, [[0.49, 0.3, 0.99, 0.0]])
        assert t.alice_mode is Mode.CM  # 0.49 < p_cm
        assert t.bob_code == PauliCode(0, 1)  # floor(4 * 0.3) = 1
        assert t.alice_code == PauliCode(1, 1)  # floor(4 * 0.99) = 3
        assert t.outcome == BellIndex(1, 0)  # the honest XOR, with certainty

    @pytest.mark.parametrize(
        "protocol, position",
        [(ORIGINAL, 0), (ORIGINAL, 1), (ORIGINAL, 2),
         (MODIFIED, 0), (MODIFIED, 1), (MODIFIED, 2), (MODIFIED, 3)],
        ids=["original-alice-mode", "original-bob-code", "original-alice-code",
             "modified-bob-mode", "modified-alice-mode", "modified-bob-code",
             "modified-alice-code"],
    )
    @pytest.mark.parametrize("bad", [-0.2, 1.0, float("nan"), float("inf")])
    def test_a_code_uniform_outside_the_unit_interval_is_refused(self, protocol, position, bad):
        # a code is the quarter bin of its uniform, like every other draw, so
        # -0.2 is bin -1, not code 0, and no bad uniform becomes a code; nor
        # does a bad mode uniform read as CM (-0.2) or MM (1.0, nan, inf).
        # The modes come first in a row (an original round draws Alice's
        # only), then Bob's code and Alice's
        row = [0.9] * ROW_WIDTH  # both modes MM: both codes read a uniform
        row[position] = bad
        rounds = rounds_from_rows(RunConfig(protocol=protocol, rounds=1), [row], 7)
        with pytest.raises(ValueError, match="^round 7: codes must be 0-3"):
            next(rounds)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PROTOCOLS),
        st.sampled_from(STRATEGIES),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**64 - 1),
        st.booleans(),
        st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7]),
        st.sampled_from(TEXTS),
        st.sampled_from(TEXTS),
        st.lists(st.integers(1, 2 * BLOCK_ROWS), max_size=4),
    )
    def test_a_run_plays_as_its_rows_do_in_any_chunks(
        self, protocol, strategy, p_cm, seed, suppress, rounds, alice_text, bob_text, sizes
    ):
        # iter_rounds plays the run's stream in blocks; rounds_from_rows must
        # play the same rows, handed over in chunks of any size, as arrays or
        # lists, to the same rounds, text queues included
        config = RunConfig(protocol=protocol, strategy=strategy, rounds=rounds, p_cm=p_cm,
                           seed=seed, alice_text=alice_text, bob_text=bob_text,
                           suppress_outcome_reveal=suppress)
        run = [(t, t.shape) for t in iter_rounds(config)]
        bounds = sorted({0, rounds, *(end for end in accumulate(sizes) if end < rounds)})
        chunks = [advanced_rows(seed, a, b) for a, b in zip(bounds, bounds[1:])]
        chunks = [chunk if i % 2 else chunk.tolist() for i, chunk in enumerate(chunks)]
        rows = [(t, t.shape) for t in rounds_from_rows(config, chain.from_iterable(chunks))]
        assert rows == run
        if not (alice_text or bob_text):  # a chunk of a run without texts plays on its own
            played = [(t, t.shape) for a, chunk in zip(bounds, chunks)
                      for t in rounds_from_rows(config, chunk, a)]
            assert played == run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("defect", ["mode", "code", "channel", "short"])
@pytest.mark.parametrize("block_rows, bad", [(None, 1500), (3, 1500), (3, 1501)],
                         ids=["second-block", "block-start", "mid-block"])
def test_a_bad_row_past_a_block_edge_raises_after_the_rounds_before_it(
    protocol, defect, block_rows, bad, monkeypatch
):
    # row ``bad`` of 2000 has one defect; every earlier round is yielded
    # (and teed) as on the good rows, then the bad round raises its error,
    # numbered from first_round, and no later round is played
    if block_rows is not None:
        monkeypatch.setattr(harness, "BLOCK_ROWS", block_rows)
    first_round = 40
    config = RunConfig(protocol=protocol, strategy=BELL_SUBSTITUTION, p_cm=0.5,
                       alice_text=LONG_TEXT, bob_text="ok")
    rows = list(uniform_rows(9, 0, 2000))
    expected = list(rounds_from_rows(config, rows, first_round))[:bad]
    codes_at = 1 if protocol == ORIGINAL else 2  # the modes come first
    row = rows[bad]
    if defect == "mode":
        row[codes_at - 1] = 1.5
    elif defect == "code":  # Bob's 8-code text is long spent: his code reads a uniform
        row[codes_at] = -0.2
    elif defect == "channel":  # a channel uniform, whether or not Alice's code is from text
        row[codes_at + 2] = float("nan")
    else:
        rows[bad] = row[:codes_at + 1]
    error, match = (RowOverdrawError, f"^round {first_round + bad} read past the end of its row "
                    f"of {codes_at + 1} uniforms$") if defect == "short" else \
        (ValueError, f"^round {first_round + bad}: codes must be 0-3")
    for tee in (False, True):
        sink = io.StringIO()
        rounds = rounds_from_rows(config, iter(rows), first_round)
        if tee:
            rounds = tee_transcripts(rounds, sink)
        yielded = []
        with pytest.raises(error, match=match) as raised:
            for t in rounds:
                yielded.append(t)
        assert type(raised.value) is error
        assert yielded == expected
        assert [t.round_id for t in yielded] == list(range(first_round, first_round + bad))
        assert list(rounds) == []  # a run that raised is over
        if tee:
            assert sink.getvalue() == reference_lines(expected)


@pytest.mark.parametrize(
    "protocol, row, error",
    [(ORIGINAL, [0.9, 1.5, 0.3], RowOverdrawError), (ORIGINAL, [0.9, 1.5], RowOverdrawError),
     (ORIGINAL, [1.5], ValueError), (MODIFIED, [1.5, 0.3], ValueError),
     (MODIFIED, [1.5], RowOverdrawError), (ORIGINAL, [], RowOverdrawError)],
)
def test_a_round_meets_its_mode_range_then_its_overdraw_then_its_bin_range(protocol, row, error):
    # one rule for a row with more than one defect: a round checks its modes
    # (a row too short for them overdraws), then the length of its row, then
    # the range of its other uniforms.  So [0.9, 1.5, 0.3], whose code
    # uniform 1.5 is out of range and whose measurement is past its end,
    # overdraws
    rounds = rounds_from_rows(RunConfig(protocol=protocol), [row], 4)
    with pytest.raises(error, match="^round 4[ :]"):
        next(rounds)


@pytest.mark.parametrize("text", ["0.9", b"0.9"], ids=["str", "bytes"])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_a_row_of_text_is_refused_not_read_as_numbers(text, block_rows, monkeypatch):
    # numpy reads "0.9" and b"0.9" as 0.9, so such a row would play an MM
    # round; a row's values must be real numbers.  The rounds before it are
    # yielded, across a block edge too, and none after it
    if block_rows is not None:
        monkeypatch.setattr(harness, "BLOCK_ROWS", block_rows)
    with pytest.raises(TypeError, match="^round 0: "):
        list(rounds_from_rows(RunConfig(), [[text] * ROW_WIDTH]))
    good = list(uniform_rows(5, 0, 6))
    for bad in ([text] * ROW_WIDTH, [0.5] * (ROW_WIDTH - 1) + [text], text,
                [0.5, [0.5, 0.5]] + [0.5] * (ROW_WIDTH - 2)):
        rounds = rounds_from_rows(RunConfig(MODIFIED), good[:4] + [bad] + good[5:], 10)
        yielded = []
        with pytest.raises(TypeError, match="^round 14: a row's values must be real numbers"):
            for t in rounds:
                yielded.append(t)
        assert yielded == list(rounds_from_rows(RunConfig(MODIFIED), good[:4], 10))
        assert list(rounds) == []
    # a bool is a number: True is 1, outside [0, 1); so is a Fraction
    with pytest.raises(ValueError, match="^round 0: codes must be 0-3"):
        list(rounds_from_rows(RunConfig(), [[True] * ROW_WIDTH]))
    assert list(rounds_from_rows(RunConfig(), [[Fraction(9, 10)] * ROW_WIDTH])) \
        == list(rounds_from_rows(RunConfig(), [[0.9] * ROW_WIDTH]))


def shape(t):
    return (t.protocol, t.bob_mode, t.alice_mode)


class TestPolicyTable:
    def test_keys_are_the_shapes_the_harness_draws(self):
        # the first two uniforms of a row pick the modes: CM below p_cm, MM above
        drawn = set()
        for protocol in PROTOCOLS:
            config = RunConfig(protocol=protocol, strategy=BELL_SUBSTITUTION, rounds=4, p_cm=0.5)
            rows = [[u, v] + [0.5] * (ROW_WIDTH - 2) for u in (0.1, 0.9) for v in (0.1, 0.9)]
            drawn.update(shape(t) for t in rounds_from_rows(config, rows))
        assert drawn == set(POLICY)

    def test_every_row_either_checks_or_decodes(self):
        for key, row in POLICY.items():
            assert row.checks != (row.bob_decodes or row.alice_decodes), key

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_summary_buckets_count_the_shapes(self, protocol):
        config = RunConfig(protocol=protocol, rounds=2000, p_cm=0.4, seed=8)
        transcripts = list(iter_rounds(config))
        shapes = Counter(map(shape, transcripts))
        summary = summarize(transcripts)

        # a round is CM or MM when every party with a mode chose it, else mixed
        def count(*modes):  # rounds whose (bob_mode, alice_mode) is one of ``modes``
            return sum(n for (_, bob, alice), n in shapes.items() if (bob, alice) in modes)

        MM, CM = Mode.MM, Mode.CM
        if protocol == ORIGINAL:
            assert (summary.rounds_cm, summary.rounds_mm) == (count((MM, CM)), count((MM, MM)))
            assert summary.rounds_mixed == 0
        else:
            assert (summary.rounds_cm, summary.rounds_mm) == (count((CM, CM)), count((MM, MM)))
            assert summary.rounds_mixed == count((MM, CM), (CM, MM))
        assert sum(shapes.values()) == summary.rounds_total == 2000


class TestCountersAndRates:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(PROTOCOLS),
        st.sampled_from(STRATEGIES),
        st.integers(1, 60),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
    )
    def test_counters_reconcile_and_rates_bounded(self, protocol, strategy, rounds, p_cm, seed):
        config = RunConfig(protocol=protocol, strategy=strategy, rounds=rounds, p_cm=p_cm, seed=seed)
        summary, transcripts = run_sessions(config)
        assert summary.rounds_total == rounds == len(transcripts)
        assert summary.rounds_cm + summary.rounds_mm + summary.rounds_mixed == rounds
        if protocol == ORIGINAL:
            assert summary.rounds_mixed == 0
        assert summary.checks_failed <= summary.checks_performed
        for name in (
            "detection_rate",
            "alice_decode_accuracy",
            "bob_decode_accuracy",
            "eve_alice_accuracy",
            "eve_bob_public_accuracy",
        ):
            value = getattr(summary, name)
            assert value is None or 0.0 <= value <= 1.0


class TestRunExamples:
    def test_honest_run_is_clean(self):
        summary, _ = run_sessions(RunConfig(rounds=4000, p_cm=0.5, seed=42))
        assert summary.detection_rate == 0.0
        assert summary.alice_decode_accuracy == 1.0
        assert summary.bob_decode_accuracy == 1.0
        assert summary.eve_alice_accuracy is None

    def test_replay_attack_run(self):
        summary, _ = run_sessions(
            RunConfig(strategy="bell-substitution", rounds=4000, p_cm=0.5, seed=7)
        )
        assert summary.detection_rate == 0.0
        assert summary.eve_alice_accuracy == 1.0
        assert summary.eve_bob_public_accuracy == 1.0

    def test_disturbance_detection_near_three_quarters(self):
        summary, _ = run_sessions(
            RunConfig(strategy="disturbance", rounds=8000, p_cm=1.0, seed=1)
        )
        sigma = (0.75 * 0.25 / summary.checks_performed) ** 0.5
        assert abs(summary.detection_rate - 0.75) <= 4 * sigma

    def test_modified_mixed_round_decodes_one_way(self):
        summary, transcripts = run_sessions(
            RunConfig(protocol=MODIFIED, rounds=500, p_cm=0.5, seed=5)
        )
        assert summary.rounds_mixed > 0
        mixed = [t for t in transcripts if t.bob_mode is not t.alice_mode]
        assert all((t.bob_decoded is None) != (t.alice_decoded is None) for t in mixed)


class TestExactOracle:
    def test_transparent_channel(self):
        result = exact_oracle(ORIGINAL, "none")
        assert result.check_pass_probability == Fraction(1)
        assert result.eve_alice_accuracy_exact is None

    def test_disturbance(self):
        result = exact_oracle(ORIGINAL, "disturbance")
        assert result.check_pass_probability == Fraction(1, 4)
        assert result.detection_probability == Fraction(3, 4)

    def test_measure_resend(self):
        result = exact_oracle(ORIGINAL, "measure-resend")
        assert result.check_pass_probability == Fraction(1, 2)
        assert result.detection_probability == Fraction(1, 2)

    def test_bell_substitution(self):
        result = exact_oracle(ORIGINAL, "bell-substitution")
        assert result.check_pass_probability == Fraction(1)
        assert result.eve_alice_accuracy_exact == Fraction(1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_modified_matches_original_per_check(self, strategy):
        # the quantum flow ignores modes, so the per-check numbers agree
        a = exact_oracle(ORIGINAL, strategy)
        b = exact_oracle(MODIFIED, strategy)
        assert a.check_pass_probability == b.check_pass_probability
        assert a.eve_alice_accuracy_exact == b.eve_alice_accuracy_exact

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_distributions_sum_to_one_exactly(self, protocol, strategy):
        result = exact_oracle(protocol, strategy)
        assert len(result.outcome_distribution) == 16
        for cell in result.outcome_distribution.values():
            assert sum(cell.values(), Fraction(0)) == Fraction(1)

    def test_measure_resend_cell_distribution(self):
        # hand enumeration for bob=(0,0), alice=(0,0): the tap collapses the
        # anchor pair to |01> or |10>, both of which split over (0,0)/(1,1)
        result = exact_oracle(ORIGINAL, "measure-resend")
        cell = result.outcome_distribution[(PauliCode(0, 0), PauliCode(0, 0))]
        assert cell == {BellIndex(0, 0): Fraction(1, 2), BellIndex(1, 1): Fraction(1, 2)}

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            exact_oracle("improved", "none")
        with pytest.raises(ConfigurationError):
            exact_oracle(ORIGINAL, "clone")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_small_monte_carlo_agreement(self, strategy):
        # loose 4-sigma gate at small n; the 1e5-round 3-sigma gate is in
        # the acceptance suite
        oracle = exact_oracle(ORIGINAL, strategy)
        summary, _ = run_sessions(
            RunConfig(strategy=strategy, rounds=6000, p_cm=1.0, seed=13)
        )
        p = float(1 - oracle.check_pass_probability)
        n = summary.checks_performed
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(summary.detection_rate - p) <= max(4 * sigma, 1e-12)


class TestTextCodec:
    @pytest.mark.parametrize("text", ["hi", "ok", "Hello, dialogue!", "nachtüber → ψ"])
    def test_round_trip(self, text):
        assert codes_to_text(text_to_codes(text)) == text

    def test_four_codes_per_byte(self):
        assert len(text_to_codes("a")) == 4
        assert len(text_to_codes("ψ")) == 8  # two UTF-8 bytes

    def test_big_endian_packing(self):
        # 'h' = 0x68 = 01 10 10 00 as bit pairs
        assert text_to_codes("h") == [
            PauliCode(0, 1),
            PauliCode(1, 0),
            PauliCode(1, 0),
            PauliCode(0, 0),
        ]

    def test_trailing_partial_group_dropped(self):
        codes = text_to_codes("ab")
        assert codes_to_text(codes[:-1]) == "a"


class TestTextRoundTrip:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_texts_delivered_exactly(self, protocol):
        alice_text, bob_text = "meet at noon", "copy that"
        rounds = 4 * (len(alice_text) + len(bob_text))  # plenty of MM rounds
        config = RunConfig(
            protocol=protocol,
            strategy="none",
            rounds=rounds,
            p_cm=0.3,
            seed=21,
            alice_text=alice_text,
            bob_text=bob_text,
        )
        _, transcripts = run_sessions(config)
        to_bob = delivered_codes(transcripts, "bob")[: len(text_to_codes(alice_text))]
        to_alice = delivered_codes(transcripts, "alice")[: len(text_to_codes(bob_text))]
        assert codes_to_text(to_bob) == alice_text
        assert codes_to_text(to_alice) == bob_text


class TestSerialization:
    def test_fixed_top_level_keys(self):
        _, transcripts = run_sessions(RunConfig(rounds=3, seed=0))
        record = json.loads(transcript_to_line(transcripts[0]))
        assert list(record) == [
            "round_id",
            "protocol",
            "modes",
            "codes",
            "outcome",
            "announcements",
            "check",
            "eve",
        ]

    def test_honest_check_round_line(self):
        _, transcripts = run_sessions(RunConfig(rounds=50, p_cm=1.0, seed=4))
        line = transcript_to_line(transcripts[0])
        assert '"check_passed":true' in line

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_round_trip_parse_lossless(self, protocol, strategy):
        config = RunConfig(protocol=protocol, strategy=strategy, rounds=80, p_cm=0.5, seed=6)
        _, transcripts = run_sessions(config)
        for t in transcripts:
            assert parse_transcript_line(transcript_to_line(t)) == t

    def test_summary_csv_header_matches_field_order(self):
        summary, _ = run_sessions(RunConfig(rounds=20, seed=0))
        sink = io.StringIO()
        write_summary(summary, sink, format="csv")
        header = sink.getvalue().splitlines()[0]
        assert header == ",".join(SUMMARY_COLUMNS)
        assert SUMMARY_COLUMNS[:4] == ("rounds_total", "rounds_cm", "rounds_mm", "rounds_mixed")

    def test_summary_records_format_parses(self):
        summary, _ = run_sessions(RunConfig(rounds=20, seed=0))
        sink = io.StringIO()
        write_summary(summary, sink, format="records")
        record = json.loads(sink.getvalue())
        assert record == summary_to_record(summary)

    def test_summary_text_format_mentions_every_field(self):
        summary, _ = run_sessions(RunConfig(rounds=20, seed=0))
        sink = io.StringIO()
        write_summary(summary, sink, format="text")
        text = sink.getvalue()
        for name in SUMMARY_COLUMNS:
            assert name in text

    def test_unknown_format_rejected(self):
        summary, _ = run_sessions(RunConfig(rounds=5, seed=0))
        with pytest.raises(ConfigurationError, match="format"):
            write_summary(summary, io.StringIO(), format="yaml")


def reference_lines(transcripts) -> str:
    """The sink's text when every line is written on its own."""
    return "".join(transcript_to_line(t) + "\n" for t in transcripts)


class CountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.fixture(scope="module")
def thousand_rounds():
    return list(iter_rounds(RunConfig(MODIFIED, BELL_SUBSTITUTION, rounds=1000, seed=2)))


class TestTranscriptWriter:
    """Lines reach the sink in blocks of LINES_PER_WRITE, one write call each."""

    @pytest.mark.parametrize(
        "n", [0, 1, LINES_PER_WRITE - 1, LINES_PER_WRITE, LINES_PER_WRITE + 1, 1000]
    )
    def test_blocks_hold_the_per_line_text(self, thousand_rounds, n):
        transcripts = thousand_rounds[:n]
        sink = CountingSink()
        write_transcripts(transcripts, sink)
        assert sink.getvalue() == reference_lines(transcripts)
        assert sink.writes == -(-n // LINES_PER_WRITE)

    @pytest.mark.parametrize("stop", [1, LINES_PER_WRITE, LINES_PER_WRITE + 3])
    def test_a_closed_tee_has_written_every_yielded_line(self, thousand_rounds, stop):
        sink = io.StringIO()
        tee = tee_transcripts(thousand_rounds, sink)
        yielded = [next(tee) for _ in range(stop)]
        tee.close()
        assert sink.getvalue() == reference_lines(yielded)

    def test_an_upstream_error_passes_through_as_itself(self):
        rows = [[0.5] * ROW_WIDTH] * 3 + [[0.5]]  # the last row is too short
        sink = io.StringIO()
        yielded = []
        with pytest.raises(RowOverdrawError, match="round 3 ") as raised:
            for t in tee_transcripts(rounds_from_rows(RunConfig(MODIFIED), rows), sink):
                yielded.append(t)
        assert type(raised.value) is RowOverdrawError
        assert len(yielded) == 3
        assert sink.getvalue() == reference_lines(yielded)


def summary_of_contributions(transcripts) -> RunSummary:
    """The summary that summing ``_contribution`` over each transcript gives."""
    totals = [sum(column) for column in zip(*map(harness._contribution, transcripts))] or [0] * 15
    (total, cm, mm, mixed, checks, failed, alice_ok, alice_n, bob_ok, bob_n,
     eve_a_ok, eve_a_n, eve_b_ok, eve_b_n, throughput) = totals

    def rate(num, den):
        return num / den if den else None

    return RunSummary(total, cm, mm, mixed, checks, failed, rate(failed, checks),
                      rate(alice_ok, alice_n), rate(bob_ok, bob_n), rate(eve_a_ok, eve_a_n),
                      rate(eve_b_ok, eve_b_n), throughput)


def transcript_of(kind: str, shape: int, round_id: int) -> RoundTranscript:
    """A round of shape id ``shape``, built as ``kind`` says: shaped, by hand
    through ``__init__``, by ``replace``, or with an unhashable list of
    announcements; only a shaped one has a shape."""
    t = shaped_transcript(round_id, shape)
    if kind == "built":
        return RoundTranscript(**{f.name: getattr(t, f.name) for f in fields(t)})
    if kind == "replaced":
        return replace(t, round_id=round_id + 1)
    if kind == "unhashable":
        return replace(t, announcements=list(t.announcements))
    return t


class TestSummarize:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["shaped", "built", "replaced", "unhashable"]),
                           st.one_of(st.sampled_from([0, 7, 1234]), st.integers(0, N_SHAPES - 1))),
                 max_size=40),
        st.sampled_from([1, 2, 3, 7, None]),
        st.booleans(),
    )
    def test_a_summary_is_the_sum_of_its_transcripts_contributions(self, picks, chunk, lazily):
        # any mix and order of shaped and shapeless transcripts, in chunks of
        # any size (None: the default), summarizes as their contributions sum
        transcripts = [transcript_of(kind, shape, i) for i, (kind, shape) in enumerate(picks)]
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(harness, "SUMMARY_CHUNK", chunk)
            summary = summarize(iter(transcripts) if lazily else transcripts)
        assert summary == summary_of_contributions(transcripts)

    @pytest.mark.parametrize("extra", [-1, 0, 1, harness.SUMMARY_CHUNK + 3])
    def test_shapeless_transcripts_at_the_chunk_edges_are_counted(self, extra):
        rounds = harness.SUMMARY_CHUNK + extra
        transcripts = list(iter_rounds(RunConfig(MODIFIED, BELL_SUBSTITUTION, rounds, seed=4)))
        for i in {0, harness.SUMMARY_CHUNK - 1, harness.SUMMARY_CHUNK, rounds - 1} & set(range(rounds)):
            transcripts[i] = transcript_of("unhashable", transcripts[i].shape, i)
        assert summarize(iter(transcripts)) == summary_of_contributions(transcripts)
        assert summarize(transcripts).rounds_total == rounds

    def test_empty_iterable(self):
        summary = summarize([])
        assert summary.rounds_total == 0
        assert summary.detection_rate is None
        assert summary.throughput_bits == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_shapeless_copies_summarize_as_the_run_does(self, protocol):
        summary, transcripts = run_sessions(RunConfig(protocol, BELL_SUBSTITUTION, 300, seed=8))
        copies = [replace(t) for t in transcripts]  # equal, but without a shape
        assert {t.shape for t in copies} == {None}
        assert summarize(copies) == summary
        assert summarize(copies[:100] + transcripts[100:]) == summary

    def test_throughput_counts_delivered_message_bits(self):
        summary, transcripts = run_sessions(RunConfig(rounds=300, p_cm=0.4, seed=8))
        expected = 4 * sum(1 for t in transcripts if t.bob_decoded is not None)
        assert summary.throughput_bits == expected
