"""Unit tests for the two-qubit substrate.

Derived expectations are computed with the independent 4x4 matrix oracle
from conftest (literal Pauli matrices plus np.kron); the package's own
operator tables never feed the expected values.
"""

import numpy as np
import pytest
from conftest import (
    BIT_PAIRS,
    PSI00,
    TRAVEL_BIT,
    U_ORACLE,
    codes,
    on_travel,
    oracle_bell,
    seeds,
    two_qubit_states,
)
import hypothesis.strategies as st
from hypothesis import assume, given, settings

from qdialogue import bell_core
from qdialogue.bell_core import (
    ALL_CODES,
    ALL_INDICES,
    NORM_ATOL,
    REACHABLE,
    BellIndex,
    PauliCode,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_state,
    decode_bits,
    measure_computational,
    overlap,
    phase_class,
    random_code,
)
from qdialogue.adversary import STRATEGIES
from qdialogue.harness import RunConfig, iter_rounds
from qdialogue.protocol import PROTOCOLS

INV_SQRT2 = 0.7071067811865476


class _FixedRng:
    """Stand-in generator returning a preset uniform draw."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class TestBellState:
    def test_anchor_pair_amplitudes(self):
        amps = bell_state(BellIndex(0, 0)).amps
        np.testing.assert_allclose(amps, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12)

    def test_x_encoded_pair(self):
        # oracle: (I (x) X) on the anchor pair
        expected = on_travel(U_ORACLE[(0, 1)]) @ PSI00
        np.testing.assert_allclose(expected, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)
        np.testing.assert_allclose(bell_state(BellIndex(0, 1)).amps, expected, atol=1e-12)

    def test_z_encoded_pair(self):
        expected = on_travel(U_ORACLE[(1, 1)]) @ PSI00
        np.testing.assert_allclose(expected, [0, -INV_SQRT2, INV_SQRT2, 0], atol=1e-12)
        np.testing.assert_allclose(bell_state(BellIndex(1, 1)).amps, expected, atol=1e-12)

    @pytest.mark.parametrize("x, y", BIT_PAIRS)
    def test_matches_matrix_oracle(self, x, y):
        np.testing.assert_allclose(
            bell_state(BellIndex(x, y)).amps, oracle_bell(x, y), atol=1e-12
        )

    def test_orthonormal_basis(self):
        for a in ALL_INDICES:
            for b in ALL_INDICES:
                inner = overlap(bell_state(a), bell_state(b))
                expected = 1.0 if a == b else 0.0
                assert abs(inner - expected) <= 1e-9

    def test_amplitudes_are_read_only(self):
        state = bell_state(BellIndex(0, 0))
        with pytest.raises(ValueError):
            state.amps[0] = 1.0


class TestApplyPauli:
    def test_identity_leaves_state_unchanged(self):
        state = bell_state(BellIndex(0, 0))
        out = apply_pauli(state, PauliCode(0, 0))
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_x_on_travel_gives_x_pair(self):
        out = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(0, 1))
        np.testing.assert_allclose(out.amps, bell_state(BellIndex(0, 1)).amps, atol=1e-12)

    def test_iy_on_travel_gives_y_pair_up_to_phase(self):
        out = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(1, 0))
        expected = oracle_bell(1, 0)  # (|00> - |11>)/sqrt(2)
        np.testing.assert_allclose(expected, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12)
        inner = np.vdot(expected, out.amps)
        assert abs(abs(inner) - 1.0) <= 1e-9

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_matches_matrix_oracle_on_anchor(self, code):
        expected = on_travel(U_ORACLE[(code.k, code.l)]) @ PSI00
        got = apply_pauli(bell_state(BellIndex(0, 0)), code)
        np.testing.assert_allclose(got.amps, expected, atol=1e-12)

    def test_encoding_law_exhaustive(self):
        # U_ij on the travel qubit of pair (k,l) lands on pair (i^k, j^l)
        # up to a unit phase; check against direct matrix products.
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                got = apply_pauli(bell_state(BellIndex(k, l)), PauliCode(i, j))
                expected = on_travel(U_ORACLE[(i, j)]) @ oracle_bell(k, l)
                np.testing.assert_allclose(got.amps, expected, atol=1e-12)
                inner = overlap(bell_state(BellIndex(i ^ k, j ^ l)), got)
                assert abs(abs(inner) - 1.0) <= 1e-9

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_a_code_applied_twice_is_its_square(self, code):
        # U^2 = I for I, X and Z but (iY)^2 = -I: the sign is kept exactly
        square = U_ORACLE[tuple(code)] @ U_ORACLE[tuple(code)]
        sign = -1 if code == PauliCode(1, 0) else 1
        np.testing.assert_allclose(square, sign * np.eye(2), atol=1e-12)
        for x, y in BIT_PAIRS:
            got = apply_pauli(apply_pauli(bell_state(BellIndex(x, y)), code), code)
            np.testing.assert_allclose(got.amps, sign * oracle_bell(x, y), atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), codes, codes)
    def test_codes_in_turn_match_the_matrix_product(self, state, inner, outer):
        got = apply_pauli(apply_pauli(state, inner), outer)
        product = on_travel(U_ORACLE[tuple(outer)] @ U_ORACLE[tuple(inner)])
        np.testing.assert_allclose(got.amps, product @ state.amps, atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), codes)
    def test_norm_preserved_on_random_states(self, state, code):
        out = apply_pauli(state, code)
        assert abs(np.vdot(out.amps, out.amps).real - 1.0) <= 1e-9


class TestBellMeasure:
    @pytest.mark.parametrize("idx", ALL_INDICES)
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_eigenstates_are_deterministic(self, idx, seed):
        rng = np.random.default_rng(seed)
        outcome, post = bell_measure(bell_state(idx), rng)
        assert outcome == idx
        np.testing.assert_allclose(post.amps, bell_state(idx).amps, atol=1e-12)

    def test_product_state_splits_evenly(self):
        # |01> expands over the Bell basis with weight 1/2 on (0,0) and (1,1)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        weights = {
            (x, y): abs(np.vdot(oracle_bell(x, y), ket01)) ** 2 for x, y in BIT_PAIRS
        }
        assert weights[(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(0, 1)] == pytest.approx(0.0, abs=1e-12)
        assert weights[(1, 0)] == pytest.approx(0.0, abs=1e-12)

        rng = np.random.default_rng(5)
        state = TwoQubitState(ket01)
        counts = {idx: 0 for idx in ALL_INDICES}
        n = 4000
        for _ in range(n):
            outcome, _ = bell_measure(state, rng)
            counts[outcome] += 1
        assert counts[BellIndex(0, 1)] == 0
        assert counts[BellIndex(1, 0)] == 0
        sigma = (0.25 / n) ** 0.5
        assert abs(counts[BellIndex(0, 0)] / n - 0.5) <= 3 * sigma

    def test_encoded_anchor_is_deterministic(self):
        state = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(1, 1))
        expected = on_travel(U_ORACLE[(1, 1)]) @ PSI00
        probs = {  # projection oracle
            (x, y): abs(np.vdot(oracle_bell(x, y), expected)) ** 2 for x, y in BIT_PAIRS
        }
        assert probs[(1, 1)] == pytest.approx(1.0, abs=1e-12)
        for seed in range(5):
            outcome, _ = bell_measure(state, np.random.default_rng(seed))
            assert outcome == BellIndex(1, 1)

    @settings(max_examples=60)
    @given(two_qubit_states(), seeds)
    def test_collapse_lands_on_bell_state_and_repeats(self, state, seed):
        rng = np.random.default_rng(seed)
        outcome, post = bell_measure(state, rng)
        np.testing.assert_allclose(post.amps, bell_state(outcome).amps, atol=1e-12)
        again, _ = bell_measure(post, rng)
        assert again == outcome


class TestMeasureComputational:
    def test_basis_state_is_deterministic(self):
        state = TwoQubitState([0, 1, 0, 0])  # |01>
        bit, post = measure_computational(state, np.random.default_rng(0))
        assert bit == 1
        np.testing.assert_allclose(post.amps, [0, 1, 0, 0], atol=1e-12)

    def test_anchor_travel_is_fifty_fifty(self):
        rng = np.random.default_rng(12)
        n = 4000
        ones = 0
        for _ in range(n):
            bit, _ = measure_computational(bell_state(BellIndex(0, 0)), rng)
            ones += bit
        sigma = (0.25 / n) ** 0.5
        assert abs(ones / n - 0.5) <= 3 * sigma

    def test_collapse_renormalizes(self):
        # projection oracle: keeping travel=1 from the anchor pair leaves |01>
        kept = PSI00 * np.array([0, 1, 0, 1])
        expected = kept / np.linalg.norm(kept)
        np.testing.assert_allclose(expected, [0, 1, 0, 0], atol=1e-12)

        bit, post = measure_computational(
            bell_state(BellIndex(0, 0)), _FixedRng(0.3)
        )
        assert bit == 1
        np.testing.assert_allclose(post.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("u, bit", [(0.1, 1), (0.9, 0)])
    def test_home_qubit_keeps_its_superposition(self, u, bit):
        # a product of (|0> + i|1>)/sqrt(2) at home and a travel qubit with
        # P(1) = 0.7: reading the travel bit leaves the home qubit as it was
        home = np.array([1, 1j]) / np.sqrt(2)
        travel = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        state = TwoQubitState(np.kron(home, travel))
        got, post = measure_computational(state, _FixedRng(u))
        assert got == bit
        np.testing.assert_allclose(post.amps, np.kron(home, np.eye(2)[bit]), atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), seeds)
    def test_repeat_measurement_is_stable(self, state, seed):
        rng = np.random.default_rng(seed)
        bit, post = measure_computational(state, rng)
        bit2, post2 = measure_computational(post, rng)
        assert bit2 == bit
        np.testing.assert_allclose(post2.amps, post.amps, atol=1e-12)


class TestDecodeBits:
    def test_zero_own_code_reads_outcome_directly(self):
        assert decode_bits(BellIndex(1, 0), PauliCode(0, 0)) == PauliCode(1, 0)

    def test_all_zero(self):
        assert decode_bits(BellIndex(0, 0), PauliCode(0, 0)) == PauliCode(0, 0)

    def test_mixed(self):
        assert decode_bits(BellIndex(1, 1), PauliCode(0, 1)) == PauliCode(1, 0)

    def test_inverse_law_exhaustive(self):
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                outcome = BellIndex(i ^ k, j ^ l)
                assert decode_bits(outcome, PauliCode(k, l)) == PauliCode(i, j)


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            TwoQubitState([1, 1, 0, 0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TwoQubitState([float("nan"), 0, 0, 0])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            TwoQubitState([float("inf"), 0, 0, 0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4 amplitudes"):
            TwoQubitState([1, 0, 0])

    def test_rejects_bad_code_bits(self):
        with pytest.raises(ValueError):
            PauliCode(2, 0)
        with pytest.raises(ValueError):
            BellIndex(0, -1)


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        assert [random_code(a) for _ in range(100)] == [random_code(b) for _ in range(100)]

    def test_codes_cover_all_values(self):
        rng = np.random.default_rng(3)
        seen = {random_code(rng) for _ in range(200)}
        assert seen == set(ALL_CODES)


class TestMemoizedSteps:
    """The steps against the plain numpy computation from the oracle.

    The state functions compute on amplitudes, so random states, which lie
    outside REACHABLE, check them beyond the reachable classes.
    """

    @settings(max_examples=60)
    @given(two_qubit_states(), codes)
    def test_apply_pauli(self, state, code):
        expected = on_travel(U_ORACLE[(code.k, code.l)]) @ state.amps
        for _ in range(2):  # nothing is stored, so a repeat call agrees
            np.testing.assert_allclose(apply_pauli(state, code).amps, expected, atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), st.floats(0, 1, exclude_max=True))
    def test_bell_measure(self, state, u):
        probs = [abs(np.vdot(oracle_bell(x, y), state.amps)) ** 2 for x, y in BIT_PAIRS]
        cdf = np.cumsum(probs)
        first = next((i for i, c in enumerate(cdf) if u * cdf[-1] < c), 3)
        # skip draws within rounding of a CDF step, where either side is right
        assume(all(abs(u * cdf[-1] - c) >= 1e-9 for c in cdf))
        x, y = BIT_PAIRS[first]
        for _ in range(2):
            outcome, post = bell_measure(state, _FixedRng(u))
            assert outcome == BellIndex(x, y)
            np.testing.assert_allclose(post.amps, oracle_bell(x, y), atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), st.floats(0, 1, exclude_max=True))
    def test_measure_computational(self, state, u):
        p_one = float(np.sum(np.abs(state.amps[TRAVEL_BIT == 1]) ** 2))
        assume(abs(u - p_one) >= 1e-9)
        bit = int(u < p_one)
        kept = np.where(TRAVEL_BIT == bit, state.amps, 0)
        expected = kept / np.linalg.norm(kept)
        for _ in range(2):
            got, post = measure_computational(state, _FixedRng(u))
            assert got == bit
            np.testing.assert_allclose(post.amps, expected, atol=1e-9)


def same_class(a, b) -> bool:
    """Whether amplitude vectors ``a`` and ``b`` differ by a global phase at most."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= 1e-12


class TestStepTables:
    """The step tables built at import: closed, exact, and never written again."""

    def test_every_entry_matches_the_matrix_oracle(self):
        # a table holds one state per class up to global phase, so an image
        # or collapse matches the oracle's vector up to that phase
        for sid, state in enumerate(REACHABLE):
            assert len(bell_core.PAULI[sid]) == len(ALL_CODES)
            for code in ALL_CODES:
                image = REACHABLE[bell_core.PAULI[sid][2 * code.k + code.l]]
                assert same_class(image.amps, on_travel(U_ORACLE[(code.k, code.l)]) @ state.amps)
            probs = [abs(np.vdot(oracle_bell(x, y), state.amps)) ** 2 for x, y in BIT_PAIRS]
            np.testing.assert_allclose(bell_core.CDF[sid], np.cumsum(probs), atol=1e-12)
            p_one, *collapses = bell_core.TAP[sid]
            assert p_one == pytest.approx(np.sum(np.abs(state.amps[TRAVEL_BIT == 1]) ** 2))
            for bit, post in enumerate(collapses):
                kept = np.where(TRAVEL_BIT == bit, state.amps, 0)
                if np.vdot(kept, kept).real <= NORM_ATOL:
                    assert post is None
                else:
                    assert same_class(REACHABLE[post].amps, kept / np.linalg.norm(kept))

    def test_every_probability_is_exact(self):
        # two-qubit stabilizer states have Born weights in multiples of 1/4
        probabilities = [p for cdf in bell_core.CDF for p in cdf]
        probabilities += [entry[0] for entry in bell_core.TAP]
        assert all(4 * p == int(4 * p) and 0 <= p <= 1 for p in probabilities)
        assert all(cdf[-1] == 1.0 for cdf in bell_core.CDF)
        assert {entry[0] for entry in bell_core.TAP[:4]} == {0.5}

    def test_a_probability_off_the_quarters_is_refused(self):
        assert bell_core._exact(0.4999999999999999) == 0.5
        with pytest.raises(AssertionError, match="no multiple of 1/4"):
            bell_core._exact(0.3)

    def test_ids_are_classes_with_the_bell_states_first(self):
        # the round engine encodes on id 0 and hands Eve's Bell pair over as
        # the id of her code, so the Bell states must be ids 0-3 in order
        assert REACHABLE[:4] == tuple(bell_state(idx) for idx in ALL_INDICES)
        assert len(REACHABLE) == 8
        assert [bell_core.CLASS_ID[phase_class(state)] for state in REACHABLE] == list(range(8))
        for i, a in enumerate(REACHABLE):
            for b in REACHABLE[i + 1:]:
                assert not same_class(a.amps, b.amps)

    @pytest.mark.parametrize("phase", [1, -1, 1j, np.exp(0.3j)])
    def test_a_class_key_ignores_global_phase(self, phase):
        for state in REACHABLE:
            assert phase_class(TwoQubitState(phase * state.amps)) == phase_class(state)

    def test_state_functions_do_not_read_the_tables(self, monkeypatch):
        # the statevector route must stay independent of the engine's tables
        def steps():
            return [
                (apply_pauli(s, code).amps.tobytes(), bell_measure(s, _FixedRng(u)),
                 measure_computational(s, _FixedRng(u))[0])
                for s in REACHABLE for code in ALL_CODES for u in (0.0, 0.3, 0.6, 0.99)
            ]

        expected = steps()
        for name in ("REACHABLE", "CLASS_ID", "PAULI", "CDF", "TAP"):
            monkeypatch.setattr(bell_core, name, None)
        assert steps() == expected

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.9999999999999998, 1 - 2**-53])
    def test_no_uniform_draws_a_bit_of_probability_zero(self, u):
        # a state whose travel bit is certain has P(1) exactly 0.0 or 1.0, in
        # the table and from measure_computational on any member of its
        # class, so every uniform in [0, 1) draws the bit that has a collapse
        certain = [sid for sid, entry in enumerate(bell_core.TAP) if None in entry[1:]]
        assert certain
        for sid in certain:
            p_one, on_zero, on_one = bell_core.TAP[sid]
            assert p_one == (0.0 if on_one is None else 1.0)
            drawn = 0 if on_one is None else 1
            for phase in (1, -1):
                state = TwoQubitState(phase * REACHABLE[sid].amps)
                bit, post = measure_computational(state, _FixedRng(u))
                assert bit == drawn
                assert same_class(post.amps, REACHABLE[(on_zero, on_one)[drawn]].amps)

    def test_off_table_bit_within_tolerance_of_zero_is_never_drawn(self):
        tiny = 1e-6  # amplitude of the travel bit's 1 component: P(1) = 1e-12
        amps = [np.sqrt(1 - tiny**2), tiny, 0, 0]
        for u in (0.0, 1 - 2**-53):
            bit, post = measure_computational(TwoQubitState(amps), _FixedRng(u))
            assert bit == 0
            np.testing.assert_allclose(post.amps, [1, 0, 0, 0], atol=1e-9)

    def test_off_table_bit_within_tolerance_of_one_is_always_drawn(self):
        tiny = 1e-6  # amplitude of the travel bit's 0 component: P(1) = 1 - 1e-12
        amps = [tiny, np.sqrt(1 - tiny**2), 0, 0]
        for u in (0.0, 1 - 2**-53):
            bit, post = measure_computational(TwoQubitState(amps), _FixedRng(u))
            assert bit == 1
            np.testing.assert_allclose(post.amps, [0, 1, 0, 0], atol=1e-9)

    def test_runs_stay_on_the_tables(self, monkeypatch):
        constructed = []
        post_init = TwoQubitState.__post_init__

        def counting(self):
            constructed.append(self)
            post_init(self)

        monkeypatch.setattr(TwoQubitState, "__post_init__", counting)
        for protocol in PROTOCOLS:
            for strategy in STRATEGIES:
                for _ in iter_rounds(RunConfig(protocol, strategy, rounds=500, seed=4)):
                    pass
        assert constructed == []
        assert len(REACHABLE) == 8

    def test_state_functions_leave_the_tables_unchanged(self):
        def tables():
            return (REACHABLE, bell_core.PAULI, bell_core.CDF, bell_core.TAP,
                    dict(bell_core.CLASS_ID))

        before = tables()
        rng = np.random.default_rng(8)
        for _ in range(200):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = TwoQubitState(vec / np.linalg.norm(vec))
            apply_pauli(state, ALL_CODES[1])
            measure_computational(state, rng)
            bell_measure(state, rng)
        for state in REACHABLE:
            apply_pauli(state, ALL_CODES[2])
            measure_computational(state, rng)
            bell_measure(state, rng)
        assert tables() == before
