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
    U_ORACLE,
    codes,
    on_home,
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
    PhasedPauli,
    Qubit,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_state,
    compose,
    decode_bits,
    measure_computational,
    overlap,
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
        out = apply_pauli(state, PauliCode(0, 0), Qubit.TRAVEL)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_x_on_travel_gives_x_pair(self):
        out = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(0, 1), Qubit.TRAVEL)
        np.testing.assert_allclose(out.amps, bell_state(BellIndex(0, 1)).amps, atol=1e-12)

    def test_iy_on_travel_gives_y_pair_up_to_phase(self):
        out = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(1, 0), Qubit.TRAVEL)
        expected = oracle_bell(1, 0)  # (|00> - |11>)/sqrt(2)
        np.testing.assert_allclose(expected, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12)
        inner = np.vdot(expected, out.amps)
        assert abs(abs(inner) - 1.0) <= 1e-9

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("target", [Qubit.HOME, Qubit.TRAVEL])
    def test_matches_matrix_oracle_on_anchor(self, code, target):
        lift = on_travel if target is Qubit.TRAVEL else on_home
        expected = lift(U_ORACLE[(code.k, code.l)]) @ PSI00
        got = apply_pauli(bell_state(BellIndex(0, 0)), code, target)
        np.testing.assert_allclose(got.amps, expected, atol=1e-12)

    def test_encoding_law_exhaustive(self):
        # U_ij on the travel qubit of pair (k,l) lands on pair (i^k, j^l)
        # up to a unit phase; check against direct matrix products.
        for k, l in BIT_PAIRS:
            for i, j in BIT_PAIRS:
                got = apply_pauli(bell_state(BellIndex(k, l)), PauliCode(i, j), Qubit.TRAVEL)
                expected = on_travel(U_ORACLE[(i, j)]) @ oracle_bell(k, l)
                np.testing.assert_allclose(got.amps, expected, atol=1e-12)
                inner = overlap(bell_state(BellIndex(i ^ k, j ^ l)), got)
                assert abs(abs(inner) - 1.0) <= 1e-9

    @settings(max_examples=60)
    @given(two_qubit_states(), codes, st.sampled_from([Qubit.HOME, Qubit.TRAVEL]))
    def test_norm_preserved_on_random_states(self, state, code, target):
        out = apply_pauli(state, code, target)
        assert abs(np.vdot(out.amps, out.amps).real - 1.0) <= 1e-9


class TestCompose:
    def test_identity_composition(self):
        got = compose(PauliCode(0, 0), PauliCode(1, 0))
        assert got == PhasedPauli(PauliCode(1, 0), 1 + 0j)

    def test_x_after_iy(self):
        # sigma_x . (i sigma_y) = -sigma_z
        got = compose(PauliCode(0, 1), PauliCode(1, 0))
        assert got == PhasedPauli(PauliCode(1, 1), -1 + 0j)

    def test_iy_squared(self):
        got = compose(PauliCode(1, 0), PauliCode(1, 0))
        assert got == PhasedPauli(PauliCode(0, 0), -1 + 0j)

    def test_all_pairs_match_matrix_products(self):
        for ko, lo in BIT_PAIRS:
            for ki, li in BIT_PAIRS:
                got = compose(PauliCode(ko, lo), PauliCode(ki, li))
                assert got.code == PauliCode(ko ^ ki, lo ^ li)
                product = U_ORACLE[(ko, lo)] @ U_ORACLE[(ki, li)]
                rebuilt = got.phase * U_ORACLE[(got.code.k, got.code.l)]
                np.testing.assert_allclose(rebuilt, product, atol=1e-12)


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
        state = apply_pauli(bell_state(BellIndex(0, 0)), PauliCode(1, 1), Qubit.TRAVEL)
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
        bit, post = measure_computational(state, Qubit.TRAVEL, np.random.default_rng(0))
        assert bit == 1
        np.testing.assert_allclose(post.amps, [0, 1, 0, 0], atol=1e-12)

    def test_anchor_travel_is_fifty_fifty(self):
        rng = np.random.default_rng(12)
        n = 4000
        ones = 0
        for _ in range(n):
            bit, _ = measure_computational(bell_state(BellIndex(0, 0)), Qubit.TRAVEL, rng)
            ones += bit
        sigma = (0.25 / n) ** 0.5
        assert abs(ones / n - 0.5) <= 3 * sigma

    def test_collapse_renormalizes(self):
        # projection oracle: keeping travel=1 from the anchor pair leaves |01>
        kept = PSI00 * np.array([0, 1, 0, 1])
        expected = kept / np.linalg.norm(kept)
        np.testing.assert_allclose(expected, [0, 1, 0, 0], atol=1e-12)

        bit, post = measure_computational(
            bell_state(BellIndex(0, 0)), Qubit.TRAVEL, _FixedRng(0.3)
        )
        assert bit == 1
        np.testing.assert_allclose(post.amps, expected, atol=1e-12)

    def test_home_target(self):
        state = TwoQubitState([0, 0, 1, 0])  # |10>
        bit, post = measure_computational(state, Qubit.HOME, np.random.default_rng(0))
        assert bit == 1
        np.testing.assert_allclose(post.amps, [0, 0, 1, 0], atol=1e-12)

    @settings(max_examples=60)
    @given(two_qubit_states(), seeds)
    def test_repeat_measurement_is_stable(self, state, seed):
        rng = np.random.default_rng(seed)
        bit, post = measure_computational(state, Qubit.TRAVEL, rng)
        bit2, post2 = measure_computational(post, Qubit.TRAVEL, rng)
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

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            PhasedPauli(PauliCode(0, 0), 2 + 0j)


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

    Random states are not in REACHABLE, so these drive the off-table path.
    """

    @settings(max_examples=60)
    @given(two_qubit_states(), codes, st.sampled_from([Qubit.HOME, Qubit.TRAVEL]))
    def test_apply_pauli(self, state, code, target):
        lift = on_travel if target is Qubit.TRAVEL else on_home
        expected = lift(U_ORACLE[(code.k, code.l)]) @ state.amps
        for _ in range(2):  # nothing is stored, so a repeat call agrees
            np.testing.assert_allclose(apply_pauli(state, code, target).amps, expected, atol=1e-12)

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
    @given(
        two_qubit_states(),
        st.sampled_from([Qubit.HOME, Qubit.TRAVEL]),
        st.floats(0, 1, exclude_max=True),
    )
    def test_measure_computational(self, state, target, u):
        bit_of = np.array([0, 0, 1, 1]) if target is Qubit.HOME else np.array([0, 1, 0, 1])
        p_one = float(np.sum(np.abs(state.amps[bit_of == 1]) ** 2))
        assume(abs(u - p_one) >= 1e-9)
        bit = int(u < p_one)
        kept = np.where(bit_of == bit, state.amps, 0)
        expected = kept / np.linalg.norm(kept)
        for _ in range(2):
            got, post = measure_computational(state, target, _FixedRng(u))
            assert got == bit
            np.testing.assert_allclose(post.amps, expected, atol=1e-9)


TRAVEL_BIT = np.array([0, 1, 0, 1])


class TestStepTables:
    """The step tables built at import: closed, exact, and never written again."""

    def test_every_entry_matches_the_matrix_oracle(self):
        for sid, state in enumerate(REACHABLE):
            assert len(bell_core.PAULI[sid]) == len(ALL_CODES)
            for code in ALL_CODES:
                image = REACHABLE[bell_core.PAULI[sid][2 * code.k + code.l]]
                expected = on_travel(U_ORACLE[(code.k, code.l)]) @ state.amps
                np.testing.assert_allclose(image.amps, expected, atol=1e-12)
            probs = [abs(np.vdot(oracle_bell(x, y), state.amps)) ** 2 for x, y in BIT_PAIRS]
            np.testing.assert_allclose(bell_core.CDF[sid], np.cumsum(probs), atol=1e-12)
            p_one, *collapses = bell_core.TAP[sid]
            assert p_one == pytest.approx(np.sum(np.abs(state.amps[TRAVEL_BIT == 1]) ** 2))
            for bit, post in enumerate(collapses):
                kept = np.where(TRAVEL_BIT == bit, state.amps, 0)
                if np.vdot(kept, kept).real <= NORM_ATOL:
                    assert post is None
                else:
                    np.testing.assert_allclose(
                        REACHABLE[post].amps, kept / np.linalg.norm(kept), atol=1e-12
                    )

    def test_ids_are_reachable_positions_with_the_bell_states_first(self):
        # the round engine encodes on id 0 and hands Eve's Bell pair over as
        # the id of her code, so the Bell states must be ids 0-3 in order
        assert REACHABLE[:4] == tuple(bell_state(idx) for idx in ALL_INDICES)
        assert [bell_core.STATE_ID[state] for state in REACHABLE] == list(range(len(REACHABLE)))
        amplitudes = {state.amps.tobytes() for state in REACHABLE}
        assert len(amplitudes) == len(REACHABLE)

    def test_off_table_copies_give_the_tabulated_bytes(self):
        # the tables and the off-table path share one implementation of each step
        for state in REACHABLE:
            copy = TwoQubitState(state.amps)
            for code in ALL_CODES:
                assert (
                    apply_pauli(copy, code, Qubit.TRAVEL).amps.tobytes()
                    == apply_pauli(state, code, Qubit.TRAVEL).amps.tobytes()
                )
            for u in (0.0, 0.3, 0.6, 0.99):
                assert bell_measure(copy, _FixedRng(u)) == bell_measure(state, _FixedRng(u))
                bit, post = measure_computational(copy, Qubit.TRAVEL, _FixedRng(u))
                table_bit, table_post = measure_computational(state, Qubit.TRAVEL, _FixedRng(u))
                assert bit == table_bit
                assert post.amps.tobytes() == table_post.amps.tobytes()

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
        assert len(REACHABLE) == 24

    def test_off_table_steps_leave_the_tables_unchanged(self):
        def tables():
            return (REACHABLE, bell_core.PAULI, bell_core.CDF, bell_core.TAP,
                    dict(bell_core.STATE_ID))

        before = tables()
        rng = np.random.default_rng(8)
        for _ in range(200):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = TwoQubitState(vec / np.linalg.norm(vec))
            for target in (Qubit.HOME, Qubit.TRAVEL):
                apply_pauli(state, ALL_CODES[1], target)
                measure_computational(state, target, rng)
            bell_measure(state, rng)
        # HOME steps on reachable states are off the table too
        for state in REACHABLE:
            apply_pauli(state, ALL_CODES[2], Qubit.HOME)
            measure_computational(state, Qubit.HOME, rng)
        assert tables() == before
