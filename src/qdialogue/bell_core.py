"""Exact linear algebra for one (home, travel) qubit pair.

Amplitudes live in the computational basis, ordered |00⟩, |01⟩, |10⟩, |11⟩,
with the first ket the home qubit and the second the travel qubit.  The
two-bit operator dictionary is

    U00 = I,  U01 = X,  U10 = iY,  U11 = Z,

all four of them real matrices.  Every step a party or Eve takes acts on
the travel qubit, the one that crosses the channel: the encodings, Eve's
tap and her replayed code.  So ``apply_pauli`` applies I ⊗ U_code and
``measure_computational`` reads the travel bit; the home qubit is read
only by Bell measurements of a whole pair (Bob's, and Eve's of her own
pair).  Bell states are labelled by the code that creates them from the
anchor pair:

    bell_state(x, y) = (I ⊗ U_xy) |ψ00⟩,   |ψ00⟩ = (|01⟩ + |10⟩) / √2.

Every step the protocols take is a stabilizer operation, so the round
engine only ever reaches a finite set of states: closing the four Bell
states under travel-qubit Paulis and computational-basis collapses gives 8
states up to global phase, the classes of ``REACHABLE``, the Bell states
first in ``ALL_INDICES`` order.  A class's position there is its id, and
the step tables are tuples indexed by id, filled once at import from the
state functions below:

    PAULI[s][2k + l]   the id of U_kl applied to the travel qubit of s
    CDF[s]             the Bell-outcome CDF of s, in ALL_INDICES order
    TAP[s]             (P(travel bit = 1), id on 0, id on 1), None for a
                       bit of probability 0

Every tabulated probability is exact: two-qubit stabilizer states have
Born weights in multiples of 1/4, and ``_tabulate`` snaps each computed
value to its multiple.  ``phase_class`` keys a state by its class, and
``CLASS_ID`` maps that key to the id.

The round engine is built on ids (``protocol`` tabulates each strategy's
round from these tables); the ``TwoQubitState`` functions
(``apply_pauli``, ``bell_measure``, ``measure_computational``) compute on
amplitudes and never read the tables, so the two stay independent routes
to the same physics.  A measurement reads one uniform, so a state function
can be driven by any object with a ``random()`` method returning floats
in [0, 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

NORM_ATOL = 1e-9

_BITS = (0, 1)


class UniformSource(Protocol):
    """Where a state function gets its uniforms, for example a numpy Generator."""

    def random(self) -> float:
        """One uniform draw in [0, 1)."""


@dataclass(frozen=True)
class PauliCode:
    """Two-bit label (k, l) of an encoding operator U_kl."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k not in _BITS or self.l not in _BITS:
            raise ValueError(f"code bits must be 0 or 1, got ({self.k}, {self.l})")

    def __iter__(self):
        yield self.k
        yield self.l


@dataclass(frozen=True)
class BellIndex:
    """Two-bit label (x, y) of a Bell-measurement outcome."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x not in _BITS or self.y not in _BITS:
            raise ValueError(f"index bits must be 0 or 1, got ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state of the pair: 4 complex amplitudes, always normalized."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {arr.shape}")
        # a NaN or infinite amplitude cannot produce a norm within tolerance,
        # so one check covers both invariants (note: NaN fails the <= form)
        norm_sq = np.vdot(arr, arr).real
        if not (abs(norm_sq - 1.0) <= NORM_ATOL):
            if not np.isfinite(norm_sq):
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq}")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @cached_property
    def bell_cdf(self) -> tuple[float, ...]:
        """Cumulative Born probabilities of the Bell outcomes, in ALL_INDICES
        order, computed on first use (the amplitudes never change)."""
        probs = np.abs(_BELL_CONJ @ self.amps) ** 2
        total = float(probs.sum())
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"Bell probabilities sum to {total}, not 1")
        return tuple(np.cumsum(probs).tolist())


# the label (a, b) sits at position 2a + b of both tuples; code that looks
# labels up by their bits relies on this order
ALL_CODES = (PauliCode(0, 0), PauliCode(0, 1), PauliCode(1, 0), PauliCode(1, 1))
ALL_INDICES = (BellIndex(0, 0), BellIndex(0, 1), BellIndex(1, 0), BellIndex(1, 1))

# code -> I ⊗ U_code, U_code on the travel qubit, for U = I, X, iY (real), Z
_OPS = {code: np.kron(np.eye(2), np.array(u, dtype=np.complex128)) for code, u in zip(ALL_CODES, (
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]], [[1, 0], [0, -1]]))}

_PSI00 = np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2.0)

# states are immutable, so the four Bell states can be shared singletons,
# listed in ALL_INDICES order: bell_state(x, y) is U_xy on the anchor pair
_BELL_STATES = tuple(TwoQubitState(_OPS[code] @ _PSI00) for code in ALL_CODES)
# rows are <bell_idx| so that _BELL_CONJ @ amps gives the four overlaps at once
_BELL_CONJ = np.array([np.conj(state.amps) for state in _BELL_STATES])

# basis index -> value of the travel bit
_TRAVEL_BIT = np.array([0, 1, 0, 1])


def bell_state(idx: BellIndex) -> TwoQubitState:
    """Return the Bell state labelled by ``idx``."""
    return _BELL_STATES[2 * idx.x + idx.y]


def apply_pauli(state: TwoQubitState, code: PauliCode) -> TwoQubitState:
    """Apply the 2x2 operator U_code to the travel qubit of ``state``."""
    return TwoQubitState(_OPS[code] @ state.amps)


def bell_outcome(cdf: tuple[float, ...], u: float) -> int:
    """The Bell outcome, as its position in ALL_INDICES, that the uniform
    ``u`` draws from ``cdf``: the first whose cumulative weight exceeds
    u * total (the inverse CDF), and the last one if none does."""
    return bisect_right(cdf, u * cdf[-1], 0, 3)


def bell_measure(
    state: TwoQubitState, rng: UniformSource
) -> tuple[BellIndex, TwoQubitState]:
    """Measure the pair in the Bell basis.

    Samples the outcome with its Born probability and returns the outcome
    label together with the collapsed (post-measurement) state.
    """
    i = bell_outcome(state.bell_cdf, rng.random())
    return ALL_INDICES[i], _BELL_STATES[i]


def _p_one(state: TwoQubitState) -> float:
    """P(travel bit = 1), exactly 0.0 or 1.0 where a bit has probability 0
    (within NORM_ATOL), so that no uniform in [0, 1) draws that bit."""
    p_one = float((np.abs(state.amps) ** 2)[_TRAVEL_BIT == 1].sum())
    if p_one <= NORM_ATOL:
        return 0.0
    return 1.0 if p_one >= 1.0 - NORM_ATOL else p_one


def _collapse(state: TwoQubitState, bit: int, p_bit: float) -> TwoQubitState:
    kept = np.where(_TRAVEL_BIT == bit, state.amps, 0.0)
    return TwoQubitState(kept / np.sqrt(p_bit))


def measure_computational(state: TwoQubitState, rng: UniformSource) -> tuple[int, TwoQubitState]:
    """Measure the travel qubit in the computational basis.

    Returns the sampled bit and the collapsed, renormalized pair state.
    """
    p_one = _p_one(state)
    bit = 1 if rng.random() < p_one else 0
    return bit, _collapse(state, bit, p_one if bit else 1.0 - p_one)


def decode_bits(outcome: BellIndex, own: PauliCode) -> PauliCode:
    """Recover the other party's code from the outcome and one's own code.

    On single bits |x - k| is the same as x xor k, which is what the
    measurement index arithmetic reduces to.
    """
    return ALL_CODES[2 * (outcome.x ^ own.k) + (outcome.y ^ own.l)]


def overlap(a: TwoQubitState, b: TwoQubitState) -> complex:
    """Inner product <a|b>."""
    return complex(np.vdot(a.amps, b.amps))


def random_code(rng: UniformSource) -> PauliCode:
    """Draw a uniformly random two-bit code: ALL_CODES[floor(4u)]."""
    return ALL_CODES[int(4 * rng.random())]


# -- the step tables, filled once by closing the Bell states under the steps

def phase_class(state: TwoQubitState) -> tuple[complex, ...]:
    """The key of ``state``'s class up to global phase: its amplitudes with
    the first of magnitude at least 1/2 turned real and positive, rounded
    to 9 places (a normalized state has one)."""
    amps = state.amps
    pivot = amps[np.argmax(np.abs(amps) >= 0.5 - NORM_ATOL)]
    return tuple(np.round(amps * (abs(pivot) / pivot), 9).tolist())


def _exact(p: float) -> float:
    """The multiple of 1/4 that ``p`` is, up to rounding (see the module docstring)."""
    snapped = round(4 * p) / 4
    assert abs(snapped - p) <= NORM_ATOL, f"{p} is no multiple of 1/4"
    return snapped


def _tabulate() -> tuple[tuple, ...]:
    """REACHABLE, CLASS_ID, PAULI, CDF and TAP (see the module docstring).

    States are interned by ``phase_class`` while the tables are built, so
    each class has one representative, the first member found, and one id,
    in discovery order with the Bell states first.
    """
    ids: dict[tuple, int] = {}
    states: list[TwoQubitState] = []

    def intern(state: TwoQubitState) -> int:
        sid = ids.setdefault(phase_class(state), len(states))
        if sid == len(states):  # a new class: its first member represents it
            states.append(state)
        return sid

    for root in _BELL_STATES:
        intern(root)
    pauli, cdf, tap = [], [], []
    for state in states:  # grows while the steps find new states
        pauli.append(tuple(intern(apply_pauli(state, code)) for code in ALL_CODES))
        cdf.append(tuple(map(_exact, state.bell_cdf)))
        p_one = _exact(_p_one(state))
        tap.append((p_one,) + tuple(
            intern(_collapse(state, bit, p_bit)) if p_bit else None
            for bit, p_bit in enumerate((1.0 - p_one, p_one))
        ))
    return tuple(states), ids, tuple(pauli), tuple(cdf), tuple(tap)


REACHABLE, CLASS_ID, PAULI, CDF, TAP = _tabulate()
