"""Exact linear algebra for one (home, travel) qubit pair.

Amplitudes live in the computational basis, ordered |00⟩, |01⟩, |10⟩, |11⟩,
with the first ket the home qubit and the second the travel qubit.  The
two-bit operator dictionary is

    U00 = I,  U01 = X,  U10 = iY,  U11 = Z,

all four of which are real matrices, so products of them only ever pick up
a sign.  Bell states are labelled by the code that creates them from the
anchor pair:

    bell_state(x, y) = (I ⊗ U_xy) |ψ00⟩,   |ψ00⟩ = (|01⟩ + |10⟩) / √2,

i.e. the encoding always acts on the travel qubit, the one a party is
physically holding when they encode.

Every step the protocols take is a stabilizer operation, so the simulator
only ever reaches a finite set of states: closing the four Bell states under
travel-qubit Paulis and computational-basis collapses gives the 24 states of
``REACHABLE``, the Bell states first in ``ALL_INDICES`` order.  A state's
position there is its id, and the step tables are tuples indexed by id,
filled once at import from the amplitude helpers below:

    PAULI[s][2k + l]   the id of U_kl applied to the travel qubit of s
    CDF[s]             the Bell-outcome CDF of s, in ALL_INDICES order
    TAP[s]             (P(travel bit = 1), id on 0, id on 1), None for a
                       bit of probability 0

The round engine composes these ids directly.  The ``TwoQubitState``
functions read the same tables through ``STATE_ID`` (state -> id, an
identity-hash lookup); a state outside them (a hand-built one, or a
HOME-qubit step) is computed directly by the same helpers and not stored.
A measurement reads one uniform and samples by ``bell_outcome`` or
``tap_outcome``, so a state function can be driven by any object with a
``random()`` method returning floats in [0, 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

NORM_ATOL = 1e-9

_BITS = (0, 1)


class UniformSource(Protocol):
    """Where a state function gets its uniforms, for example a numpy Generator."""

    def random(self) -> float:
        """One uniform draw in [0, 1)."""


class Qubit(Enum):
    """Which member of the pair an operation targets."""

    HOME = "home"
    TRAVEL = "travel"

    # members are singletons compared by identity, so the identity hash is
    # correct, and it is much cheaper than Enum's hash of the member name
    __hash__ = object.__hash__


_TRAVEL = Qubit.TRAVEL  # a global read is cheaper than an Enum class attribute


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


_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class PhasedPauli:
    """An encoding operator together with the global phase of a product."""

    code: PauliCode
    phase: complex

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be one of 1, -1, i, -i, got {self.phase!r}")


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


# the label (a, b) sits at position 2a + b of both tuples; code that looks
# labels up by their bits relies on this order
ALL_CODES = (PauliCode(0, 0), PauliCode(0, 1), PauliCode(1, 0), PauliCode(1, 1))
ALL_INDICES = (BellIndex(0, 0), BellIndex(0, 1), BellIndex(1, 0), BellIndex(1, 1))

_SINGLE = {
    PauliCode(0, 0): np.eye(2, dtype=np.complex128),
    PauliCode(0, 1): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    # iY is real: [[0, 1], [-1, 0]]
    PauliCode(1, 0): np.array([[0, 1], [-1, 0]], dtype=np.complex128),
    PauliCode(1, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_OPS = {}
for _code, _u in _SINGLE.items():
    _OPS[(_code, Qubit.TRAVEL)] = np.kron(np.eye(2), _u)
    _OPS[(_code, Qubit.HOME)] = np.kron(_u, np.eye(2))

_PSI00 = np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2.0)

_BELL_AMPS = {
    idx: _OPS[(PauliCode(idx.x, idx.y), Qubit.TRAVEL)] @ _PSI00 for idx in ALL_INDICES
}
# rows are <bell_idx| so that _BELL_CONJ @ amps gives the four overlaps at once
_BELL_CONJ = np.array([np.conj(_BELL_AMPS[idx]) for idx in ALL_INDICES])

# basis index -> value of the home / travel bit
_BIT_OF = {
    Qubit.HOME: np.array([0, 0, 1, 1]),
    Qubit.TRAVEL: np.array([0, 1, 0, 1]),
}

# states are immutable, so the four Bell states can be shared singletons,
# listed in ALL_INDICES order
_BELL_STATES = tuple(TwoQubitState(_BELL_AMPS[idx]) for idx in ALL_INDICES)

def bell_state(idx: BellIndex) -> TwoQubitState:
    """Return the Bell state labelled by ``idx``."""
    return _BELL_STATES[2 * idx.x + idx.y]


def _pauli_image(state: TwoQubitState, code: PauliCode, target: Qubit) -> TwoQubitState:
    return TwoQubitState(_OPS[(code, target)] @ state.amps)


def apply_pauli(state: TwoQubitState, code: PauliCode, target: Qubit) -> TwoQubitState:
    """Apply the 2x2 operator U_code to the chosen qubit of ``state``."""
    sid = STATE_ID.get(state) if target is _TRAVEL else None
    if sid is None:
        return _pauli_image(state, code, target)
    return REACHABLE[PAULI[sid][2 * code.k + code.l]]


def compose(outer: PauliCode, inner: PauliCode) -> PhasedPauli:
    """Return phase and code with U_outer . U_inner = phase * U_code.

    Uses the ZX normal form U_kl = Z^k X^(k xor l); commuting the X factor
    of the outer operator past the Z factor of the inner one costs a sign,
    and that is the only phase that can appear (all four U's are real).
    """
    sign = -1.0 if ((outer.k ^ outer.l) & inner.k) else 1.0
    return PhasedPauli(PauliCode(outer.k ^ inner.k, outer.l ^ inner.l), complex(sign))


def _bell_cdf(state: TwoQubitState) -> tuple[float, ...]:
    """Cumulative Born probabilities of the Bell outcomes, in ALL_INDICES order."""
    probs = np.abs(_BELL_CONJ @ state.amps) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_ATOL:
        raise ValueError(f"Bell probabilities sum to {total}, not 1")
    return tuple(np.cumsum(probs).tolist())


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
    sid = STATE_ID.get(state)
    i = bell_outcome(_bell_cdf(state) if sid is None else CDF[sid], rng.random())
    return ALL_INDICES[i], _BELL_STATES[i]


def _p_one(state: TwoQubitState, target: Qubit) -> float:
    return float((np.abs(state.amps) ** 2)[_BIT_OF[target] == 1].sum())


def _collapse(state: TwoQubitState, target: Qubit, bit: int, p_bit: float) -> TwoQubitState:
    kept = np.where(_BIT_OF[target] == bit, state.amps, 0.0)
    return TwoQubitState(kept / np.sqrt(p_bit))


def tap_outcome(entry: tuple, u: float) -> tuple[int, int | None]:
    """The bit the uniform ``u`` draws from a ``TAP`` entry (1 iff u < P(1))
    and the entry's collapse on it."""
    bit = 1 if u < entry[0] else 0
    return bit, entry[1 + bit]


def measure_computational(
    state: TwoQubitState, target: Qubit, rng: UniformSource
) -> tuple[int, TwoQubitState]:
    """Measure one qubit in the computational basis.

    Returns the sampled bit and the collapsed, renormalized pair state.
    """
    sid = STATE_ID.get(state) if target is _TRAVEL else None
    entry = (_p_one(state, target), None, None) if sid is None else TAP[sid]
    bit, post = tap_outcome(entry, rng.random())
    if post is not None:
        return bit, REACHABLE[post]
    # a bit of probability 0 has no tabulated collapse; computing it raises
    return bit, _collapse(state, target, bit, entry[0] if bit else 1.0 - entry[0])


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

def _tabulate() -> tuple[tuple, ...]:
    """REACHABLE, PAULI, CDF and TAP (see the module docstring).

    States are interned by amplitude bytes while the tables are built, so
    each reachable state is one object and one id, in discovery order with
    the Bell states first.
    """
    ids: dict[bytes, int] = {}
    states: list[TwoQubitState] = []

    def intern(state: TwoQubitState) -> int:
        key = state.amps.tobytes()
        if key not in ids:
            ids[key] = len(states)
            states.append(state)
        return ids[key]

    for root in _BELL_STATES:
        intern(root)
    pauli, cdf, tap = [], [], []
    for state in states:  # grows while the steps find new states
        pauli.append(tuple(intern(_pauli_image(state, code, Qubit.TRAVEL)) for code in ALL_CODES))
        cdf.append(_bell_cdf(state))
        p_one = _p_one(state, Qubit.TRAVEL)
        tap.append((p_one,) + tuple(
            intern(_collapse(state, Qubit.TRAVEL, bit, p_bit)) if p_bit > NORM_ATOL else None
            for bit, p_bit in enumerate((1.0 - p_one, p_one))
        ))
    return tuple(states), tuple(pauli), tuple(cdf), tuple(tap)


REACHABLE, PAULI, CDF, TAP = _tabulate()
STATE_ID = {state: sid for sid, state in enumerate(REACHABLE)}  # states hash by identity
