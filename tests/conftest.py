"""Shared strategies and the independent matrix oracle used across test modules.

The oracle builds everything from literal Pauli matrices and np.kron so the
expectations never depend on the tables inside the package.
"""

import warnings

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume

# When a property fails, hypothesis's reporter imports this module, and with
# it libcst, whose import raises a DeprecationWarning from mypy_extensions.
# Under filterwarnings = error that warning ends the pytest run with an
# INTERNALERROR before the falsifying example is printed, so the module is
# imported once here with that warning ignored; every other warning still
# fails the suite.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the reporter skips its patch suggestion
        pass

from qdialogue.bell_core import BellIndex, PauliCode, TwoQubitState
from qdialogue.harness import ROW_WIDTH

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
U_ORACLE = {(0, 0): I2, (0, 1): SX, (1, 0): 1j * SY, (1, 1): SZ}

PSI00 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
TRAVEL_BIT = np.array([0, 1, 0, 1])  # basis index -> value of the travel bit


def on_travel(u: np.ndarray) -> np.ndarray:
    return np.kron(I2, u)


def oracle_bell(x: int, y: int) -> np.ndarray:
    return on_travel(U_ORACLE[(x, y)]) @ PSI00


BIT_PAIRS = [(a, b) for a in (0, 1) for b in (0, 1)]


def uniforms(seed: int) -> list[float]:
    """One row of ROW_WIDTH uniforms, numpy's default_rng(seed) stream."""
    return np.random.default_rng(seed).random(ROW_WIDTH).tolist()


codes = st.builds(PauliCode, st.integers(0, 1), st.integers(0, 1))
bell_indices = st.builds(BellIndex, st.integers(0, 1), st.integers(0, 1))
seeds = st.integers(0, 2**64 - 1)


@st.composite
def two_qubit_states(draw):
    parts = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=8,
        )
    )
    vec = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return TwoQubitState(vec / norm)
