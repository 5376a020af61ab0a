"""Reference loop that tracks the machine's current speed.

On a shared machine the speed one process gets drifts by a fifth or more
over minutes, which swamps any change a benchmark run could show.  The time
of a fixed loop, taken between timed operations, drifts with it provided the
loop does the same kind of work as the operations, because contention slows
C-level numpy calls, allocation and plain byte code by different amounts.
This loop does per-round-sized numpy work: generator construction, draws
and 4-vector algebra.

Over 150-second series on a shared 2-CPU Intel Xeon at 2.1 GHz, the
median time per operation of 20-second stretches moved across 0.79-1.03 of
its overall median for `qdialogue run` calls and across 0.91-1.05 for transcript
replays.  Scaled by this loop they stayed within 0.99-1.02 and 0.98-1.03; a
dict-and-integer byte-code loop did worse on both (0.93-1.06, 0.94-1.03).

The program's speed does not follow the loop's one for one: over runs of
10 000-round `qdialogue run` calls whose loop time ranged over 5.8-10.2 ms,
the program's time moved by about the 0.8th power of the loop's.  Scaling
the median time of 70-second stretches of a 420-second series by the loop's
time to that power kept them within 4.5% of each other, against 7.1% for a
full scaling and 14% unscaled; over five 30-second benchmark runs per
workload it cut the spread of rounds/s from 6.7% to 3.2% (mc-summary) and
from 6.4% to 4.1% (mc-transcript).

Timed walls are scaled to the speed at which the loop takes NOMINAL_S.  The
loop uses no code of the package, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.007
ELASTICITY = 0.8  # d log(program time) / d log(loop time)

_MATRIX = np.eye(4, dtype=np.complex128)
_VECTOR = np.full(4, 0.5, dtype=np.complex128)


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    start = perf_counter()
    for i in range(300):
        rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(i,)))
        rng.random()
        int(rng.integers(4))
        amps = np.array(_MATRIX @ _VECTOR, dtype=np.complex128).reshape(-1)
        float(np.vdot(amps, amps).real)
        float((np.abs(amps) ** 2).sum())
    return perf_counter() - start


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` as it would read at the speed where the loop takes NOMINAL_S."""
    return wall * (2 * NOMINAL_S / (ref_before + ref_after)) ** ELASTICITY
