"""A fixed unit of CPU work that gauges how fast the host runs right now.

The benchmark shares its host with other tenants, and their load moves
the speed of every instruction the program runs: the same sort takes
80 ms in one minute and 140 ms in the next, in CPU time as much as in
wall time.  No window of a run is safe from it, so the benchmark
measures the host alongside the program: between rounds of operations
it times :func:`yardstick` -- work that shares nothing with the
program's code, so no change to the program moves it -- and scales the
round's timings by ``NOMINAL_MS`` over the yardstick's time.  Reported
times therefore read as on a host where the yardstick takes
``NOMINAL_MS``.

The work mixes what the program's time is made of: an interpreter loop
over a dict (dispatch and object churn, which neighbours on a shared
core slow the most) and a numpy stable argsort (vectorised, memory
bound).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The yardstick's time on a quiet host; reported times are scaled to it.
NOMINAL_MS = 10.0
#: Repetitions per reading; the reading is their median.
REPS = 3

_KEYS = np.random.default_rng(0).random(1 << 14).astype(np.float32)


def yardstick() -> None:
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    np.argsort(_KEYS, kind="stable")


def reading_ms(reps: int = REPS) -> float:
    """The yardstick's median time, in ms, over ``reps`` runs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        yardstick()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def scale(reading: float) -> float:
    """The factor taking a time measured at ``reading`` to nominal speed."""
    return NOMINAL_MS / reading
