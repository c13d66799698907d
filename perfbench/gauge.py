"""Speed gauges: how fast this machine runs each kind of work right now.

The benchmark runs on shared machines where other tenants slow a core by
up to 2x for spells that can outlast a whole run.  Every timing is
therefore taken next to a gauge reading and divided by the gauge's
slowdown, its reading over the fastest reading seen.  Two gauges cover
the two kinds of work the program does:

* the Python gauge, a fixed exact-rational computation, for interpreter
  work (the simplex, constraint building, the CLI);
* the numpy gauge, bitwise ORs of strided int64 columns of a 40320 x 28
  matrix, for the K_8 canonicalization, which does the same to its
  permutation matrix and is bound by the shared cache, not the core.
  Slow spells move the two kinds of work differently, so each item is
  scaled by the gauge of its kind.

Neither gauge uses wramsey code, so a change to the program cannot move
them.
"""

from __future__ import annotations

import functools
import os
import time
from fractions import Fraction

# Fastest readings seen on the 2-core x86 machine the bounds were set on.
REFERENCE_S = 0.0005
REFERENCE_NUMPY_S = 0.00054

_A = tuple(Fraction(i + 1, i + 2) for i in range(12))
_B = tuple(Fraction(2 * i + 1, 3 * i + 5) for i in range(12))
_F = Fraction(3, 7)
_NUMPY_COLUMNS = (1, 9, 17)


def reading() -> float:
    """Fastest of three timings of the fixed computation, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        a = _A
        for _ in range(6):
            a = [x - _F * y for x, y in zip(a, _B)]
            a = [x / (1 + abs(x)) for x in a]
        best = min(best, time.perf_counter() - t)
    return best


@functools.lru_cache(maxsize=1)
def _matrix():
    import numpy as np
    cells = np.arange(40320 * 28, dtype=np.int64).reshape(40320, 28)
    return np.int64(1) << (cells % 28)


def reading_numpy() -> float:
    """Fastest of three timings of the strided column ORs, in seconds."""
    import numpy as np
    matrix = _matrix()
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = np.zeros(matrix.shape[0], dtype=np.int64)
        for i in _NUMPY_COLUMNS:
            acc |= matrix[:, i]
        best = min(best, time.perf_counter() - t)
    return best


def reading_slowest_cpu() -> float:
    """The slowest CPU's Python reading, for work a pool spreads over all CPUs.

    The gauge runs pinned to each usable CPU in turn; the affinity is
    restored before returning.  A pool item waits for its slowest worker,
    so that CPU's speed is the one that sets its time.
    """
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(reading())
    finally:
        os.sched_setaffinity(0, cpus)
    return max(readings)


def slowdown(numpy_bound: bool = False, all_cpus: bool = False) -> float:
    """The matching gauge's reading over its reference reading."""
    if numpy_bound:
        return reading_numpy() / REFERENCE_NUMPY_S
    return (reading_slowest_cpu() if all_cpus else reading()) / REFERENCE_S


def scaled(seconds: float, slowdown_factor: float) -> float:
    """A timing taken at ``slowdown_factor``, in seconds at reference speed."""
    return seconds / slowdown_factor
