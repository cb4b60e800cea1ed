"""Reference kernel: a fixed computation timed between ops to track machine speed.

On a shared host the same op can take 30% longer for tens of seconds
because the core runs slower, not because the process is descheduled, so
CPU time drifts with wall time.  The kernel below mixes what amrb's hot
paths do (interpreted loops, small dense solves, banded solves of mesh
size) and runs on data of its own.  An op's latency divided by the
kernel's time, both measured in the same run, is steady across that
drift.  The kernel is benchmark code: no change to amrb can alter it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

_DENSE = np.random.default_rng(0).random((8, 8)) + 8.0 * np.eye(8)
_DENSE_RHS = np.ones(8)
_BANDS = np.vstack([np.full(1000, -1.0), np.full(1000, 4.0), np.full(1000, -1.0)])
_BANDED_RHS = np.ones(1000)

TIMED_REPEATS = 3
# median kernel time on the reference machine described in perfbench/README.md;
# a time divided by the kernel time and multiplied by this reads in seconds
# at that machine's speed
NOMINAL_S = 0.37e-3


def _kernel() -> float:
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    for _ in range(10):
        acc += float(np.linalg.solve(_DENSE, _DENSE_RHS)[0])
    for _ in range(3):
        acc += float(solve_banded((1, 1), _BANDS, _BANDED_RHS)[0])
    return acc


def measure(repeats: int = TIMED_REPEATS) -> list[float]:
    """Seconds per kernel run, after one untimed run that warms the caches."""
    _kernel()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times
