"""Calibration of timings against the speed the machine runs at now.

The benchmark was sized on a 2-core share of a host whose speed, as
seen from one thread, swings by half or more from one minute to the
next while other tenants load the shared cores.  Wall-clock latencies
from two runs of the same code then differ by as much as the change a
benchmark should detect.

So between queries, untimed, the run loop times a fixed kernel that
calls no library code, and divides each query's latency by how much
slower than its reference time the kernel ran around that query.  The
kernel is made of three parts, one for each kind of work the layers
do, and every workload mixes them in the proportions its own layer
works in, because the kinds of work slow down by different amounts
(big-integer arithmetic the most, numpy sweeps the least).

A library change cannot move the kernel: it runs no library code, and
it is timed in this thread's CPU time, so a background thread that the
library leaves holding the GIL cannot make the machine look slow and
its queries look fast.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable, Dict, Tuple

def _fractions() -> None:
    """Exact rationals over big integers (moments, asep)."""
    s = Fraction(0)
    for i in range(1, 110):
        s += Fraction(1, i)


def _loop() -> None:
    """An interpreter loop over small ints and lists (walkers, bookkeeping)."""
    x, xs = 0, []
    for i in range(800):
        x = (x * 31 + i) % 1000003
        xs.append(x)
    xs.sort()


def _sweep() -> None:
    """An int64 numpy sweep (dpcount, sampler tables)."""
    import numpy  # imported here, after set-up has been timed

    a = numpy.arange(1 << 14, dtype=numpy.int64)
    ((a * 7 + 3) % 1000003).sum()


#: Each part with the thread CPU seconds it takes at the reference
#: speed: its fastest time on the machine the benchmark was sized on
#: (2 cores, 7 GB RAM).
PARTS: Dict[str, Tuple[Callable[[], None], float]] = {
    "fractions": (_fractions, 0.000245),
    "loop": (_loop, 0.000170),
    "sweep": (_sweep, 0.000087),
}

#: How many times each workload's kernel runs each part.
MIX: Dict[str, Dict[str, int]] = {
    "dp_laws": {"loop": 1, "sweep": 2},
    "poisson_limits": {"fractions": 1, "loop": 1, "sweep": 2},
    "sampling": {"fractions": 1, "loop": 1, "sweep": 2},
    "asep_bridge": {"fractions": 1, "loop": 1, "sweep": 2},
}


def slowdown(workload: str) -> float:
    """How much slower than the reference speed the machine runs now:
    the median of five runs of the workload's kernel."""
    mix = MIX[workload]
    reference = sum(k * PARTS[part][1] for part, k in mix.items())
    times = []
    for _ in range(5):
        t0 = time.thread_time()
        for part, k in mix.items():
            for _ in range(k):
                PARTS[part][0]()
        times.append(time.thread_time() - t0)
    return statistics.median(times) / reference
