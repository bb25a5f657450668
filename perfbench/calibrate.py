"""Scaling of host timings to a reference machine speed.

On a shared host the speed available to one process drifts by tens of
percent over minutes, longer than one benchmark run, so a run's median
alone moves with whatever else the host is doing.  Every time the
benchmark reports is therefore scaled to a reference speed:

    reported = measured * REFERENCE_S / median(loop_s() samples)

where ``loop_s`` times a fixed pure-Python arithmetic loop in the same
process, interleaved with the measured work.  The loop allocates nothing
that outlives an iteration and calls no nfmigsim code, so a change to the
program cannot change it; only the host's speed does.  ``REFERENCE_S`` is
the loop's median time on the machine where the benchmark was defined
(Python 3.11.7, Intel Xeon, 2 vCPUs), so reported times there read as host
seconds.  The raw host times and the samples are kept in ``result.json``.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.006
LOOP_ITERATIONS = 100_000
SAMPLES_PER_POINT = 3


def loop_s() -> float:
    """Host seconds for one run of the fixed calibration loop."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


def sample(count: int = SAMPLES_PER_POINT) -> list[float]:
    return [loop_s() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor that turns host seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
