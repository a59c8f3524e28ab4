"""Interpreter-speed probe that normalises the benchmark's wall times.

The machines this benchmark was defined on share cores with other
tenants.  On a shared 2-vCPU virtual machine the same greedy op took
3.1 ms in one 2-s window and 6.8 ms in another, with process CPU time
equal to wall time:
the slowdown is contention for the core, not stolen time, and it lasts
seconds to minutes, so longer runs do not average it away.  A fixed
pure-Python loop that touches no package code, timed next to each op,
slows down with it: over 2-s windows the op/probe ratio varied by 2-4 %
(coefficient of variation) where the raw op time varied by 18-19 %.

Every time the benchmark reports is therefore
``wall time * NOMINAL_S / probe time measured around it``: the time on a
machine where the probe takes NOMINAL_S.  Raw times go to the run record.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.001


def _work() -> None:
    # a little of what the package does: sorting, dict counting, bitmask
    # arithmetic and Fractions
    for _ in range(3):
        counts: dict[int, int] = {}
        for v in sorted((i * 7919) % 1009 for i in range(600)):
            counts[v] = counts.get(v, 0) + 1
        mask = 0
        for i in range(300):
            mask |= 1 << (i % 61)
            mask ^= mask >> 3
        total = Fraction(0)
        for i in range(1, 12):
            total += Fraction(1, i)


def probe() -> float:
    """Wall time of one run of the fixed probe loop."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def factors(probes: list[float], radius: int = 2) -> list[float]:
    """Scale factor per op, where probes[k] ran just before op k and
    probes[k + 1] just after it: NOMINAL_S over the median of the probes
    within ``radius`` ops of op k."""
    return [NOMINAL_S / statistics.median(probes[max(0, k - radius):k + radius + 2])
            for k in range(len(probes) - 1)]


def normalised(seconds: float, repeats: int = 9) -> float:
    """A time just measured, scaled by the median of fresh probes."""
    return seconds * NOMINAL_S / statistics.median(probe() for _ in range(repeats))
