"""The reference kernel that defines a *host second*.

The sandbox this benchmark runs in shares its cores with other tenants: the
same deterministic repetition took 2.2 s to 4.4 s of wall clock within a few
minutes (interquartile range 33 % of the median over 20 runs; CPU time moved
with wall time, and the VM exposes neither steal time nor hardware
counters).  No bound the benchmark contract allows survives that, so host
times are *calibrated*: the timed region is cut into ``SLICES`` contiguous
``run(until=...)`` windows, this kernel runs before the first and after each,
and every window's raw seconds are divided by the mean of the two kernel
calls around it:

    host seconds = NOMINAL_S x sum_k raw_k / ((kernel_k-1 + kernel_k) / 2)

i.e. seconds on a machine that runs one kernel call in ``NOMINAL_S``.  A
neighbour that slows the interpreter slows both alike, and a kernel call
that catches a garbage collection of the simulator's heap spoils two windows
out of 70 rather than the whole ratio.  Over 14 repetitions of the rig the
calibrated time had an interquartile range of 1.0-2.5 % and a range of
5-7 % where the raw time had 7 % and 14-18 %.  Raw seconds and the speed
factor are printed beside every calibrated number.

The kernel is heap pushes and pops of tuples holding slotted objects plus
dict stores: the instruction mix of ``repro.sim.loop``.  **Editing this
file redefines every host metric**; re-measure the baseline if you must.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["NOMINAL_S", "SLICES", "calibrated", "host_speed", "kernel",
           "timed_kernel"]

#: seconds one ``kernel()`` call took on the defining box in its fast state
NOMINAL_S = 0.0100
#: windows a timed region is cut into (one kernel call after each)
SLICES = 70


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    heap: list = []
    seen: dict = {}
    acc = 0
    for i in range(10_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, _Slot(i, acc)))
        if i & 1:
            when, seq, slot = heapq.heappop(heap)
            acc += slot.a
            seen[seq & 1023] = when
    return acc


def timed_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def calibrated(raw: list[float], kernels: list[float]) -> float:
    """Host seconds of windows that took ``raw[k]`` seconds each, with
    ``kernels[k]`` and ``kernels[k + 1]`` measured before and after."""
    return NOMINAL_S * sum(
        2 * seconds / (kernels[k] + kernels[k + 1])
        for k, seconds in enumerate(raw))


def host_speed(calls: int) -> float:
    """Reference seconds per raw second right now, from the median of
    ``calls`` kernel calls (>1: this machine is faster than the reference)."""
    return NOMINAL_S / statistics.median(
        timed_kernel() for _ in range(calls))
