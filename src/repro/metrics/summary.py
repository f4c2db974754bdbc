"""Post-run statistics: percentiles, CDFs, windowed throughput.

Mirrors the measurement methodology of §7:

* throughput is ops/second over the *steady-state* window (the paper ignores
  the first and last minute of each run; :func:`steady_window` applies the
  same trimming proportionally);
* visibility latencies are reported as CDFs (Figure 6) and high percentiles
  (Figure 1 uses the 90th);
* timelines (Figures 4 and 7) bucket events or samples into fixed windows.

Pure stdlib.  :func:`percentile` is the ``linear`` method (Hyndman & Fan
type 7) with a two-sided lerp, operation for operation what the array
library this module used to call computes — tests/test_metrics.py holds
the two equal to the last bit, so published p50/p90/p99 did not move.
:func:`mean` is the correctly rounded ``fsum / n``, which a pairwise
double sum can miss by a few ulp.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

__all__ = [
    "EmptySeriesWarning",
    "percentile",
    "cdf",
    "mean",
    "throughput",
    "windowed_rate",
    "windowed_points",
    "steady_window",
    "trim_marks",
]


class EmptySeriesWarning(UserWarning):
    """A statistic was requested over an empty series.

    Usually a dead or misnamed metric name — the 0.0 it used to return
    silently renders as a plausible-looking flat line in figures.
    """


#: Module-wide strictness: when True, :func:`percentile` raises on empty
#: input instead of warning.  Figure scripts can flip this to fail fast.
STRICT_EMPTY = False


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, correctly rounded (``fsum / n``); 0.0 if empty."""
    return math.fsum(values) / len(values) if len(values) else 0.0


def percentile(values: Sequence[float], pct: float,
               strict: Optional[bool] = None) -> float:
    """The ``pct``-th percentile (linear interpolation between the two
    nearest order statistics, ``pct`` in [0, 100]).

    Empty input emits :class:`EmptySeriesWarning` and returns 0.0, or
    raises ``ValueError`` when ``strict`` is true (default: the module
    flag ``STRICT_EMPTY``) — a silent 0.0 masks dead/misnamed series.
    """
    if not len(values):
        if strict if strict is not None else STRICT_EMPTY:
            raise ValueError(f"percentile(p{pct:g}) over an empty series")
        warnings.warn(
            f"percentile(p{pct:g}) over an empty series; returning 0.0 "
            "(dead or misnamed metric name?)",
            EmptySeriesWarning, stacklevel=2)
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct!r}")
    data = sorted(values)
    index = (len(data) - 1) * (pct / 100)
    lo = math.floor(index)
    if lo >= len(data) - 1:
        return float(data[-1])
    a, b = data[lo], data[lo + 1]
    t = index - lo
    # Each form is exact at its own end; the switch at t = 0.5 decides the
    # last bit and is part of the method being reproduced.
    if t < 0.5:
        return float(a + (b - a) * t)
    return float(b - (b - a) * (1 - t))


def cdf(values: Sequence[float], resolution: Optional[float] = None
        ) -> list[tuple[float, float]]:
    """Empirical CDF as (value, fraction ≤ value) pairs.

    ``resolution`` rounds values into buckets first — the paper reports
    visibility latencies at millisecond granularity, so Figure 6 uses
    ``resolution=1.0`` (ms).
    """
    if not len(values):
        return []
    if resolution:
        values = [math.floor(v / resolution) * resolution for v in values]
    data = sorted(map(float, values))
    n = len(data)
    out: list[tuple[float, float]] = []
    previous = None
    for i, v in enumerate(data, 1):
        if v == previous:
            out[-1] = (v, i / n)
        else:
            out.append((v, i / n))
            previous = v
    return out


def steady_window(start: float, end: float, warmup_frac: float = 0.15,
                  cooldown_frac: float = 0.15) -> tuple[float, float]:
    """Trim warm-up and cool-down, like the paper's first/last-minute cut."""
    span = end - start
    return (start + span * warmup_frac, end - span * cooldown_frac)


def trim_marks(marks: Sequence[float], window: tuple[float, float]) -> list[float]:
    """Event times restricted to ``window``."""
    lo, hi = window
    return [t for t in marks if lo <= t <= hi]


def throughput(marks: Sequence[float], window: tuple[float, float]) -> float:
    """Steady-state ops/second from completion-time marks."""
    lo, hi = window
    if hi <= lo:
        return 0.0
    return len(trim_marks(marks, window)) / (hi - lo)


def windowed_rate(marks: Sequence[float], start: float, end: float,
                  width: float) -> list[tuple[float, float]]:
    """Events/second in consecutive buckets of ``width`` seconds.

    Returns (bucket midpoint, rate) pairs — the Figure 4 timeline.
    """
    if end <= start or width <= 0:
        return []
    n_buckets = max(1, math.ceil((end - start) / width))
    counts = [0] * n_buckets
    for t in marks:
        if start <= t < end:
            counts[min(int((t - start) / width), n_buckets - 1)] += 1
    return [
        (start + (i + 0.5) * width, counts[i] / width)
        for i in range(n_buckets)
    ]


def windowed_points(points: Sequence[tuple[float, float]], start: float,
                    end: float, width: float,
                    agg: str = "p90") -> list[tuple[float, float]]:
    """Aggregate a (time, value) series into buckets (Figure 7 timeline).

    ``agg`` is ``mean``, ``max``, or ``pNN`` (percentile).  Buckets with no
    samples are omitted.
    """
    if end <= start or width <= 0:
        return []
    n_buckets = max(1, math.ceil((end - start) / width))
    buckets: list[list[float]] = [[] for _ in range(n_buckets)]
    for t, v in points:
        if start <= t < end:
            buckets[min(int((t - start) / width), n_buckets - 1)].append(v)
    out = []
    for i, bucket in enumerate(buckets):
        if not bucket:
            continue
        if agg == "mean":
            value = mean(bucket)
        elif agg == "max":
            value = max(bucket)
        elif agg.startswith("p"):
            value = percentile(bucket, float(agg[1:]))
        else:
            raise ValueError(f"unknown aggregation {agg!r}")
        out.append((start + (i + 0.5) * width, value))
    return out
