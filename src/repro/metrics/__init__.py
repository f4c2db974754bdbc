"""Measurement: in-run collection (:class:`MetricsHub`) and post-run
statistics (percentiles, CDFs, windowed throughput) matching the paper's
methodology (steady-state trimming, ms-granularity visibility CDFs)."""

from .collector import MetricsHub
from .summary import (
    cdf,
    mean,
    percentile,
    steady_window,
    throughput,
    trim_marks,
    windowed_points,
    windowed_rate,
)

__all__ = [
    "MetricsHub",
    "cdf",
    "mean",
    "percentile",
    "steady_window",
    "throughput",
    "trim_marks",
    "windowed_points",
    "windowed_rate",
]
