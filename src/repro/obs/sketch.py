"""Streaming quantile sketches: bounded memory for million-op runs.

``MetricsHub.record`` keeps every sample, which is exactly right for the
figure scripts' few-thousand-op runs but prices p999 out of the ROADMAP's
million-client loads.  :class:`LogBinHistogram` holds O(log range) state: a
DDSketch-style fixed-log-bin histogram with a *relative* error guarantee —
``quantile(q)`` is within ``rel_err`` of the exact rank value, for any
distribution, at any q.  Mergeable.

:class:`SloRecorder` bundles per-(op-kind, DC) operation-latency and
per-(origin, dest) visibility-latency histograms behind the same
``metrics.slo`` attribute-fetch-plus-None-check pattern the tracer uses.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

__all__ = ["LogBinHistogram", "SloRecorder"]


class LogBinHistogram:
    """Log-spaced bins with relative-error quantile estimates.

    With ``gamma = (1 + rel_err) / (1 - rel_err)``, value ``v > 0`` lands
    in bin ``ceil(log_gamma(v))`` and is estimated by the bin midpoint
    ``2 * gamma^i / (gamma + 1)``, which is within ``rel_err * v`` of any
    value in the bin.  Non-positive values collect in a dedicated zero
    bucket (estimated exactly as 0.0).
    """

    __slots__ = ("rel_err", "gamma", "_log_gamma", "bins", "zero_count",
                 "n", "min", "max")

    def __init__(self, rel_err: float = 0.01):
        if not 0.0 < rel_err < 1.0:
            raise ValueError("rel_err must be in (0, 1)")
        self.rel_err = rel_err
        self.gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(self.gamma)
        self.bins: Dict[int, int] = {}
        self.zero_count = 0
        self.n = 0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.n += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        idx = math.ceil(math.log(value) / self._log_gamma)
        self.bins[idx] = self.bins.get(idx, 0) + 1

    def _estimate(self, idx: int) -> float:
        return 2.0 * self.gamma ** idx / (self.gamma + 1.0)

    def quantile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0 < pct <= 100).

        Matches the nearest-rank convention of
        :func:`repro.metrics.summary.percentile`: rank
        ``max(1, ceil(pct/100 * n))``.  Empty sketch -> 0.0.
        """
        if self.n == 0:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * self.n))
        if rank <= self.zero_count:
            # exact: everything in the zero bucket was <= 0; nearest-rank
            # over non-positive values is dominated by min for estimates
            return min(self.min, 0.0)
        seen = self.zero_count
        for idx in sorted(self.bins):
            seen += self.bins[idx]
            if seen >= rank:
                est = self._estimate(idx)
                # clamp: the true rank value lies in [min, max]
                return min(max(est, self.min), self.max)
        return self.max  # unreachable unless counts drifted

    def merge(self, other: "LogBinHistogram") -> None:
        if abs(other.gamma - self.gamma) > 1e-12:
            raise ValueError("cannot merge sketches with different gamma")
        for idx, count in other.bins.items():
            self.bins[idx] = self.bins.get(idx, 0) + count
        self.zero_count += other.zero_count
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "rel_err": self.rel_err,
            "n": self.n,
            "min": None if self.n == 0 else self.min,
            "max": None if self.n == 0 else self.max,
            "zero_count": self.zero_count,
            "bins": {str(k): v for k, v in sorted(self.bins.items())},
        }

    def __len__(self) -> int:
        return self.n


class SloRecorder:
    """Per-(dimension) latency histograms behind one hub attribute.

    * ``op(kind, dc, ms)`` — client-observed operation latency, keyed by
      (op kind, serving DC);
    * ``visibility(origin, dest, total_ms, extra_ms)`` — remote-visibility
      latency per (origin DC, destination DC), total and extra-over-network.

    All streams are :class:`LogBinHistogram`, so a million-op run costs a
    few hundred bins per stream instead of a few million floats.
    """

    __slots__ = ("rel_err", "op_latency", "vis_total", "vis_extra")

    def __init__(self, rel_err: float = 0.01):
        self.rel_err = rel_err
        self.op_latency: Dict[Tuple[str, int], LogBinHistogram] = {}
        self.vis_total: Dict[Tuple[int, int], LogBinHistogram] = {}
        self.vis_extra: Dict[Tuple[int, int], LogBinHistogram] = {}

    def _get(self, table: dict, key) -> LogBinHistogram:
        sk = table.get(key)
        if sk is None:
            sk = table[key] = LogBinHistogram(self.rel_err)
        return sk

    def op(self, kind: str, dc: int, latency_ms: float) -> None:
        self._get(self.op_latency, (kind, dc)).add(latency_ms)

    def visibility(self, origin: int, dest: int, total_ms: float,
                   extra_ms: float) -> None:
        self._get(self.vis_total, (origin, dest)).add(total_ms)
        self._get(self.vis_extra, (origin, dest)).add(extra_ms)
