"""Network latency models.

The paper's testbed emulates WAN delays with netem: round-trip times of 80 ms
between dc1↔dc2 and dc1↔dc3, and 160 ms between dc2↔dc3 (approximating
Virginia / Oregon / Ireland on EC2).  :class:`RttMatrix` reproduces exactly
that; :class:`ConstantLatency` and :class:`JitteredLatency` serve unit tests
and micro-experiments.

All models return **one-way** delays in seconds for a concrete (src, dst)
process pair; site membership is read from ``process.site``.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "JitteredLatency",
    "RttMatrix",
    "PAPER_RTT_MS",
    "paper_topology",
]

#: RTTs used throughout the paper's evaluation (§7.2), in milliseconds.
PAPER_RTT_MS: tuple[tuple[float, float, float], ...] = (
    (0.0, 80.0, 80.0),
    (80.0, 0.0, 160.0),
    (80.0, 160.0, 0.0),
)


class LatencyModel:
    """Interface: one-way delay for a (src, dst) process pair."""

    def delay(self, src, dst, rng: random.Random) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed one-way delay for every pair (unit-test friendly)."""

    def __init__(self, delay_s: float = 0.0001):
        self.delay_s = delay_s

    def delay(self, src, dst, rng: random.Random) -> float:
        return self.delay_s


class JitteredLatency(LatencyModel):
    """Base delay plus uniform jitter in ``[0, jitter_s]``."""

    def __init__(self, base_s: float, jitter_s: float):
        self.base_s = base_s
        self.jitter_s = jitter_s

    def delay(self, src, dst, rng: random.Random) -> float:
        return self.base_s + rng.random() * self.jitter_s


class RttMatrix(LatencyModel):
    """Site-to-site delays from an RTT matrix, plus intra-site LAN delay.

    One-way delay between different sites is ``rtt/2`` plus a small relative
    jitter; within a site it is ``intra_us`` microseconds (a Gigabit-switch
    LAN hop, as in the paper's private cloud) plus jitter.
    """

    def __init__(self, rtt_ms: Sequence[Sequence[float]] = PAPER_RTT_MS,
                 intra_us: float = 150.0, jitter_frac: float = 0.02):
        self.rtt_ms = [list(row) for row in rtt_ms]
        self.intra_us = intra_us
        self.jitter_frac = jitter_frac
        n = len(self.rtt_ms)
        for row in self.rtt_ms:
            if len(row) != n:
                raise ValueError("RTT matrix must be square")
        #: jitter-free one-way seconds per (src site, dst site), computed
        #: once so that :meth:`delay` is two index operations
        self._one_way = [
            [intra_us / 1e6 if i == j else rtt / 2.0 / 1e3
             for j, rtt in enumerate(row)]
            for i, row in enumerate(self.rtt_ms)]

    @property
    def n_sites(self) -> int:
        return len(self.rtt_ms)

    def one_way_s(self, src_site: int, dst_site: int) -> float:
        """Deterministic (jitter-free) one-way delay between two sites."""
        return self._one_way[src_site][dst_site]

    def delay(self, src, dst, rng: random.Random) -> float:
        base = self._one_way[src.site][dst.site]
        if self.jitter_frac:
            base *= 1.0 + rng.random() * self.jitter_frac
        return base


def paper_topology(n_sites: int = 3, intra_us: float = 150.0,
                   jitter_frac: float = 0.02) -> RttMatrix:
    """The paper's 3-DC topology; for other sizes, a ring-distance synthetic.

    For ``n_sites != 3`` we synthesize RTTs of ``80 * ring-distance`` ms,
    which preserves the property that some DC pairs are twice as far apart
    as others (the ingredient behind GentleRain's false-dependency delays).
    """
    if n_sites == 3:
        return RttMatrix(PAPER_RTT_MS, intra_us=intra_us, jitter_frac=jitter_frac)
    rtt = [[0.0] * n_sites for _ in range(n_sites)]
    for i in range(n_sites):
        for j in range(n_sites):
            if i != j:
                ring = min(abs(i - j), n_sites - abs(i - j))
                rtt[i][j] = 80.0 * ring
    return RttMatrix(rtt, intra_us=intra_us, jitter_frac=jitter_frac)
