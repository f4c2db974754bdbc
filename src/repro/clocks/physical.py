"""Drifting physical clocks.

The paper assumes each partition has a physical clock, loosely synchronized
with NTP; correctness never depends on precision, but large skew hurts how
fast updates stabilize (§3.2).  :class:`PhysicalClock` models exactly that: a
clock reads true simulation time scaled by a drift rate plus an offset.
:class:`repro.clocks.ntp.NtpSynchronizer` periodically bounds the offset the
way a near NTP server would.

Clock readings are **integer microseconds** — the unit used for every
protocol timestamp in this code base.  Reads are monotone non-decreasing even
when NTP steps a fast clock backwards (a real clock discipline slews; we
clamp, which preserves the paper's Property 2 requirements).
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim.env import Environment

__all__ = ["PhysicalClock"]

US = 1_000_000  # microseconds per second


class PhysicalClock:
    """A per-process clock: ``reading = true_time * (1 + drift) + offset``."""

    def __init__(self, env: Environment, drift_ppm: float = 0.0,
                 offset_us: float = 0.0):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.drift_ppm = drift_ppm
        self.offset_us = offset_us
        self._last_reading = 0

    @classmethod
    def random(cls, env: Environment, rng: random.Random,
               max_drift_ppm: float = 50.0,
               max_offset_us: float = 500.0) -> "PhysicalClock":
        """A clock with drift/offset drawn uniformly from ±max bounds.

        50 ppm drift and sub-millisecond initial offset are typical for
        NTP-disciplined servers on a LAN, matching the paper's testbed.
        """
        return cls(
            env,
            drift_ppm=rng.uniform(-max_drift_ppm, max_drift_ppm),
            offset_us=rng.uniform(-max_offset_us, max_offset_us),
        )

    def read_us(self) -> int:
        """Current clock value in integer microseconds (monotone)."""
        true_us = self._loop._now * US
        raw = true_us * (1.0 + self.drift_ppm / 1e6) + self.offset_us
        reading = int(raw)
        if reading < self._last_reading:
            reading = self._last_reading
        else:
            self._last_reading = reading
        return reading

    def skew_us(self) -> float:
        """Signed error versus true time, in microseconds (for diagnostics)."""
        true_us = self.env.loop.now * US
        return true_us * (self.drift_ppm / 1e6) + self.offset_us

    def set_drift(self, drift_ppm: float) -> None:
        """Re-rate the oscillator without stepping the current reading.

        Fault injection mutates drift mid-run (thermal events, a VM landing
        on a worse host).  A naive ``self.drift_ppm = x`` would be
        retroactive — the new rate re-scales all *past* true time, stepping
        the phase by an amount proportional to how long the run has been
        going.  Rebasing the offset keeps the reading continuous: only time
        *after* this instant accumulates at the new rate.
        """
        true_us = self.env.loop.now * US
        current = true_us * (1.0 + self.drift_ppm / 1e6) + self.offset_us
        self.drift_ppm = drift_ppm
        self.offset_us = current - true_us * (1.0 + drift_ppm / 1e6)

    def step_us(self, delta_us: float) -> None:
        """Step the phase by ``delta_us`` (fault injection).

        Positive steps jump the reading forward immediately; negative steps
        are absorbed by the monotone read clamp (the clock holds still until
        true time catches up — the slewing behaviour a sane clock discipline
        exhibits, and what keeps Property 2 intact under injected steps).
        """
        self.offset_us += delta_us

    def ntp_correct(self, residual_us: float) -> None:
        """Discipline the clock: reset accumulated offset to ``residual_us``.

        Called by the NTP model.  The drift rate is left untouched (NTP
        corrects phase much faster than frequency), so between corrections
        the offset re-grows at ``drift_ppm`` µs/s.
        """
        true_us = self.env.loop.now * US
        self.offset_us = residual_us - true_us * (self.drift_ppm / 1e6)
