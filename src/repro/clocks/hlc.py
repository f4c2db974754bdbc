"""Hybrid logical clocks (Kulkarni et al., OPODIS'14) as used by Eunomia.

The paper folds the hybrid clock into Algorithm 2 line 5::

    MaxTs_n <- MAX(Clock_n, Clock_c + 1, MaxTs_n + 1)

i.e. a single integer timestamp that tracks physical time when possible and
falls back to logical increments when the physical clock lags behind either
the causal past (``Clock_c``) or the partition's own last timestamp.  This
avoids the "wait until the physical clock catches up" stalls of pure
physical-clock designs (Clock-SI, GentleRain) while keeping timestamps close
to real time, which is what makes the site stabilization procedure progress
at wall-clock speed.

:class:`HybridLogicalClock` packages exactly that update rule.
"""

from __future__ import annotations

from .physical import PhysicalClock

__all__ = ["HybridLogicalClock"]


class HybridLogicalClock:
    """Scalar hybrid clock: physical microseconds with logical catch-up."""

    __slots__ = ("physical", "last")

    def __init__(self, physical: PhysicalClock):
        self.physical = physical
        #: the last timestamp generated or observed (0 if none yet); a plain
        #: attribute because the uplink reads it on every idle tick
        self.last = 0

    def tick(self) -> int:
        """Timestamp a local event with no external dependency.

        Equivalent to :meth:`update` with ``dependency = 0``.
        """
        self.last = max(self.physical.read_us(), self.last + 1)
        return self.last

    def update(self, dependency: int) -> int:
        """Timestamp an event that causally follows ``dependency``.

        Implements Algorithm 2 line 5; the returned timestamp is strictly
        greater than both ``dependency`` and every timestamp previously
        produced by this clock (Properties 1 and 2 of the paper).
        """
        self.last = max(self.physical.read_us(), dependency + 1, self.last + 1)
        return self.last

    def observe(self, remote_ts: int) -> None:
        """Fold a timestamp seen from elsewhere into the clock (no event).

        Keeps future :meth:`tick` results above anything already observed;
        used when a partition applies remote updates so that local updates
        overwriting them sort later.
        """
        if remote_ts > self.last:
            self.last = remote_ts

    def logical_lead_us(self) -> int:
        """How far the logical part runs ahead of the physical clock.

        Zero when physical time dominates; grows under clock skew or update
        bursts.  Heartbeat logic (Alg. 2 line 11) consults this: a partition
        only emits a heartbeat when its physical clock has caught up.
        """
        return max(0, self.last - self.physical.read_us())
