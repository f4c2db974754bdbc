"""Simulation environment: the bundle every simulated component hangs off.

An :class:`Environment` owns the event loop (always the heap
:class:`~repro.sim.loop.EventLoop`), the root RNG registry and the run's
one :class:`~repro.metrics.collector.MetricsHub`, and — once a
:class:`repro.sim.network.Network` is attached — gives processes a way
to reach each other.  Builders (``repro.geo.system``, baselines, the harness)
create one Environment per experiment; every process records into its
hub.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.collector import MetricsHub
from .loop import EventLoop
from .rng import RngRegistry

__all__ = ["Environment"]


class Environment:
    """Shared simulation state: event loop, RNG streams, metrics, network."""

    def __init__(self, seed: int = 0):
        self.loop = EventLoop()
        self.rng = RngRegistry(seed)
        self.metrics = MetricsHub()
        self.network = None  # attached by Network.__init__
        self._next_pid = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.loop.now

    def now_us(self) -> int:
        """Current *true* simulation time in integer microseconds.

        Individual processes should normally read their own (possibly
        drifting) :class:`repro.clocks.physical.PhysicalClock` instead.
        """
        return int(round(self.loop.now * 1_000_000))

    def allocate_pid(self) -> int:
        """Hand out unique process ids (used for deterministic tie-breaks)."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation (see :meth:`repro.sim.loop.EventLoop.run`)."""
        self.loop.run(until=until)
