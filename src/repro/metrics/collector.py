"""Measurement collection.

One :class:`MetricsHub` per experiment gathers everything the paper's
figures, the goldens, ``perf/`` and the SLO report read — each measured
value is stored once, here:

* **marks** — event-time streams (one timestamp per completed op), from
  which windowed throughput timelines are derived (Figures 4 and 7);
* **points** — (time, value) series: operation latency per op kind and
  serving DC, visibility latency per DC pair, gauge readings.

Recording is O(1) appends; all statistics are computed after the run by
:mod:`repro.metrics.summary`.  The hub belongs to the run's
:class:`~repro.sim.env.Environment`, which builds it; every process reads
it once as ``self.metrics`` (``Process.__init__``), so no component is
built without one and no component can record into another.  A test that
wants a silent run monkeypatches the recording methods.

The store is columnar: every mark series is one ``array('d')`` and every
point series two parallel ones (times, values) — 8 bytes per recorded
number, where a list of boxed floats costs 32 per value and a list of
``(t, v)`` tuples 112 per point.  Values are therefore stored as C doubles
(an ``int`` comes back as a ``float``); the query methods rebuild the
``list`` / ``list[tuple]`` shapes callers have always read.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import repeat

__all__ = ["MetricsHub"]


def _column() -> array:
    return array("d")


class MetricsHub:
    """Append-only measurement store for a single experiment run."""

    def __init__(self) -> None:
        self.marks: dict[str, array] = defaultdict(_column)
        #: name -> (times, values), two columns of equal length
        self.points: dict[str, tuple[array, array]] = defaultdict(
            lambda: (_column(), _column()))
        # Observability hook (repro.obs): components fetch it and test for
        # None, so a hub without a tracer attached costs one attribute read
        # per call site.
        self.tracer = None     # repro.obs.trace.Tracer when attached

    # -- recording ------------------------------------------------------
    def mark(self, name: str, time: float) -> None:
        """Register that event ``name`` occurred at ``time``."""
        self.marks[name].append(time)

    def mark_many(self, name: str, time: float, n: int) -> None:
        """Register ``n`` occurrences of event ``name``, all at ``time`` —
        the shape of a stabilization round marking a whole stable run at
        once.  One C-level ``extend`` replaces n ``mark()`` calls on the
        propagation hot path; ``n <= 0`` records nothing (no phantom empty
        series)."""
        if n > 0:
            self.marks[name].extend(repeat(time, n))

    def point(self, name: str, time: float, value: float) -> None:
        """Append a (time, value) pair to the series ``name``."""
        times, values = self.points[name]
        times.append(time)
        values.append(value)

    # -- lightweight queries (heavier math lives in summary.py) ---------
    # Query methods return *copies*: the internal columns keep growing
    # while the simulation runs, so handing them out live would let summary
    # code mutate (or observe a moving view of) a run mid-flight.
    def mark_times(self, name: str) -> list[float]:
        return list(self.marks.get(name, ()))

    def point_series(self, name: str) -> list[tuple[float, float]]:
        columns = self.points.get(name)
        return list(zip(*columns)) if columns else []

