"""Cure (Akkoorath et al., ICDCS'16): vector global stable time.

The causal-consistency core of Cure, as the Eunomia paper uses it for
comparison: updates carry a vector with one entry per datacenter, partitions
maintain a Global Stable Vector (GSV), and a remote update is visible when
the GSV covers the entries of every *other* datacenter in its dependency
vector.  Compared with GentleRain:

* no false cross-datacenter dependencies → much better visibility latency
  on near pairs (Figure 6 left);
* per-op vector stamping/storage/comparison roughly doubles the metadata
  handling cost, and the per-round stabilization work grows with M → lower
  throughput (Figure 5), and on far pairs the vector buys nothing, so
  GentleRain comes out *ahead* there (Figure 6 right).

The deferred-update set is run-aware by default
(``pending_backend="runs"``), mirroring Eunomia's own buffer and
GentleRain's pending set; ``"scan"`` retains the classic whole-set rescan
as an ablation.  Unlike those two, Cure's release gate is a *vector*
comparison, which admits no total order — see :class:`_PendingRuns` for
why per-origin runs still work.
"""

from __future__ import annotations


from collections import deque
from typing import Optional

from ..calibration import Calibration
from ..clocks.physical import PhysicalClock
from ..core.messages import ClientUpdate
from ..core.protocols import register_protocol
from ..kvstore.types import Update
from ..metrics.collector import MetricsHub
from ..sim.env import Environment
from ..sim.process import CostModel
from .gst import (
    GstPartition,
    GstProtocol,
    GstTimings,
    UNTRACKED,
    check_pending_backend,
)

__all__ = ["CurePartition", "CureProtocol"]

PENDING_BACKENDS = ("runs", "scan")


class _PendingRuns:
    """Per-origin runs for a *vector*-gated pending set.

    Correctness for the non-totally-ordered case: GentleRain's scalar gate
    admits a total order (a heap, or Eunomia-style merged runs), but Cure's
    gate — ``vts[d] <= GSV[d]`` for every remote ``d`` — does not: two
    pending updates can each be blocked by a different vector entry, so no
    single priority admits pop-until-blocked.  Per-origin runs still work,
    on two facts:

    1. Updates from origin ``k`` arrive over one FIFO link (the same-index
       sibling partition) with strictly increasing ``vts[k]`` (hybrid-clock
       Property 2), so appending keeps each run sorted by the origin's own
       entry — O(1) ingestion, no comparisons.
    2. The gate includes the origin's own entry, so any update with
       ``vts[k] > GSV[k]`` is unreleasable *regardless of its other
       entries*.  Scanning only the prefix with ``vts[k] <= GSV[k]`` can
       therefore never miss a releasable update; the suffix is untouched.

    Within that covered prefix an update may still be blocked by *another*
    entry; blocked items are put back at the head in their original
    relative order, which preserves fact 1's sortedness.  The per-round
    cost drops from O(whole pending set) to O(covered prefixes), and
    installs stay deterministic (origins in dict insertion order — the
    order each origin first deferred, itself deterministic under the
    simulator — FIFO within an origin); the final store is
    backend-invariant because installs go through LWW puts.
    """

    __slots__ = ("_runs", "_size")

    def __init__(self) -> None:
        self._runs: dict[int, deque] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, origin: int, update: Update, arrival: float) -> None:
        run = self._runs.get(origin)
        if run is None:
            run = self._runs[origin] = deque()
        run.append((update, arrival))
        self._size += 1

    def pop_covered(self, gsv: tuple, releasable) -> list:
        """Remove and return every releasable (update, arrival), in
        per-origin FIFO order; blocked prefix items stay queued."""
        released = []
        for k, run in self._runs.items():
            blocked = []
            while run and run[0][0].vts[k] <= gsv[k]:
                item = run.popleft()
                if releasable(item[0]):
                    released.append(item)
                    self._size -= 1
                else:
                    blocked.append(item)
            if blocked:
                run.extendleft(reversed(blocked))
        return released


class CurePartition(GstPartition):
    """GSV flavor: vector timestamps, per-entry visibility gate."""

    flavor = "cure"

    @staticmethod
    def summary_width_static(n_dcs: int) -> int:
        return n_dcs

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, timings: GstTimings,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None,
                 pending_backend: str = "runs"):
        cal = calibration or Calibration()
        cost_model = CostModel(costs={
            "ClientRead": (cal.cost("partition_read")
                           + cal.cost("cure_read_extra")),
            "ClientUpdate": (cal.cost("partition_update")
                             + cal.cost("cure_update_extra")),
            "RemoteData": cal.cost("partition_apply_remote"),
            "GstHeartbeat": cal.overhead("gst_heartbeat"),
            "GstReport": cal.overhead("gst_heartbeat"),
            "GstBroadcast": cal.overhead("cure_gst_round"),
        })
        super().__init__(env, name, dc_id, index, n_dcs, clock, timings,
                         summary_width=n_dcs, cost_model=cost_model,
                         metrics=metrics)
        check_pending_backend(pending_backend, PENDING_BACKENDS)
        self.pending_backend = pending_backend
        if pending_backend == "runs":
            self._pending = _PendingRuns()

    # -- timestamping ----------------------------------------------------
    def _stamp(self, msg: ClientUpdate) -> Update:
        m = self.dc_id
        ts = self.hlc.update(msg.client_vts[m])
        vts = msg.client_vts[:m] + (ts,) + msg.client_vts[m + 1:]
        self._seq = getattr(self, "_seq", 0) + 1
        return Update(
            key=msg.key, value=msg.value, origin_dc=m,
            partition_index=self.index, seq=self._seq, ts=ts, vts=vts,
            commit_time=self.now, value_bytes=msg.value_bytes,
        )

    # -- visibility gate ---------------------------------------------------
    def _releasable(self, update: Update) -> bool:
        gsv = self.summary
        for d in range(self.n_dcs):
            if d == self.dc_id:
                continue  # local dependencies are locally visible already
            if update.vts[d] > gsv[d]:
                return False
        return True

    def _defer(self, update: Update, arrival: float) -> None:
        if self.pending_backend == "runs":
            self._pending.add(update.origin_dc, update, arrival)
            return
        self._pending.append((update, arrival))

    def _release_ready(self) -> None:
        if self.pending_backend == "runs":
            # Batched drain (GstPartition._install_many): installs are
            # summary-gated, never store-gated, so draining after the pop
            # is order-identical to interleaved per-op installs.
            self._install_many(self._pending.pop_covered(
                self.summary, self._releasable))
            return
        # Classic ablation: rescan the whole pending set every round.
        still_pending = []
        released = []
        for item in self._pending:
            if self._releasable(item[0]):
                released.append(item)
            else:
                still_pending.append(item)
        self._pending = still_pending
        self._install_many(released)

    # -- stabilization contribution ---------------------------------------
    def _local_summary(self) -> tuple:
        # Partial placement: entries for origins this partition does not
        # track report the UNTRACKED sentinel (+inf under the aggregator's
        # min), so the DC-wide GSV entry for origin d is bounded only by
        # the partitions that actually receive d's stream — and is the
        # sentinel itself when none does, releasing dependencies on d
        # unconditionally (nothing from d can be resident here then).
        if self.tracked is None:
            return tuple(self.vv)
        return tuple(self.vv[d] if d in self.tracked else UNTRACKED
                     for d in range(self.n_dcs))


class CureProtocol(GstProtocol):
    """Deployment plugin: GST partitions with the vector summary; the
    ``pending_backend`` axis ("runs" default, "scan" ablation) threads
    through the spine's option dict."""

    partition_cls = CurePartition
    pending_backends = PENDING_BACKENDS


register_protocol(CureProtocol())
