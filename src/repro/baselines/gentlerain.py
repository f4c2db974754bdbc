"""GentleRain (Du et al., SoCC'14): scalar global stable time.

Causal metadata is over-compressed into a single physical-clock timestamp
per update; a remote update is visible once the datacenter-wide GST covers
it.  Consequences reproduced here, as in the paper's evaluation:

* cheapest per-op metadata handling of the causal systems (best throughput
  among the global-stabilization baselines, Figure 5);
* visibility latency floored by the *farthest* datacenter regardless of
  where the update came from — the GST cannot exceed what heartbeats from
  every DC support (Figure 6 left: no update visible with less than ~40 ms
  extra delay on the near pair).

One modelling note: GentleRain tags updates with pure physical clocks and
*delays* an update whose dependency timestamp is at or above the local
clock.  With NTP-disciplined clocks the wait is sub-millisecond; we use the
hybrid-clock bump instead of an artificial sleep, which has the same
ordering effect and differs only by that negligible wait (§3.2 of the
Eunomia paper discusses exactly this trade).

The deferred-update set is run-aware by default (``pending_backend="runs"``):
each remote sibling's stream arrives over a FIFO link with strictly
increasing timestamps, so a per-origin :class:`~repro.datastruct.runbuffer.
RunBuffer` gives O(1) deferral and a merge-on-release drain — the same
monotonicity argument as Eunomia's own buffer.  ``"heap"`` retains the
classic global binary heap as an ablation.
"""

from __future__ import annotations


import heapq
from typing import Optional

from ..calibration import Calibration
from ..clocks.physical import PhysicalClock
from ..core.messages import ClientUpdate
from ..core.protocols import register_protocol
from ..datastruct.runbuffer import RunBuffer
from ..kvstore.types import Update
from ..metrics.collector import MetricsHub
from ..sim.env import Environment
from ..sim.process import CostModel
from .gst import GstPartition, GstProtocol, GstTimings, check_pending_backend

__all__ = ["GentleRainPartition", "GentleRainProtocol"]

PENDING_BACKENDS = ("runs", "heap")


class GentleRainPartition(GstPartition):
    """GST flavor: scalar timestamps, visibility gate ``ts <= GST``."""

    flavor = "gentlerain"

    @staticmethod
    def summary_width_static(n_dcs: int) -> int:
        return 1

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, timings: GstTimings,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None,
                 pending_backend: str = "runs"):
        cal = calibration or Calibration()
        cost_model = CostModel(costs={
            "ClientRead": (cal.cost("partition_read")
                           + cal.cost("gentlerain_read_extra")),
            "ClientUpdate": (cal.cost("partition_update")
                             + cal.cost("gentlerain_update_extra")),
            "RemoteData": cal.cost("partition_apply_remote"),
            "GstHeartbeat": cal.overhead("gst_heartbeat"),
            "GstReport": cal.overhead("gst_heartbeat"),
            "GstBroadcast": cal.overhead("gentlerain_gst_round"),
        })
        super().__init__(env, name, dc_id, index, n_dcs, clock, timings,
                         summary_width=1, cost_model=cost_model,
                         metrics=metrics)
        check_pending_backend(pending_backend, PENDING_BACKENDS)
        self.pending_backend = pending_backend
        if pending_backend == "runs":
            self._pending = RunBuffer()

    # -- timestamping ----------------------------------------------------
    def _stamp(self, msg: ClientUpdate) -> Update:
        dependency = msg.client_vts[0]
        ts = self.hlc.update(dependency)
        self._seq = getattr(self, "_seq", 0) + 1
        return Update(
            key=msg.key, value=msg.value, origin_dc=self.dc_id,
            partition_index=self.index, seq=self._seq, ts=ts, vts=(ts,),
            commit_time=self.now, value_bytes=msg.value_bytes,
        )

    # -- visibility gate ---------------------------------------------------
    def _releasable(self, update: Update) -> bool:
        return update.ts <= self.summary[0]

    def _defer(self, update: Update, arrival: float) -> None:
        if self.pending_backend == "runs":
            # O(1): each sibling's stream is FIFO with strictly increasing
            # hybrid timestamps, so per-origin runs stay sorted by appending.
            self._pending.add(update.ts, update.origin_dc, update.seq,
                              (update, arrival))
            return
        self._pending_seq += 1
        heapq.heappush(self._pending,
                       (update.ts, self._pending_seq, update, arrival))

    def _release_ready(self) -> None:
        gst = self.summary[0]
        if self.pending_backend == "runs":
            # Batched drain: one covered-prefix pop, one hoisted install
            # loop (see GstPartition._install_many) — same installs in the
            # same order as the historical per-op calls.
            self._install_many(self._pending.pop_stable(gst))
            return
        released = []
        while self._pending and self._pending[0][0] <= gst:
            _, _, update, arrival = heapq.heappop(self._pending)
            released.append((update, arrival))
        self._install_many(released)

    # -- stabilization contribution ---------------------------------------
    def _local_summary(self) -> tuple:
        # Partial placement: the scalar minimum spans only the tracked
        # origins (DCs that also store this partition, plus ourselves) —
        # an origin with no sibling here sends no heartbeats, and letting
        # its frozen VV entry into the min would pin the GST at zero.
        if self.tracked is None:
            return (min(self.vv),)
        return (min(self.vv[d] for d in self.tracked),)


class GentleRainProtocol(GstProtocol):
    """Deployment plugin: GST partitions with the scalar summary; the
    ``pending_backend`` axis ("runs" default, "heap" ablation) threads
    through the spine's option dict."""

    partition_cls = GentleRainPartition
    pending_backends = PENDING_BACKENDS


register_protocol(GentleRainProtocol())
