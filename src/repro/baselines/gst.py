"""Global-stabilization stores: GentleRain and Cure over one machinery.

Both baselines avoid sequencers by running a periodic, datacenter-wide
computation: each partition tracks a version vector ``VV[d]`` — the largest
timestamp received from its sibling partition in datacenter ``d`` (advanced
by remote updates and by periodic cross-DC heartbeats) — and periodically
reports a local stable summary to a per-DC aggregator, which broadcasts the
minimum back.  A remote update becomes *visible* only once the global
summary covers it:

* **GentleRain** (Du et al., SoCC'14) compresses everything into one scalar
  GST: an update with timestamp ``ts`` is visible when ``GST >= ts``.
  Cheapest metadata of the causal systems, but the minimum spans *all*
  datacenters, so an update from a nearby DC waits for heartbeat
  round-trips from the farthest one (false dependencies — the 40 ms floor
  in Figure 6 left).
* **Cure** (Akkoorath et al., ICDCS'16) keeps a vector GSV (entry per DC):
  visibility only waits for the entries the update actually depends on —
  better latency on near pairs, heavier metadata (the throughput gap
  between the two in Figure 5), and nothing gained on far pairs, where
  GentleRain comes out *ahead* (Figure 6 right).

The protocol cost is charged in two places, matching the paper's analysis:
a per-operation metadata-handling surcharge (Cure ≈ 2× GentleRain), and a
per-round stabilization cost at every partition — which is why shrinking the
"clock computation interval" hurts throughput (Figure 1).  Both land on the
partition's foreground ``cpu`` lane, but only the first is *served* there.
The stabilization plane itself — sibling heartbeats, reports, the summary
broadcast — is a background exchange on its own ``stabilization`` lane, so
visibility is heartbeat period + stabilization period + one-way delays and
never a function of foreground load (``tests/test_stage_model.py`` holds it
to that closed form); the round's cost is a ``cpu`` slot reserved when the
broadcast is handled, with no completion event: client operations queue
behind the round exactly as if it had been served there, the round does not
queue behind them.  (It once did: client service times are ×10-scaled and
the intervals are not, which put Cure's median extra visibility at 22 ms
where the intervals give 9.7 — docs/ARCHITECTURE.md, "Lanes".)

One modelling note: GentleRain tags updates with pure physical clocks and
*delays* an update whose dependency timestamp is at or above the local
clock.  With NTP-disciplined clocks the wait is sub-millisecond; we use the
hybrid-clock bump instead of an artificial sleep, which has the same
ordering effect and differs only by that negligible wait (§3.2 of the
Eunomia paper discusses exactly this trade).

:class:`GstPartition` is the whole machinery over the shared
:class:`~repro.core.partition.StoragePartition` — the deferred set,
aggregation and re-election, the cost table; :class:`GentleRainPartition`
and :class:`CurePartition` add only what differs between a scalar and a
vector cut (the stamp, the release gate with its per-origin bound, and the
summary contribution).  The deferred set is the repository's one deferral
structure, a :class:`~repro.datastruct.runbuffer.RunBuffer`: one run per
origin DC of ``(ts, origin, update, arrival)`` entries — each origin's
updates arrive over one FIFO sibling link with a growing ``ts``
(Property 2) — drained by its gated per-origin drain, origins in the order
each first deferred, FIFO within an origin.
Each is deployed over the shared spine by a :class:`GstProtocol` plugin
(:mod:`repro.core.protocols`) — the only protocol-specific deployment
pieces are the partitions themselves and the per-DC aggregator wiring.
"""

from __future__ import annotations

from typing import Optional

from ..calibration import Calibration
from ..clocks.physical import PhysicalClock
from ..clocks.vector import vc_merge, vc_zero
from ..core.messages import ClientUpdate, ClientUpdateReply, RemoteData
from ..core.partition import StoragePartition
from ..core.protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    register_protocol,
)
from ..datastruct.runbuffer import RunBuffer
from ..kvstore.types import Update
from ..sim.env import Environment
from ..sim.process import Process
from .messages import GstBroadcast, GstHeartbeat, GstReport

__all__ = ["GST_HEARTBEAT_INTERVAL", "DEFAULT_GST_INTERVAL", "GstPartition",
           "GentleRainPartition", "CurePartition", "GstProtocol", "UNTRACKED"]

#: Summary entry for an origin DC a partition does not track (partial
#: placement: no sibling there).  Acts as +inf under the aggregator's
#: elementwise min, so untracked origins never cap — and never stall —
#: the DC-wide GST/GSV.  Releasing on a sentinel entry is safe: if *no*
#: resident partition tracks origin ``d``, then no partition stored both
#: here and at ``d`` exists, so no dependency on ``d`` can be resident
#: here either (it could never be read at this DC).
UNTRACKED = 1 << 62

#: Sibling-heartbeat period (paper §7.2: 10 ms).  No figure varies it.
GST_HEARTBEAT_INTERVAL = 0.010

#: The GST round's period — report, aggregate, broadcast — when the
#: ``gst_interval=`` option is not given (paper §7.2: 5 ms).  Figure 1
#: sweeps the option.
DEFAULT_GST_INTERVAL = 0.005


class GstPartition(StoragePartition):
    """A partition of a global-stabilization store (GentleRain/Cure core).

    Subclasses define ``flavor``, the summary width (1 or M), timestamping
    (:meth:`_stamp`), the release gate (:meth:`_releasable` with its
    per-origin bound :meth:`_covered_bound`) and :meth:`_local_summary`.
    """

    #: overridden by subclasses; also the calibration-key prefix
    flavor = "gst"

    #: The stabilization plane (sibling heartbeats, reports, the summary
    #: broadcast) is a background exchange: like remote replication it
    #: never waits behind foreground client operations.
    LANES = {**StoragePartition.LANES,
             "GstHeartbeat": "stabilization", "GstReport": "stabilization",
             "GstBroadcast": "stabilization"}

    @staticmethod
    def summary_width_static(n_dcs: int) -> int:
        """Entries in the flavor's summary (and in client session vectors)."""
        raise NotImplementedError

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, gst_interval: float,
                 calibration: Optional[Calibration] = None):
        cal = calibration or Calibration()
        flavor = self.flavor
        super().__init__(env, name, dc_id, index, n_dcs, clock, {
            "ClientRead": (cal.cost("partition_read")
                           + cal.cost(f"{flavor}_read_extra")),
            "ClientUpdate": (cal.cost("partition_update")
                             + cal.cost(f"{flavor}_update_extra")),
            "RemoteData": cal.cost("partition_apply_remote"),
            "GstHeartbeat": cal.overhead("gst_heartbeat"),
            "GstReport": cal.overhead("gst_heartbeat"),
            # handled on arrival; the round's cost is a ``cpu`` slot that
            # :meth:`on_gst_broadcast` reserves (module docstring)
            "GstBroadcast": 0.0,
        })
        self._round_cost = cal.overhead(f"{flavor}_gst_round")
        self.gst_interval = gst_interval
        self.summary_width = self.summary_width_static(n_dcs)
        self.zero_vts = vc_zero(self.summary_width)
        self.vv = [0] * n_dcs                  # VV[d]: max ts seen from dc d
        self.summary = (0,) * self.summary_width  # GST (w=1) / GSV (w=M)
        self.aggregator: Optional[Process] = None
        #: every resident partition knows the DC roster, wired by the site
        #: (re-election needs it).  It holds only the DC's *resident*
        #: partitions, and ``roster_pos`` is this partition's position in
        #: it (== ``index`` under full replication) — all aggregator
        #: bookkeeping (views, report keys, broadcast senders) runs on
        #: roster positions, never raw partition indices.
        self.local_partitions: list[Process] = []
        self.roster_pos = index
        #: origins contributing to the stable summary: the DCs that also
        #: store this partition (ascending, including this DC); all M
        #: until the site's placement narrows it
        self.tracked: tuple = tuple(range(n_dcs))
        self._reports: dict[int, tuple] = {}        # current aggregator only
        self._report_seen: dict[int, float] = {}    # report freshness times
        #: which roster index this partition currently believes aggregates
        self.aggregator_view = 0
        self._last_broadcast_seen = 0.0
        self._tenure_start = 0.0                    # when we last took office
        self._aggregate_task = None
        self.aggregator_failovers = 0
        #: the deferred set: origin dc -> (ts, origin, update, arrival)
        self._pending = RunBuffer()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_aggregator(self) -> bool:
        return self.aggregator_view == self.roster_pos

    def start(self) -> None:
        self.periodic(GST_HEARTBEAT_INTERVAL, self._send_heartbeats)
        self.periodic(self.gst_interval, self._report,
                      phase=self.gst_interval * 0.5)
        # Fresh grace periods: a just-(re)started partition gives the
        # aggregator a full timeout before suspecting it, and — if it is the
        # aggregator — gives every roster member a full timeout to report
        # before aggregating without them.
        self._last_broadcast_seen = self.now
        self._tenure_start = self.now
        if self.is_aggregator:
            self._arm_aggregate()

    def _arm_aggregate(self) -> None:
        if self._aggregate_task is not None:
            self._aggregate_task.cancel()
        self._aggregate_task = self.periodic(self.gst_interval,
                                             self._aggregate,
                                             phase=self.gst_interval)

    def _aggregator_timeout(self) -> float:
        """Aggregator liveness bound, ``10 × gst_interval``: a partition
        that has seen no GST/GSV broadcast for this long presumes the
        aggregator dead and advances its aggregator view round-robin.  The
        same bound ages out reports at the aggregator, so a dead partition
        stops capping the minimum.  This is the bounded timeout behind
        aggregator re-election; without it a crashed aggregator freezes the
        whole DC's stabilization forever."""
        return 10 * self.gst_interval

    def recover(self) -> None:
        """Restart after a crash-stop with protocol state intact.

        Crashing bumps the process epoch, which kills the periodic
        heartbeat/report/aggregate tasks — re-arm them so the partition
        resumes participating in stabilization (its VV/summary then catch
        up from fresh heartbeats; updates dropped while down are simply
        lost, as for any crash-stop store without a recovery log).
        """
        super().recover()
        self.start()

    # ------------------------------------------------------------------
    # Client updates
    # ------------------------------------------------------------------
    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        update = self._stamp(msg)
        self._commit_local(update)
        self._replicate(update)
        self.send(src, ClientUpdateReply(update.vts, msg.request_id))

    def _stamp(self, msg: ClientUpdate) -> Update:
        """Flavor-specific timestamping (through :meth:`_new_update`); must
        keep Property-1-style order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Replication in
    # ------------------------------------------------------------------
    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        update = msg.update
        k = update.origin_dc
        if update.ts > self.vv[k]:
            self.vv[k] = update.ts
        if self._releasable(update):
            self._install(((update, self.now),))
        else:
            self._defer(update, arrival=self.now)

    def _releasable(self, update: Update) -> bool:
        """The flavor's visibility gate against the current summary."""
        raise NotImplementedError

    def _covered_bound(self, origin: int) -> int:
        """Largest own entry (``ts``) of an update from ``origin`` that
        :meth:`_releasable` can pass — the gate's term for the origin."""
        raise NotImplementedError

    def _defer(self, update: Update, arrival: float) -> None:
        """Queue an update whose visibility the summary does not yet cover."""
        self._pending.add(update.ts, update.origin_dc, update, arrival)

    def _release_ready(self) -> None:
        """Install every deferred update the new summary covers.  Installs
        are summary-gated, never store-gated, so draining after the pop is
        order-identical to interleaved per-update installs."""
        if not self._pending:
            return
        released = self._pending.pop_releasable(self._covered_bound,
                                                self._releasable)
        self._install([entry[2:] for entry in released])

    # ------------------------------------------------------------------
    # Stabilization rounds
    # ------------------------------------------------------------------
    def _send_heartbeats(self) -> None:
        # Heartbeat timestamps must never run ahead of a later update's
        # timestamp; folding the value into the hybrid clock guarantees it.
        ts = max(self.clock.read_us(), self.hlc.last)
        self.hlc.observe(ts)
        beat = GstHeartbeat(self.dc_id, self.index, ts)
        self.multicast(self.siblings.values(), beat)

    def on_gst_heartbeat(self, msg: GstHeartbeat, src: Process) -> None:
        if msg.ts > self.vv[msg.origin_dc]:
            self.vv[msg.origin_dc] = msg.ts

    def _local_summary(self) -> tuple:
        """The partition's contribution to the DC-wide minimum."""
        raise NotImplementedError

    def _report(self) -> None:
        # Aggregator liveness check rides the report tick (no extra timer,
        # no extra messages): broadcasts normally arrive every gst_interval,
        # so ten silent intervals mean the aggregator is gone —
        # advance the view round-robin.  Every partition advances from the
        # same view, so they converge on the same successor; if that one is
        # dead too, the next timeout advances again (recovery is bounded by
        # roster_size × timeout).
        if self.now - self._last_broadcast_seen > self._aggregator_timeout():
            self._advance_aggregator()
        self.vv[self.dc_id] = max(self.vv[self.dc_id], self.clock.read_us())
        self.send(self.aggregator,
                  GstReport(self.roster_pos, self._local_summary()))

    def _advance_aggregator(self) -> None:
        roster = self.local_partitions
        self.aggregator_view = (self.aggregator_view + 1) % len(roster)
        self.aggregator = roster[self.aggregator_view]
        self._last_broadcast_seen = self.now   # full grace for the successor
        self.aggregator_failovers += 1
        if self.is_aggregator:
            self._tenure_start = self.now
            self._arm_aggregate()
        elif self._aggregate_task is not None:
            self._aggregate_task.cancel()
            self._aggregate_task = None

    def on_gst_report(self, msg: GstReport, src: Process) -> None:
        self._reports[msg.partition_index] = msg.value
        self._report_seen[msg.partition_index] = self.now

    def _aggregate(self) -> None:
        if not self.is_aggregator:
            return  # stood down with a firing still queued
        now = self.now
        timeout = self._aggregator_timeout()
        values = []
        for i in range(len(self.local_partitions)):
            value = self._reports.get(i)
            if value is not None and now - self._report_seen[i] <= timeout:
                values.append(value)            # a fresh report
            elif value is None and now - self._tenure_start <= timeout:
                # Never reported, but this aggregator is newly in office:
                # wait the full grace before aggregating without it — on a
                # healthy bootstrap this reduces to the historical
                # "wait until every partition has reported once".
                return
        if not values:
            return
        minimum = tuple(map(min, zip(*values)))
        broadcast = GstBroadcast(minimum, self.roster_pos)
        self.multicast(self.local_partitions, broadcast)

    def on_gst_broadcast(self, msg: GstBroadcast, src: Process) -> None:
        now = self.now
        # The round's work occupies the foreground server from now on:
        # client operations queue behind it, it queues behind nothing.
        cpu = self._lanes["cpu"]
        cpu.busy = max(now, cpu.busy) + self._round_cost
        self._last_broadcast_seen = now
        if msg.sender != self.aggregator_view:
            # Someone else is aggregating.  Ω-style min-index tie-break: a
            # partition that is itself aggregating stands down only for a
            # lower-index sender (so a recovered index-0 aggregator retakes
            # office and a transient dual-aggregator episode converges
            # instead of flapping); everyone else adopts the sender
            # unconditionally.  Duplicate aggregation is safe meanwhile —
            # summaries only ever merge monotonically.
            if not (self.is_aggregator and msg.sender > self.roster_pos):
                self.aggregator_view = msg.sender
                self.aggregator = self.local_partitions[msg.sender]
                if self._aggregate_task is not None and not self.is_aggregator:
                    self._aggregate_task.cancel()
                    self._aggregate_task = None
        merged = vc_merge(self.summary, msg.value)
        if merged != self.summary:
            self.summary = merged
            self._release_ready()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)


class GentleRainPartition(GstPartition):
    """GST flavor: scalar timestamps, visibility gate ``ts <= GST``."""

    flavor = "gentlerain"

    @staticmethod
    def summary_width_static(n_dcs: int) -> int:
        return 1

    def _stamp(self, msg: ClientUpdate) -> Update:
        ts = self.hlc.update(msg.client_vts[0])
        return self._new_update(msg, ts, (ts,))

    def _releasable(self, update: Update) -> bool:
        return update.ts <= self.summary[0]

    def _covered_bound(self, origin: int) -> int:
        return self.summary[0]      # the whole gate: nothing under it blocks

    def _local_summary(self) -> tuple:
        # The scalar minimum spans only the tracked origins (DCs that also
        # store this partition, plus ourselves) — an origin with no sibling
        # here sends no heartbeats, and letting its frozen VV entry into
        # the min would pin the GST at zero.
        vv = self.vv
        return (min([vv[d] for d in self.tracked]),)


class CurePartition(GstPartition):
    """GSV flavor: vector timestamps, per-entry visibility gate."""

    flavor = "cure"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the entries the gate checks: local dependencies are locally
        #: visible already
        self._remote_dcs = tuple(d for d in range(self.n_dcs)
                                 if d != self.dc_id)

    @staticmethod
    def summary_width_static(n_dcs: int) -> int:
        return n_dcs

    def _stamp(self, msg: ClientUpdate) -> Update:
        m = self.dc_id
        ts = self.hlc.update(msg.client_vts[m])
        return self._new_update(
            msg, ts, msg.client_vts[:m] + (ts,) + msg.client_vts[m + 1:])

    def _releasable(self, update: Update) -> bool:
        gsv = self.summary
        vts = update.vts
        for d in self._remote_dcs:
            if vts[d] > gsv[d]:
                return False
        return True

    def _covered_bound(self, origin: int) -> int:
        return self.summary[origin]     # other entries may still block

    def _local_summary(self) -> tuple:
        # Entries for origins this partition does not track report the
        # UNTRACKED sentinel (+inf under the aggregator's min), so the
        # DC-wide GSV entry for origin d is bounded only by the partitions
        # that actually receive d's stream — and is the sentinel itself
        # when none does, releasing dependencies on d unconditionally
        # (nothing from d can be resident here then).
        vv = self.vv
        summary = [UNTRACKED] * len(vv)
        for d in self.tracked:
            summary[d] = vv[d]
        return tuple(summary)


class GstProtocol(ProtocolSpec):
    """Deployment plugin of a global-stabilization flavor.

    The only protocol-specific pieces of a GST datacenter are the
    partitions (``partition_cls``, a flavor subclass of
    :class:`GstPartition`) and the per-DC aggregator wiring; there is no
    separate stabilizer process and no remote receiver — updates travel
    sibling→sibling and visibility is gated locally by the summary.
    Everything else (frame, clocks, clients, failure injection) comes from
    the spine.  Option: ``gst_interval`` (seconds, default
    :data:`DEFAULT_GST_INTERVAL`).
    """

    def __init__(self, partition_cls: type):
        self.partition_cls = partition_cls
        self.name = partition_cls.flavor

    def client_entries(self, n_dcs: int) -> int:
        return self.partition_cls.summary_width_static(n_dcs)

    def option_names(self) -> tuple:
        return ("gst_interval",)

    def prepare(self, spec, options: dict) -> dict:
        options.setdefault("gst_interval", DEFAULT_GST_INTERVAL)
        return options

    def build_site(self, site: SiteContext) -> SitePlan:
        # All N constructed in index order for clock-stream parity even
        # under partial placement; only residents join the roster below.
        partitions = [
            self.partition_cls(site.env, site.pname(i), site.dc_id, i,
                               site.n_dcs, site.clock(),
                               site.options["gst_interval"],
                               calibration=site.calibration)
            for i in range(site.n_partitions)
        ]
        pmap = site.placement
        roster = [partitions[i] for i in pmap.resident_partitions(site.dc_id)]
        aggregator = roster[0]
        for pos, partition in enumerate(roster):
            # Every resident partition knows the roster: re-election
            # retargets reports and re-arms aggregation without rewiring.
            partition.local_partitions = list(roster)
            partition.aggregator = aggregator
            partition.roster_pos = pos
            # Stable summaries span only the origins that also store this
            # partition — the placement-aware stable cut.
            partition.tracked = pmap.residents(partition.index)
        return SitePlan(partitions=partitions)


register_protocol(GstProtocol(GentleRainPartition))
register_protocol(GstProtocol(CurePartition))
