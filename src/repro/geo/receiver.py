"""The per-datacenter receiver (Algorithm 5).

The receiver is the counterpart of remote Eunomia services: it takes their
totally-ordered update streams and releases each update to the responsible
local partition once causally safe.  Two conditions gate an update ``u``
from origin ``k`` (Alg. 5 line 12):

1. every earlier update from ``k`` has been applied locally — enforced by
   applying each origin's queue strictly in order, one in flight at a time
   (Eunomia's total order over-approximates causality within a stream, so
   the whole prefix must be treated as a dependency);
2. ``SiteTime_m[d] >= u.vts[d]`` for every other remote datacenter ``d`` —
   the explicitly named cross-datacenter dependencies.

Entry ``m`` (the local datacenter) needs no check: a local update's vector
entry can only reach a client — and hence appear as a dependency — after
the local partition stored it.

Unlike Algorithm 5's single tail-recursive FLUSH, queues of *different*
origins progress concurrently (one in-flight release per origin); both
gating conditions are still enforced, so the applied order is identical to
some serialization the algorithm could produce.  Duplicate deliveries —
possible when a new Eunomia leader re-ships the window between the last
StableAnnounce and the crash — are filtered as a columnar prefix (one
bisection over the frame's ``ts`` column) against the last enqueued
position per origin.

Releases are stop-and-wait per origin: one :class:`ApplyRemote` /
:class:`ApplyRemoteOk` pair per update, so an origin's chain moves one
update per cycle = ``2·LAN + publish + receiver_flush`` (0.5 ms, exactly:
the partition serves releases on a lane of their own).  The publish is the
partition's ``partition_remote_data`` cost: the payload was written when it
landed (§5, ahead of its metadata), a release only pairs, publishes and
acknowledges.  An update in a frame of N queues ≈ ``cycle · (N − 1)/2``
here; ``len(_inflight)`` over the tracked origins is the chain utilisation
(``gauge:receiver_inflight``, 0.33 on ``geo_update_heavy_ft``).
Consecutive heads of one origin that share a partition and have their
dependencies met are rare (0.6–1.6 % of releases measured), so a deeper
window buys nothing — see "What is batched, and what is not" in
docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Optional

from ..calibration import Calibration
from ..kvstore.ring import ConsistentHashRing
from ..kvstore.types import Update
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from ..core.messages import ApplyRemote, ApplyRemoteOk, RemoteStableBatch

__all__ = ["Receiver"]


class Receiver(Process):
    """r_m: queues remote update streams and applies them causally."""

    def __init__(self, env: Environment, name: str, dc_id: int, n_dcs: int,
                 check_interval: float,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None,
                 placement=None):
        cal = calibration or Calibration()
        cost_model = CostModel(costs={
            "RemoteStableBatch":
                lambda msg: cal.cost("receiver_enqueue_op") * len(msg.ops),
            "ApplyRemoteOk": cal.overhead("receiver_flush"),
        })
        super().__init__(env, name, site=dc_id, cost_model=cost_model)
        self.dc_id = dc_id
        self.n_dcs = n_dcs
        self.check_interval = check_interval
        self.metrics = metrics or NullMetrics()
        #: partial geo-replication (None = full): origins whose resident
        #: set is disjoint from ours get no queue at all — the
        #: placement-aware stable cut.  Their entries are skipped in
        #: :meth:`_deps_satisfied`, so this DC never stalls waiting for a
        #: stream that will never arrive.
        self.placement = placement
        self.queues: dict[int, deque[Update]] = {
            k: deque() for k in range(n_dcs)
            if k != dc_id and (placement is None
                               or placement.overlaps(k, dc_id))
        }
        self.site_time = [0] * n_dcs
        # Dedup uses the full (ts, partition, seq) order key: concurrent
        # updates from different partitions may legally share a timestamp.
        self._last_enqueued: list[tuple] = [(0, -1, -1)] * n_dcs
        #: origin -> the one released, not yet acknowledged update
        self._inflight: dict[int, Update] = {}
        #: uids re-released by :meth:`recover`, whose first release may
        #: still be acknowledged too (one entry per origin per recovery)
        self._rereleased: set[tuple] = set()
        self.ring: Optional[ConsistentHashRing] = None
        self.partitions: list[Process] = []
        self.applied = 0
        self.duplicates_dropped = 0
        self.skipped_nonresident = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_partitions(self, ring: ConsistentHashRing,
                       partitions: list[Process]) -> None:
        self.ring = ring
        self.partitions = list(partitions)

    def start(self) -> None:
        # CHECK_PENDING every ρ (Alg. 5 line 3) — a safety net for updates
        # whose dependencies were satisfied by a *different* origin's apply.
        self.periodic(self.check_interval, self._flush_all)

    def recover(self) -> None:
        """Resume after a crash-stop (queues and SiteTime intact).

        The crash retired the CHECK_PENDING periodic and may have dropped
        an ApplyRemoteOk, so every in-flight head is released again: the
        partition acknowledges an update it already installed without
        executing it twice.  An outage shorter than the round trip lets the
        first release's ack through as well, so the re-released uids are
        remembered and their second ack is dropped
        (:meth:`on_apply_remote_ok`).
        """
        super().recover()
        self._rereleased.update(u.uid for u in self._inflight.values())
        self._inflight.clear()
        self.start()
        self._flush_all()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def on_remote_stable_batch(self, msg: RemoteStableBatch, src: Process) -> None:
        k = msg.origin_dc
        queue = self.queues[k]
        # Columnar dedup: the frame's (ts, partition, seq) columns ascend in
        # serialization order, so at-least-once duplicates (a new leader
        # re-shipping the window between the last StableAnnounce and the
        # crash) form a *prefix* — found by bisecting ts for the last
        # enqueued position plus a short tie walk, then the accepted suffix
        # extends the queue wholesale.
        block = msg.block
        ts_col = block.ts
        last = self._last_enqueued[k]
        i = bisect_left(ts_col, last[0])
        n = len(ts_col)
        origin_col, seq_col = block.origin, block.seq
        while i < n and (ts_col[i], origin_col[i], seq_col[i]) <= last:
            i += 1
        self.duplicates_dropped += i
        if i < n:
            self._last_enqueued[k] = (ts_col[-1], origin_col[-1], seq_col[-1])
            queue.extend(block.payload[i:])
        self._try_flush(k)

    # ------------------------------------------------------------------
    # FLUSH (Alg. 5 lines 5–20, one release in flight per origin)
    # ------------------------------------------------------------------
    def _flush_all(self) -> None:
        # Skipping a non-resident head advances SiteTime, which can
        # unblock origins already visited this pass — loop until a pass
        # makes no skip progress.  Full replication never skips, so this
        # is exactly one pass (the historical behavior).
        progress = True
        while progress:
            progress = False
            for k in self.queues:
                if self._try_flush(k):
                    progress = True

    def _try_flush(self, k: int) -> bool:
        """Advance origin ``k``'s queue; True iff any head was skipped."""
        if k in self._inflight:
            return False  # condition (1): strictly in-order within an origin
        queue = self.queues[k]
        skipped = False
        # Partial placement: the origin's stream interleaves ops for every
        # partition *it* stores; ops for partitions not resident here are
        # skipped — no apply, and no dependency wait either (the op can
        # never be read at this DC, so nothing here may depend on it being
        # visible locally) — while still advancing SiteTime so ops that
        # name it as a cross-DC dependency do not stall.
        while queue and not self._resident(queue[0]):
            self._advance_site_time(k, queue.popleft())
            self.skipped_nonresident += 1
            skipped = True
        if not queue:
            return skipped
        update = queue[0]
        if not self._deps_satisfied(update, k):
            return skipped
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(update, "recv_apply", self.now, self.dc_id)
        self._inflight[k] = update
        self.send(self.partitions[self.ring.partition_for(update.key)],
                  ApplyRemote(update))
        return skipped

    def _resident(self, update: Update) -> bool:
        return (self.placement is None
                or self.placement.is_resident(self.dc_id,
                                              update.partition_index))

    def _advance_site_time(self, k: int, update: Update) -> None:
        # Tie-aware SiteTime advance: updates with equal timestamps are
        # concurrent, but a remote dependency naming ts T means *some* op
        # with vts[k] == T — only claim T once every tied op has applied.
        # (All T-ties arrive in the same stabilization round: later rounds
        # carry strictly larger timestamps, so the queue head is the only
        # place a tie can still hide.)
        queue = self.queues[k]
        ts = update.vts[k]
        if queue and queue[0].vts[k] == ts:
            self.site_time[k] = ts - 1
        else:
            self.site_time[k] = ts

    def _deps_satisfied(self, update: Update, k: int) -> bool:
        """Condition (2): SiteTime covers every other remote entry.

        Origins without a queue (partial placement, zero overlap) are
        exempt: no stream ever arrives from them, and — by the same
        residency argument as the skip above — no dependency on them can
        be resident here either.
        """
        for d in range(self.n_dcs):
            if d in (self.dc_id, k) or d not in self.queues:
                continue
            if self.site_time[d] < update.vts[d]:
                return False
        return True

    def on_apply_remote_ok(self, msg: ApplyRemoteOk, src: Process) -> None:
        k = msg.uid[0]
        update = self._inflight.get(k)
        if update is None or update.uid != msg.uid:
            if msg.uid in self._rereleased:
                return  # second ack of an update re-released by recover()
            raise RuntimeError(
                f"receiver {self.name}: unexpected apply ack {msg.uid}"
            )
        del self._inflight[k]
        self.queues[k].popleft()
        self._advance_site_time(k, update)
        self.applied += 1
        # An apply may unblock heads of *other* origins (their vts[k] was
        # the missing dependency), so rescan everything.
        self._flush_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Updates queued but not yet applied (all origins)."""
        return sum(len(q) for q in self.queues.values())
