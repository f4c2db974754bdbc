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
some serialization the algorithm could produce.

Release is event-driven; Alg. 5's periodic CHECK_PENDING is not run.  A
head is unblocked only by an event the receiver handles itself: an
enqueue tries its own origin, and an apply ack, a skipped non-resident
head or a recovery (each of which can advance SiteTime or clear an
in-flight slot) rescans every origin.  A poll would find nothing that
those handlers had not already released.

The queues are the repository's one deferral structure, a
:class:`~repro.datastruct.runbuffer.RunBuffer`: one run per origin of
``(ORDER_KEY(update), origin, update)`` entries, drained one head at a
time.  The key is :data:`~repro.kvstore.types.ORDER_KEY`'s ``(ts,
partition_index, seq)``, not ``ts``: concurrent updates from
different partitions may share a timestamp.  Duplicate deliveries (a new
Eunomia leader re-ships the window since the last StableAnnounce) are
dropped as a prefix by :meth:`~repro.core.stream.ReliableStream.accepted_from`,
keyed by ``ORDER_KEY`` against the run's tail.

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

from typing import Optional

from ..calibration import Calibration
from ..datastruct.runbuffer import RunBuffer
from ..kvstore.ring import ConsistentHashRing
from ..kvstore.types import ORDER_KEY, Update
from ..sim.env import Environment
from ..sim.process import Process
from ..core.placement import PlacementMap
from ..core.messages import ApplyRemote, ApplyRemoteOk, RemoteStableBatch
from ..core.stream import ReliableStream

__all__ = ["Receiver"]

#: the duplicate watermark of an origin that has enqueued nothing yet
_NOTHING_ENQUEUED = (0, -1, -1)


class Receiver(Process):
    """r_m: queues remote update streams and applies them causally."""

    def __init__(self, env: Environment, name: str, dc_id: int, n_dcs: int,
                 placement: PlacementMap,
                 calibration: Optional[Calibration] = None):
        cal = calibration or Calibration()
        super().__init__(env, name, site=dc_id, costs={
            "RemoteStableBatch":
                lambda msg: cal.cost("receiver_enqueue_op") * len(msg.ops),
            "ApplyRemoteOk": cal.overhead("receiver_flush"),
        })
        self.dc_id = dc_id
        self.n_dcs = n_dcs
        #: the placement-aware stable cut, ascending: origins whose
        #: resident set is disjoint from ours are left out.  Their entries
        #: are skipped in :meth:`_deps_satisfied`, so this DC never stalls
        #: waiting for a stream that will never arrive.
        self.origins = tuple(
            k for k in range(n_dcs)
            if k != dc_id and placement.overlaps(k, dc_id))
        #: origin -> the other origins whose SiteTime gates its heads
        #: (condition (2)); every other entry is exempt
        self._gating = {k: tuple(d for d in self.origins if d != k)
                        for k in self.origins}
        #: the per-origin queues: origin -> (ORDER_KEY, origin, update)
        self._queued = RunBuffer()
        #: the partition indices this DC stores
        self._stored = frozenset(placement.resident_partitions(dc_id))
        self.site_time = [0] * n_dcs
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

    def recover(self) -> None:
        """Resume after a crash-stop (queues and SiteTime intact).

        The crash may have dropped an ApplyRemoteOk, so every in-flight
        head is released again: the partition acknowledges an update it
        already installed without executing it twice.  An outage shorter
        than the round trip lets the first release's ack through as well,
        so the re-released uids are remembered and their second ack is
        dropped (:meth:`on_apply_remote_ok`).
        """
        super().recover()
        self._rereleased.update(u.uid for u in self._inflight.values())
        self._inflight.clear()
        self._flush_all()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def on_remote_stable_batch(self, msg: RemoteStableBatch, src: Process) -> None:
        k = msg.origin_dc
        queued = self._queued
        # At-least-once duplicates (a new leader re-shipping the window
        # since the last StableAnnounce) form a prefix of the frame; its
        # frames carry no predecessor to check (``prev=floor``).
        ops = msg.ops
        last = queued.tail(k, _NOTHING_ENQUEUED)
        i = ReliableStream.accepted_from(ops, last, last, ORDER_KEY)
        n = len(ops)
        self.duplicates_dropped += i
        if i < n:
            queued.extend_run([(ORDER_KEY(op), k, op) for op in ops[i:]])
        # A skipped non-resident head advanced SiteTime[k], which may have
        # unblocked another origin's head: release it now.
        if self._try_flush(k):
            self._flush_all()

    # ------------------------------------------------------------------
    # FLUSH (Alg. 5 lines 5–20, one release in flight per origin)
    # ------------------------------------------------------------------
    def _flush_all(self) -> None:
        # Only an origin with a queued head and nothing in flight can
        # release.  Skipping a non-resident head advances SiteTime, which
        # can unblock origins already visited this pass — loop until a
        # pass makes no skip progress.  Full replication never skips, so
        # this is exactly one pass.
        inflight = self._inflight
        head = self._queued.head
        progress = True
        while progress:
            progress = False
            for k in self.origins:
                if (k not in inflight and head(k) is not None
                        and self._try_flush(k)):
                    progress = True

    def _try_flush(self, k: int) -> bool:
        """Advance origin ``k``'s queue; True iff any head was skipped."""
        if k in self._inflight:
            return False  # condition (1): strictly in-order within an origin
        queued = self._queued
        skipped = False
        # Partial placement: the origin's stream interleaves ops for every
        # partition *it* stores; ops for partitions not resident here are
        # skipped — no apply, and no dependency wait either (the op can
        # never be read at this DC, so nothing here may depend on it being
        # visible locally) — while still advancing SiteTime so ops that
        # name it as a cross-DC dependency do not stall.
        stored = self._stored
        head = queued.head(k)
        while head is not None and head[2].partition_index not in stored:
            queued.pop_head(k)
            self._advance_site_time(k, head[2])
            self.skipped_nonresident += 1
            skipped = True
            head = queued.head(k)
        if head is None:
            return skipped
        update = head[2]
        if not self._deps_satisfied(update, k):
            return skipped
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(update, "recv_apply", self.now, self.dc_id)
        self._inflight[k] = update
        self.send(self.partitions[self.ring.partition_for(update.key)],
                  ApplyRemote(update))
        return skipped

    def _advance_site_time(self, k: int, update: Update) -> None:
        # Tie-aware SiteTime advance: updates with equal timestamps are
        # concurrent, but a remote dependency naming ts T means *some* op
        # with vts[k] == T — only claim T once every tied op has applied.
        # (All T-ties arrive in the same stabilization round: later rounds
        # carry strictly larger timestamps, so the queue head is the only
        # place a tie can still hide.)
        head = self._queued.head(k)
        ts = update.vts[k]
        if head is not None and head[2].vts[k] == ts:
            self.site_time[k] = ts - 1
        else:
            self.site_time[k] = ts

    def _deps_satisfied(self, update: Update, k: int) -> bool:
        """Condition (2): SiteTime covers every other remote entry.

        Origins outside :attr:`origins` (partial placement, zero overlap)
        are exempt: no stream ever arrives from them, and — by the same
        residency argument as the skip above — no dependency on them can
        be resident here either.
        """
        site_time = self.site_time
        vts = update.vts
        for d in self._gating[k]:
            if site_time[d] < vts[d]:
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
        self._queued.pop_head(k)
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
        return len(self._queued)
