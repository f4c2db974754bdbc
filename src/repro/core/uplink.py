"""The partition → Eunomia shipping lane (Alg. 2 lines 8–12, §3.3, §5).

Every Eunomia-aware partition (and the §7.1 partition emulators) owns an
:class:`EunomiaUplink`, which encapsulates:

* **batching** (§5): locally committed updates accumulate and are shipped
  once per ``batch_interval`` — off the client's critical path, which is
  precisely why Eunomia can batch while sequencers cannot;
* **heartbeats** (Alg. 2 lines 10–12): when the partition has been idle for
  Δ and its physical clock has caught up with the hybrid clock, a heartbeat
  advances ``PartitionTime`` at the service.  It is charged no CPU and
  leaves from the tick itself; the one thing it waits for is a frame of
  this uplink still queued in its service lane, which it must not
  overtake (see :meth:`EunomiaUplink._tick`);
* **its own service lane**: frames and queued heartbeats wait in *one* FIFO
  lane of the host — the background lane the host class names in
  ``UPLINK_LANE`` (storage partitions: ``"uplink"``, where they also serve
  ``BatchAck``), ``"cpu"`` for a host that names none.  On a storage
  partition the lane is empty unless the uplink itself filled it, so a
  frame is on the wire ``batch_cost + op_cost·n`` after its tick and an ack
  is handled when it arrives: nothing Eunomia does waits behind a client
  operation, whose service time is scaled by ``Calibration.scale`` while
  Δ and θ are not.  The §7.1 partition emulator is by definition one
  client thread that generates *and* ships, so it stays on ``"cpu"``;
* **fault-tolerant delivery** (Alg. 4 lines 1–6, prefix property): with
  ``fault_tolerant=True`` the uplink tracks, per replica, the highest
  acknowledged timestamp (``Ack_n[f]``, line 5) and retransmits the
  unacknowledged suffix when acks stall (line 6) — at-least-once delivery
  over lossy links, with resends charged almost no sender CPU (the
  serialized run is reused).  The targets are opaque processes: in a
  K-sharded replica group they are the partition's *owning shard in every
  replica* (:meth:`repro.core.assembly.StabilizerStack.uplink_targets`),
  so each (partition → shard) stream gets the prefix property
  independently — the invariant the sharded failover argument rests on.

The straggler experiment (Figure 7) works by inflating the *host's*
``batch_interval`` attribute, which the uplink re-reads before every tick
(the inflated interval's ticks wait in another period's Fifo of the loop);
Δ stays at the configured batch interval.
"""

from __future__ import annotations

import bisect
from typing import Optional

from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..datastruct.opblock import OpRunBuilder
from ..kvstore.types import Update
from ..sim.loop import SimulationError
from ..sim.process import Process
from .config import (MAX_BATCH_OPS, RESEND_TIMEOUT, RETRY_BACKOFF_CAP,
                     EunomiaConfig)
from .messages import AddOpBatch, BatchAck, PartitionHeartbeat

__all__ = ["EunomiaUplink"]


class EunomiaUplink:
    """Batching/ack/heartbeat state machine bound to a host process.

    The host must expose a mutable ``batch_interval`` attribute (seconds).

    Pending state is an :class:`OpRunBuilder`: ``record`` appends the op
    and its ``ts`` (which the window bisections read), a shipping window is
    cut as a tuple of ops, and the resulting frame is cached per
    ``(window, prev_ts, resend)`` so a retransmission to a stalled replica
    (Alg. 4's ``Ack_n[f]`` resend) re-ships the already serialized run with
    near-zero sender CPU.
    The tick re-arms in the loop's Fifo for its period (``loop.every``):
    all uplinks' ticks of one instant cost the heap one entry.
    """

    def __init__(self, host: Process, partition_index: int,
                 config: EunomiaConfig, hlc: HybridLogicalClock,
                 clock: PhysicalClock, op_cost: float, batch_cost: float):
        self.host = host
        self.partition_index = partition_index
        self.config = config
        self.hlc = hlc
        self.clock = clock
        self.op_cost = op_cost
        self.batch_cost = batch_cost
        #: Δ is one batching interval, read from the config (never from
        #: the host's live ``batch_interval``, which a straggler inflates)
        self._heartbeat_us = int(config.batch_interval * 1e6)
        self._ft = config.fault_tolerant
        #: the host's network, bound by :meth:`start`
        self._network = None
        self.replicas: list[Process] = []
        #: pending run, ascending ts (hlc is monotone)
        self._pending = OpRunBuilder()
        self._ack: dict[int, int] = {}         # replica pid -> Ack_n[f]
        self._sent: dict[int, int] = {}        # replica pid -> max ts ever sent
        self._retx_due: dict[int, float] = {}  # replica pid -> next retx time
        self._retx_strikes: dict[int, int] = {}  # consecutive unacked resends
        self._nonft_last_sent = 0              # stream position, non-FT mode
        #: serialized-frame cache: (first_ts, last_ts, prev_ts, resend) ->
        #: AddOpBatch — cleared whenever the acked prefix is pruned
        self._frames: dict[tuple, AddOpBatch] = {}
        #: the host's service lane that frames and queued heartbeats wait
        #: in: the one its class declares as ``UPLINK_LANE``, else ``"cpu"``
        self._lane = getattr(host, "UPLINK_LANE", "cpu")
        #: when the last frame queued in that lane reaches the wire; a
        #: heartbeat may leave from the tick only after it
        self._frame_due = 0.0
        #: the live tick chain (0: never armed); a tick of any other is stale
        self._chain = 0
        self.ops_shipped = 0
        self.retransmissions = 0
        self.frames_reused = 0
        self.heartbeats_sent = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_replicas(self, replicas: list[Process]) -> None:
        self.replicas = list(replicas)
        for replica in replicas:
            self._ack.setdefault(replica.pid, 0)
            self._sent.setdefault(replica.pid, 0)
            self._retx_due.setdefault(replica.pid, float("inf"))
            self._retx_strikes.setdefault(replica.pid, 0)

    def start(self) -> None:
        """Arm the batch/heartbeat tick: :meth:`_tick` every
        ``host.batch_interval``, the first one a full interval from now."""
        self._network = self.host.env.network
        self._chain += 1
        self._arm(self._chain, self.host._epoch)

    def restart(self) -> None:
        """Re-arm after the host recovers from a crash.

        The host's crash epoch retired the old tick chain, so a recovered
        partition that never calls this ships nothing ever again — the
        uplink single-point stall.  No-op for hosts that never armed the
        tick (a partition its DC does not store is built but never run).

        Retransmission state is reset to *probe promptly*: any replica with
        an outstanding window is due for retransmission immediately and the
        backoff escalation starts over, so a peer that recovered while this
        host was down is re-fed within one batch tick instead of one
        (escalated) stall timeout.
        """
        if not self._chain:
            return
        # the crash dropped the queued frame and emptied the lane
        self._frame_due = 0.0
        now = self.host.now
        for pid, due in self._retx_due.items():
            self._retx_strikes[pid] = 0
            if due != float("inf"):
                self._retx_due[pid] = now
        self.start()    # a new chain: the old one, if still queued, is retired

    def _stall_timeout(self, pid: int) -> float:
        """Current retransmission timeout for a replica: ``RESEND_TIMEOUT``,
        doubling per consecutive unacknowledged resend up to the
        bounded-backoff cap — a dead or partitioned replica is probed ever
        more gently, never abandoned, and the cap bounds how stale the probe
        cadence can be when the replica returns."""
        strikes = self._retx_strikes.get(pid, 0)
        base = RESEND_TIMEOUT
        if not strikes:
            return base
        return min(base * (1 << strikes), max(base, RETRY_BACKOFF_CAP))

    # ------------------------------------------------------------------
    # Producer side (called by the host partition)
    # ------------------------------------------------------------------
    def record(self, op: Update) -> None:
        """Queue a locally committed update for shipping.

        Timestamps arrive in increasing order because the host's hybrid
        clock is strictly monotone (Property 2).
        """
        ts_col = self._pending.ts
        if ts_col and op.ts <= ts_col[-1]:
            raise ValueError(
                f"non-monotone uplink timestamps: {op.ts} after "
                f"{ts_col[-1]} (Property 2 violated by host)"
            )
        self._pending.append(op)

    def on_ack(self, msg: BatchAck, src: Process) -> None:
        """Handle a replica's cumulative acknowledgement (Alg. 4 line 5)."""
        if msg.ack_ts > self._ack.get(src.pid, 0):
            self._ack[src.pid] = msg.ack_ts
            # Progress resets the retransmission clock (and the backoff
            # escalation): retransmit only when a replica's
            # acknowledgements actually stall.
            self._retx_strikes[src.pid] = 0
            if self._ack[src.pid] >= self._sent.get(src.pid, 0):
                self._retx_due[src.pid] = float("inf")
            else:
                self._retx_due[src.pid] = self.host.now + RESEND_TIMEOUT
        self._prune()

    # ------------------------------------------------------------------
    # Periodic shipping
    # ------------------------------------------------------------------
    def _arm(self, chain: int, epoch: int) -> None:
        """Queue the first tick of ``chain``, one ``host.batch_interval``
        from now.  :meth:`_tick` re-arms itself the same way, re-reading
        the interval every time, so the Figure 7 straggler injector's
        runtime mutation takes effect at the next re-arm."""
        host = self.host
        step = host.batch_interval
        if not step > 0:
            raise self._period_error(step)
        host._loop.every(step, self._tick, chain, epoch)

    def _period_error(self, step: float) -> SimulationError:
        # re-arming at ``now`` would spin ``run(until=...)`` forever
        return SimulationError(
            f"periodic task EunomiaUplink._tick of {self.host.name} has "
            f"non-positive period {step!r}")

    def _tick(self, chain: int, epoch: int) -> None:
        """Ship what is pending, heartbeat if idle, re-arm.

        Fires once per batch interval per partition — more often than
        anything else in a deployment — so it is
        :meth:`repro.sim.process.Process.periodic` written out flat,
        contract unchanged: a crashed or re-epoched host
        retires the chain, as does a later :meth:`start` (never two
        ticks); the re-arm comes *after* the body (so what the body
        schedules is sequenced ahead of the next tick), even when it
        raises.

        The heartbeat is Alg. 2 lines 10–12, applied per replica: one goes
        to each replica with no outstanding ops once the physical clock has
        moved Δ past the last issued timestamp, and the hybrid clock
        observes its timestamp, so any later update is tagged strictly
        greater (Property 2).  It costs no CPU, so it leaves from the tick
        — unless a frame of this uplink is still queued in its service lane
        (``now`` not yet past its due time; at ``now == due`` its send may
        be an event still to fire at this instant).  Sent directly it would
        overtake that frame on the wire, the service's PartitionTime would
        jump past the frame's timestamps and its dedup would discard the
        ops.  Then, and only then, it rides the same lane behind the frame:
        queue order preserves send order, and FIFO links preserve it on the
        wire.  (A later tick's heartbeat may pass such a queued
        *heartbeat*; the service's max() ignores the stale one.)
        """
        host = self.host
        if chain != self._chain or host.crashed or host._epoch != epoch:
            return
        try:
            replicas = self.replicas
            if not replicas:
                return
            ts_col = self._pending.ts
            if ts_col:
                self._ship()
            clock_now = self.clock.read_us()
            hlc = self.hlc
            if clock_now < hlc.last + self._heartbeat_us:
                return
            if self._ft:
                if ts_col:
                    last_ts = ts_col[-1]
                    ack = self._ack
                    targets = [replica for replica in replicas
                               if ack[replica.pid] >= last_ts]  # all acked
                    if not targets:
                        return
                else:
                    targets = replicas   # nothing pending, nothing owed
                beat = PartitionHeartbeat(self.partition_index, clock_now)
                self.heartbeats_sent += len(targets)
                send, to = self._network.multicast, targets
            elif ts_col:
                return
            else:
                beat = PartitionHeartbeat(self.partition_index, clock_now)
                self.heartbeats_sent += 1
                send, to = self._network.send, replicas[0]
            if host._loop._now > self._frame_due:
                send(host, to, beat)
            else:
                host._enqueue(send, 0.0, host, to, beat, lane=self._lane)
            if clock_now > hlc.last:
                hlc.last = clock_now
        finally:
            # :meth:`_arm` written out, as this is the hop's hottest call;
            # ``every`` (the tracer sees only its Fifo's head) is looked up
            # here, never cached, like ``schedule_at``
            step = host.batch_interval
            if not step > 0:
                raise self._period_error(step)
            host._loop.every(step, self._tick, chain, epoch)

    def _ship(self) -> None:
        """Alg. 2 lines 8–9 for a non-empty pending run."""
        if self._ft:
            for replica in self.replicas:
                self._ship_suffix(replica)
            self._prune()
        else:
            ops = self._pending.take()
            self._transmit(self.replicas[0],
                           AddOpBatch(self.partition_index, ops,
                                      prev_ts=self._nonft_last_sent),
                           n_new=len(ops))
            self._nonft_last_sent = ops[-1].ts

    def _ship_suffix(self, replica: Process) -> None:
        """Ship new ops; retransmit the unacked window only on ack stall."""
        pid = replica.pid
        ack = self._ack[pid]
        sent = self._sent[pid]
        retransmit = (ack < sent
                      and self.host.now >= self._retx_due[pid])
        start_from = ack if retransmit else sent
        ts_col = self._pending.ts
        start = bisect.bisect_right(ts_col, start_from)
        if start >= len(ts_col):
            return
        end = min(len(ts_col), start + MAX_BATCH_OPS)
        last_ts = ts_col[end - 1]
        # New ops in the window counted by bisection (ts ascending): the
        # suffix above this replica's high-water ``sent`` mark.
        n_new = end - bisect.bisect_right(ts_col, sent, start, end)
        if retransmit:
            self.retransmissions += 1
            self._retx_strikes[pid] = self._retx_strikes.get(pid, 0) + 1
        if last_ts > sent:
            self._sent[pid] = last_ts
        # Arm the stall timer for the *oldest* unacked transmission: only
        # when idle (nothing was outstanding) or when the timer just fired.
        # Re-arming on every send would let a steady stream of new batches
        # postpone recovery of a lost one indefinitely.  The timeout
        # escalates with consecutive fruitless resends (capped backoff), so
        # a long-dead replica is not blasted with the full window every
        # RESEND_TIMEOUT.
        if retransmit or self._retx_due[pid] == float("inf"):
            self._retx_due[pid] = self.host.now + self._stall_timeout(pid)
        # Frame reuse: identical windows — the common case for
        # retransmissions and for the R-replica fan-out of one tick — ship
        # the same serialized AddOpBatch object (an immutable ops tuple),
        # so only the first build pays the slice.
        frame_key = (ts_col[start], last_ts, start_from, n_new == 0)
        frame = self._frames.get(frame_key)
        if frame is None:
            frame = AddOpBatch(self.partition_index,
                               self._pending.cut(start, end),
                               prev_ts=start_from, resend=(n_new == 0))
            self._frames[frame_key] = frame
        else:
            self.frames_reused += 1
        self._transmit(replica, frame, n_new)

    def _transmit(self, replica: Process, batch: AddOpBatch,
                  n_new: int) -> None:
        host = self.host
        cost = self.batch_cost + self.op_cost * n_new
        self.ops_shipped += n_new
        metrics = getattr(host, "metrics", None)
        tracer = metrics.tracer if metrics is not None else None
        if tracer is not None:
            # stage_once: retransmissions re-ship the same window; only
            # the first departure is the pipeline latency
            now, site = host.now, host.site
            for op in batch.ops:
                tracer.stage_once(op, "uplink_ship", now, site)
        self._frame_due = host._enqueue(self._network.send, cost, host,
                                        replica, batch, lane=self._lane)

    def _prune(self) -> None:
        """Drop the prefix acknowledged by *every* replica."""
        if not self._ack or not self._pending.ts:
            return
        min_ack = min(self._ack.values())
        cut = bisect.bisect_right(self._pending.ts, min_ack)
        if cut:
            self._pending.drop_prefix(cut)
            # Cached frames are immutable snapshots, so pruning never
            # invalidates one — this just bounds the cache to live windows.
            self._frames.clear()

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def acked_ts(self, replica: Process) -> int:
        return self._ack.get(replica.pid, 0)
