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
* **fault-tolerant delivery** (Alg. 4 lines 1–6): each replica is a
  destination of the pending run's :class:`~repro.core.stream.ReliableStream`
  — in a K-sharded group, the partition's *owning shard in every replica*
  (:meth:`repro.core.assembly.StabilizerStack.uplink_targets`), so each
  (partition → shard) stream gets the prefix property independently.

The straggler experiment (Figure 7) works by inflating the *host's*
``batch_interval`` attribute, which the uplink re-reads before every tick
(the inflated interval's ticks wait in another period's Fifo of the loop);
Δ stays at the configured batch interval.
"""

from __future__ import annotations

from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..kvstore.types import Update
from ..sim.loop import SimulationError
from ..sim.process import Process
from .config import EunomiaConfig
from .messages import AddOpBatch, BatchAck, PartitionHeartbeat
from .stream import ReliableStream

__all__ = ["EunomiaUplink"]


class EunomiaUplink:
    """Batching/ack/heartbeat state machine bound to a host process.

    The host must expose a mutable ``batch_interval`` attribute (seconds).
    The tick re-arms in the loop's Fifo for its period (``loop.every``):
    all uplinks' ticks of one instant cost the heap one entry.
    """

    def __init__(self, host: Process, partition_index: int,
                 config: EunomiaConfig, hlc: HybridLogicalClock,
                 clock: PhysicalClock, op_cost: float, batch_cost: float):
        self.host = host
        self.partition_index = partition_index
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
        #: the pending run (ascending ts: hlc is monotone)
        self.stream = ReliableStream(partition_index, self)
        self._nonft_last_sent = 0              # stream position, non-FT mode
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
        self.stream.add_destinations(replicas)

    def start(self) -> None:
        """Arm the batch/heartbeat tick: :meth:`_tick` every
        ``host.batch_interval``, the first one a full interval from now.
        Each tick re-arms itself the same way, re-reading the interval, so
        the Figure 7 straggler's mutation takes effect at the next one."""
        host = self.host
        self._network = host.env.network
        self._chain += 1
        step = host.batch_interval
        if not step > 0:
            raise self._period_error(step)
        host._loop.every(step, self._tick, self._chain, host._epoch)

    def restart(self) -> None:
        """Re-arm after the host recovers from a crash.

        The host's crash epoch retired the old tick chain, so a recovered
        partition that never calls this ships nothing ever again — the
        uplink single-point stall.  No-op for hosts that never armed the
        tick (a partition its DC does not store is built but never run).

        The stream probes promptly, so a peer that recovered while this
        host was down is re-fed within one tick, not one stall timeout.
        """
        if not self._chain:
            return
        # the crash dropped the queued frame and emptied the lane
        self._frame_due = 0.0
        self.stream.restart(self.host.now)
        self.start()    # a new chain: the old one, if still queued, is retired

    # ------------------------------------------------------------------
    # Producer side (called by the host partition)
    # ------------------------------------------------------------------
    def record(self, op: Update) -> None:
        """Queue a locally committed update for shipping.

        Timestamps arrive in increasing order because the host's hybrid
        clock is strictly monotone (Property 2).
        """
        pending = self.stream.pending
        ts_col = pending.ts
        if ts_col and op.ts <= ts_col[-1]:
            raise ValueError(
                f"non-monotone uplink timestamps: {op.ts} after "
                f"{ts_col[-1]} (Property 2 violated by host)"
            )
        pending.append(op)

    def on_ack(self, msg: BatchAck, src: Process) -> None:
        """Handle a replica's cumulative acknowledgement (Alg. 4 line 5)."""
        self.stream.on_ack(src.pid, msg.ack_ts, self.host.now)

    # ------------------------------------------------------------------
    # Periodic shipping
    # ------------------------------------------------------------------
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
            stream = self.stream
            ts_col = stream.pending.ts
            if ts_col:             # Alg. 2 lines 8–9
                if self._ft:
                    stream.ship(replicas, host.now)
                else:              # the whole run, one frame, no acks
                    ops = stream.pending.take()
                    self.transmit(replicas[0], AddOpBatch(
                        self.partition_index, ops,
                        prev_ts=self._nonft_last_sent), len(ops))
                    self._nonft_last_sent = ops[-1].ts
            clock_now = self.clock.read_us()
            hlc = self.hlc
            if clock_now < hlc.last + self._heartbeat_us:
                return
            if self._ft:
                if ts_col:
                    last_ts = ts_col[-1]
                    windows = stream.windows
                    targets = [replica for replica in replicas
                               if windows[replica.pid].ack >= last_ts]
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
            # the re-arm written out, as this is the hop's hottest call;
            # ``every`` (the tracer sees only its Fifo's head) is looked up
            # here, never cached, like ``schedule_at``
            step = host.batch_interval
            if not step > 0:
                raise self._period_error(step)
            host._loop.every(step, self._tick, chain, epoch)

    def transmit(self, replica: Process, batch: AddOpBatch,
                 n_new: int) -> None:
        """Queue ``batch`` in the uplink lane, charged for its new ops."""
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

    def pending_count(self) -> int:
        return len(self.stream.pending)
