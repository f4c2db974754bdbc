"""The Eunomia service (Algorithm 3): unobtrusive site-wide ordering.

The service never talks to clients.  It receives (batches of) timestamped
updates and heartbeats from the datacenter's partitions, tracks the largest
timestamp seen per partition (``PartitionTime``), and every θ seconds
computes ``StableTime = min(PartitionTime)``.  FIFO links plus Property 2
guarantee no partition will ever produce a smaller timestamp, so everything
at or below ``StableTime`` can be serialized — in timestamp order, which by
Property 1 is consistent with causality — and shipped to remote datacenters.

The unstable set is a :class:`repro.datastruct.runbuffer.RunBuffer` —
per-origin monotone runs; Alg. 3's PartitionTime dedup guarantees the
strictly increasing per-partition inserts it requires.  Extraction of the
stable prefix is its ``pop_stable``.  (The paper's §6 red–black tree
survives as ``TreeOpBuffer`` in ``tests/rbtree.py``, the reference
the run buffer is tested and benchmarked against.)

Algorithm 3 ↔ this module:

* lines 1–6 (NEW_OP / NEW_HEARTBEAT ingestion + PartitionTime) —
  :meth:`StabilizerBase.on_add_op_batch` /
  :meth:`StabilizerBase.on_partition_heartbeat`;
* line 7 (the periodic PROCESS_STABLE trigger, period θ) —
  :meth:`StabilizerBase.start` arming a ``periodic`` stabilization task;
* lines 8–11 (FIND_STABLE + ordered PROCESS of the stable prefix) —
  :meth:`StabilizerBase._stabilize` driving the buffer's ``pop_stable``
  and the subclass's :meth:`_emit`.

Two stabilizers share the machinery in :class:`StabilizerBase`:

* :class:`EunomiaService` — the paper's single sequential stabilizer per
  datacenter (the K=1 case), which serializes *all* partitions and ships
  the stable run to remote sites itself;
* :class:`repro.core.shard.EunomiaShard` — one of K workers that each run
  Algorithm 3 over a partition *subset* and hand their (already ordered)
  stable sub-runs to a :class:`repro.core.shard.ShardCoordinator` for a
  K-way merge before remote propagation.

Fault tolerance (Algorithm 4) is not a third stabilizer: with
``fault_tolerant=True`` either pipeline is replicated R times, every
stabilizer acknowledges batches (:meth:`StabilizerBase._post_batch`) and
prunes at gossiped floors (:meth:`StabilizerBase.on_stable_announce`), and
the process heading each replica — the service itself, or the shards'
coordinator — plays the :class:`repro.core.replica.ReplicaRole`.

CPU accounting: batch ingestion is charged through the process's cost
table; stabilization charges a fixed round cost plus a per-op,
per-destination propagation cost — the component the paper identifies as
Eunomia's actual bottleneck ("the bottleneck of our Eunomia implementation
is the propagation to other geo-locations").
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Optional

from ..datastruct.runbuffer import RunBuffer
from ..sim.env import Environment
from ..sim.process import Process
from .config import RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, EunomiaConfig
from .messages import (
    AddOpBatch,
    BatchAck,
    PartitionHeartbeat,
    StableAnnounce,
)
from .replica import ReplicaRole
from .stream import GAP, ReliableStream

__all__ = ["StabilizerBase", "EunomiaService"]

_TS = attrgetter("ts")


class StabilizerBase(Process):
    """Shared Algorithm 3 core: ingestion, PartitionTime, periodic FIND_STABLE.

    Subclasses decide what a computed stable run *means* by overriding
    :meth:`_emit` (ship it to remote datacenters, hand it to a shard
    coordinator) and say whether their replica leads via
    :meth:`_should_stabilize`; which partitions bound stability is
    :meth:`set_tracked`.
    """

    #: A heartbeat is a ``max()`` into PartitionTime.  Running it at the
    #: start of its own (0.2 µs) service slot instead of the end commutes
    #: with everything else a stabilizer does: nothing else of the ``cpu``
    #: lane can run inside that slot, and the θ tick and the disk lane only
    #: ever read PartitionTime as a lower bound that may rise at any time.
    EAGER = frozenset({"PartitionHeartbeat"})

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0):
        self.insert_op_cost = insert_op_cost
        self.batch_cost = batch_cost
        self.ack_cost = ack_cost
        # The batch cost must be state-aware: duplicate prefixes from
        # at-least-once retransmissions are skipped with one comparison
        # each in a real implementation, not re-inserted — charging full
        # insert cost for them would invent an overload collapse.
        super().__init__(env, name, site=site, costs={
            "AddOpBatch": self._batch_cost_of,
            "PartitionHeartbeat": heartbeat_cost,
        })
        self.n_partitions = n_partitions
        self.config = config
        self.partition_time = [0] * n_partitions
        #: the partition indices that bound the stable cut, ascending (all
        #: N until :meth:`set_tracked` narrows them)
        self.tracked = list(range(n_partitions))
        self.buffer = RunBuffer()
        self.stable_time = 0
        #: highest floor known shipped to remote receivers (≤ stable_time;
        #: the durable-truncation and state-transfer floor)
        self.shipped_stable = 0
        self.ops_stabilized = 0
        #: ops of a frame's duplicate prefix (``ts <= PartitionTime``) and
        #: whole frames refused on a ``prev_ts`` gap.  Both are what
        #: at-least-once retransmission legitimately produces under fault
        #: tolerance; without it a non-zero count is lost data — what a
        #: heartbeat that overtook its own frame would cause.
        self.duplicate_ops_dropped = 0
        self.gap_frames_dropped = 0
        # Durability (attach_durability wires these when durability="wal").
        self.wal = None
        self.checkpoints = None
        self.recovery = None
        self._wal_op_cost = 0.0
        self._checkpoint_cost = 0.0

    def start(self) -> None:
        """Arm the periodic PROCESS_STABLE tick (Alg. 3 line 7).

        Both timers are :meth:`repro.sim.process.Process.periodic` chains;
        a crash retires them via the epoch guard and recovery re-arms by
        calling ``start()`` again.
        """
        self.periodic(self.config.stabilization_interval, self._stabilize)
        if self.wal is not None:
            self.periodic(self.config.checkpoint_interval,
                          self._checkpoint_tick)

    # ------------------------------------------------------------------
    # Durability (WAL + checkpoints, EunomiaConfig.durability="wal")
    # ------------------------------------------------------------------
    def attach_durability(self, wal, checkpoints, recovery,
                          append_op_cost: float = 0.0,
                          checkpoint_cost: float = 0.0) -> None:
        """Wire this stabilizer's durable media (see :mod:`repro.durability`).

        Must happen before :meth:`start` — the checkpoint tick is armed
        there.  ``append_op_cost`` is charged per accepted op on the ingest
        path (log-record serialization); flushes and checkpoints ride the
        ``"disk"`` lane.
        """
        self.wal = wal
        self.checkpoints = checkpoints
        self.recovery = recovery
        self._wal_op_cost = append_op_cost
        self._checkpoint_cost = checkpoint_cost

    def _durable_floor(self) -> int:
        """The truncation floor: what is known shipped, never the running
        StableTime (popped-but-unshipped ops must survive in the log)."""
        return self.shipped_stable

    def _checkpoint_tick(self) -> None:
        from ..durability.checkpoint import Checkpoint

        checkpoint = Checkpoint(tuple(self.partition_time),
                                self._durable_floor(), self.now)
        cost = (self._checkpoint_cost
                + checkpoint.size_bytes * self.wal.disk.byte_time_s)
        self._enqueue(self._write_checkpoint, cost, checkpoint, lane="disk")

    def _write_checkpoint(self, checkpoint) -> None:
        # Flush first so the checkpoint never refers past the durable log,
        # then truncate below the shipped floor the snapshot recorded.  A
        # failed flush (injected fsync error) skips the whole round: writing
        # the snapshot anyway could truncate records whose covering flush
        # never happened.  The next tick retries with a fresh snapshot, so
        # checkpoint staleness is bounded by the checkpoint interval.
        if self.wal.commit() < 0:
            return
        self.checkpoints.write(checkpoint)
        self.wal.truncate(checkpoint.floor)

    def _lose_state(self) -> None:
        """Amnesia crash: protocol state is gone; durable media survive."""
        self.partition_time = [0] * self.n_partitions
        self.buffer = RunBuffer()
        self.stable_time = 0
        self.shipped_stable = 0
        if self.wal is not None:
            self.wal.lose_volatile()

    def _adopt_recovery_state(self, partition_time: list, buffer,
                              floor: int) -> None:
        """Install state rebuilt by the :class:`RecoveryManager`."""
        self.partition_time = list(partition_time)
        self.buffer = buffer
        self.stable_time = floor
        self.shipped_stable = floor
        self.state_lost = False

    def _batch_cost_of(self, msg: AddOpBatch) -> float:
        """Batch + per-*new*-op insert cost: the ops above PartitionTime
        at arrival, before the gap check (the handler reads it again)."""
        ops = msg.ops
        pt = self.partition_time[msg.partition_index]
        lo = ReliableStream.accepted_from(ops, pt, pt, _TS)
        return (self.batch_cost
                + (self.insert_op_cost + self._wal_op_cost) * (len(ops) - lo))

    # ------------------------------------------------------------------
    # Ingestion (Alg. 3 lines 1–6)
    # ------------------------------------------------------------------
    def on_add_op_batch(self, msg: AddOpBatch, src: Process) -> None:
        """Batched NEW_OP ingestion (Alg. 3 lines 1–4).

        A batch is one origin's ascending run: the stream's prefix filter
        (keyed by ``ts`` against PartitionTime) refuses a gap frame or
        finds the duplicate prefix, and one more bisection finds the
        already-stable slice (``ts <= StableTime``).  The accepted suffix's
        ``(ts, origin, seq, op)`` entries are built once: all of them go
        to the WAL's ``stage_ops``, those above StableTime to the buffer's
        ``extend_run``.
        """
        index = msg.partition_index
        ops = msg.ops
        lo = ReliableStream.accepted_from(ops, self.partition_time[index],
                                          msg.prev_ts, _TS)
        if lo == GAP:
            # the ack below tells the sender where to retransmit from
            self.gap_frames_dropped += 1
            self._post_batch(msg, src)
            return
        self.duplicate_ops_dropped += lo
        n = len(ops)
        if lo == n:
            self._post_batch(msg, src)
            return
        accepted = ops[lo:]
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            wal_name = self.wal.name if self.wal is not None else None
            for op in accepted:
                tracer.ingest(op, now, site)
                if wal_name is not None:
                    tracer.wal_staged(wal_name, op, now, site)
        entries = [(op.ts, op.partition_index, op.seq, op) for op in accepted]
        if self.wal is not None:
            # Every accepted (PartitionTime-advancing) op is logged,
            # buffered or not — replay filters below the recovery floor.
            self.wal.stage_ops(entries)
        # Ops at or below StableTime only advance PartitionTime; the rest
        # enter the unstable buffer as one pre-sorted run extension.
        cut = bisect_right(ops, self.stable_time, lo, key=_TS)
        if cut < n:
            self.buffer.extend_run(entries[cut - lo:])
        self.partition_time[index] = ops[-1].ts
        self._post_batch(msg, src)

    def _post_batch(self, msg: AddOpBatch, src: Process) -> None:
        """NEW_BATCH acknowledgement (Alg. 4 line 5), fault-tolerant only.

        Every stabilizer of a replicated deployment — an
        :class:`EunomiaService` or a replica's
        :class:`~repro.core.shard.EunomiaShard` — acks with the highest
        contiguous timestamp it now holds for the partition, so the
        uplink's per-replica retransmission window can advance.
        """
        wal = self.wal
        if not self.config.fault_tolerant:
            if wal is not None:
                cost = wal.flush_cost()
                if cost > 0.0:
                    self._enqueue(wal.commit, cost, lane="disk")
            return
        ack = BatchAck(msg.partition_index,
                       self.partition_time[msg.partition_index])
        if wal is None:
            self._enqueue(self.send, self.ack_cost, src, ack)
            return
        # Ack-after-fsync: the acknowledgement rides the disk lane behind
        # the flush covering this batch's records.  The uplink prunes an op
        # once *every* replica acked it, so an ack for an un-flushed record
        # would make an amnesia crash lose the op forever — the ack must
        # imply durability.  (The ack_ts was snapshotted above, so it never
        # claims more than this flush covers.)
        cost = wal.flush_cost()
        self._enqueue(self._commit_and_ack, cost + self.ack_cost, src, ack,
                      lane="disk")

    def _commit_and_ack(self, src: Process, ack: BatchAck,
                        attempt: int = 0) -> None:
        if self.wal.commit() < 0:
            # Injected fsync error.  The ack implies durability, so it is
            # withheld and the flush retried with capped exponential backoff
            # (the records stay staged; a later batch's commit may cover
            # them first, in which case the retry commits nothing and just
            # releases the ack).  The uplink keeps retransmitting meanwhile
            # — at-least-once delivery makes that safe — and acknowledgement
            # resumes within one backoff cap of the disk healing.
            delay = min(RETRY_BACKOFF_BASE * (1 << attempt),
                        RETRY_BACKOFF_CAP)
            self.after(delay, self._retry_commit, src, ack, attempt + 1)
            return
        self.send(src, ack)

    def _retry_commit(self, src: Process, ack: BatchAck,
                      attempt: int) -> None:
        # Re-pay the barrier on the disk lane (flush_cost was reset by the
        # failed commit, so this charges the full pending bytes again).
        cost = self.wal.flush_cost()
        self._enqueue(self._commit_and_ack, cost + self.ack_cost, src, ack,
                      attempt, lane="disk")

    def on_stable_announce(self, msg: StableAnnounce, src: Process) -> None:
        """Follower pruning (Alg. 4 lines 13–15).

        Everything at or below the announced floor was shipped remotely by
        the leader (for shards the floor arrives pre-capped per shard via
        the coordinator's gossip), so it is dropped without ever being
        serialized.
        """
        self._prune(msg.stable_ts)

    def _prune(self, floor: int) -> None:
        """Raise StableTime and the shipped floor to ``floor``; drop below."""
        if floor > self.stable_time:
            self.stable_time = floor
        if floor > self.shipped_stable:
            # Announced floors are shipped-capped by construction (the
            # leader announces after _propagate; shard gossip is capped at
            # the released StableTime), so they double as durable floors.
            self.shipped_stable = floor
        self.buffer.drop_stable(self.stable_time)

    def on_partition_heartbeat(self, msg: PartitionHeartbeat, src: Process) -> None:
        index = msg.partition_index
        if msg.ts > self.partition_time[index]:
            self.partition_time[index] = msg.ts
            if self.wal is not None:
                # Staged only — committed with the next batch flush or
                # checkpoint.  Losing an unsynced PT advance is safe: the
                # recovered floor is merely lower and heartbeats re-advance.
                self.wal.stage_partition_time(index, msg.ts)

    # ------------------------------------------------------------------
    # Stabilization (Alg. 3 lines 7–11)
    # ------------------------------------------------------------------
    def _should_stabilize(self) -> bool:
        """Only the leading replica runs PROCESS_STABLE (Alg. 4 line 8)."""
        raise NotImplementedError

    def set_tracked(self, indices) -> None:
        """Restrict the stable cut to ``indices`` (a shard's partition
        subset; a site's resident partitions under partial placement).

        A partition that never streams ops here would, left in the min,
        pin StableTime at zero forever.
        """
        self.tracked = sorted(indices)

    def _stable_floor(self) -> int:
        """The timestamp below which no tracked partition can still produce."""
        times = self.partition_time
        return min([times[p] for p in self.tracked])

    def _stabilize(self) -> None:
        if not self._should_stabilize():
            return
        stable = self._stable_floor()
        if stable > self.stable_time:
            self.stable_time = stable
        buffer = self.buffer
        # Idle rounds (empty buffer) skip the extraction walk entirely.
        ops = buffer.pop_stable(self.stable_time) if buffer else []
        self._emit(self.stable_time, ops)

    def _emit(self, stable_ts: int, ops: list) -> None:
        """Consume one stable run (subclass decides where it goes)."""
        raise NotImplementedError


class EunomiaService(ReplicaRole, StabilizerBase):
    """The paper's stabilizer: Algorithm 3 over every partition of the site,
    shipping its stable runs to remote receivers itself.

    It heads its replica (:class:`~repro.core.replica.ReplicaRole`), so R of
    them under ``fault_tolerant=True`` are the paper's Algorithm 4 as
    written; alone, it is the R=1 case with no peers to gossip to.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 replica_id: int = 0,
                 propagate_op_cost: float = 0.0,
                 stab_round_cost: float = 0.0,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0,
                 stable_mark: Optional[str] = None):
        super().__init__(env, name, site, n_partitions, config,
                         insert_op_cost=insert_op_cost,
                         batch_cost=batch_cost,
                         heartbeat_cost=heartbeat_cost,
                         ack_cost=ack_cost)
        self._init_role(replica_id, stable_mark)
        self.propagate_op_cost = propagate_op_cost
        self.stab_round_cost = stab_round_cost

    def start(self) -> None:
        super().start()
        self._join_election()

    def _should_stabilize(self) -> bool:
        return self.is_leader()

    # ------------------------------------------------------------------
    # Stable-run consumption
    # ------------------------------------------------------------------
    def _emit(self, stable_ts: int, ops: list) -> None:
        if not ops:
            return
        cost = (self.stab_round_cost
                + self.propagate_op_cost * len(ops) * max(1, len(self.destinations)))
        self._enqueue(self._propagate, cost, stable_ts, ops)

    def _propagate(self, stable_ts: int, ops: list) -> None:
        """PROCESS(StableOps): ship the stable run, then tell followers what
        is now shipped so they prune (Alg. 4 line 12)."""
        if stable_ts > self.shipped_stable:
            self.shipped_stable = stable_ts
        self._ship(ops)
        if self.peers:
            self.multicast(self.peers, StableAnnounce(stable_ts))

    def _transfer_floors(self) -> tuple:
        return (self.shipped_stable,)

    def _adopt_floors(self, floors) -> None:
        self._prune(floors[0])
