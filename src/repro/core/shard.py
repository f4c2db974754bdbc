"""Sharded Eunomia: K stabilizer workers + a merging coordinator.

The paper's stabilizer is a single sequential process per datacenter, and
§7.1 names its limit outright: "the bottleneck of our Eunomia implementation
is the propagation to other geo-locations".  This module scales that step
out, and with it the all-to-one uplink fan-*in* §5 worries about: each
shard receives the frames and heartbeats of only its own partitions, so a
stabilizer's inbound message rate falls by K — the job §5's propagation
tree would do, and unlike the tree it composes with Algorithm 4 (below).
It follows decentralized stabilization schemes (Okapi's structured hybrid
stable time; Xiang & Vaidya's global stabilization for partial
replication):

* :class:`EunomiaShard` — one of K workers, each running Algorithm 3
  unchanged over a *subset* of the datacenter's partitions with its own
  ``RunBuffer``.  Every θ it computes its ``ShardStableTime`` (the min of
  PartitionTime over its subset), serializes the stable sub-run, and ships
  it to the coordinator.
* :class:`ShardCoordinator` — tracks per-shard ``ShardStableTime``, computes
  the datacenter-wide ``StableTime = min(shards)``, and merges the shards'
  already-ordered runs before remote propagation: one stable ``list.sort``
  of their shard-order concatenation, keyed in C on ``(ts,
  partition_index, seq)``, which CPython's run detection turns into a
  merge of the sorted runs.

Correctness (Properties 1–2 preserved):

* each partition's traffic is routed to exactly one shard over FIFO links,
  so every shard still sees a FIFO prefix per partition — Algorithm 3's
  premise holds per shard unchanged;
* a shard announcing ``ShardStableTime = S`` will never later emit an op
  with ``ts <= S`` (its hybrid clocks are monotone and its buffer pops the
  whole prefix), so successive sub-runs from one shard are strictly
  increasing in the ``(ts, origin, seq)`` key;
* the coordinator only releases ops at or below ``min(ShardStableTime)``,
  merged by ``(ts, origin, seq)`` — the same key and tie-break the single
  stabilizer uses — so the merged stream is op-for-op the serialization the
  K=1 service would have produced (partition sets are disjoint, hence keys
  never collide across shards).

Cost model: shards pay the tree-insert and run-serialization CPU (spread
over K cores); the coordinator pays only a cheap per-op forward of the
pre-serialized runs, per destination, plus a fixed merge-round overhead —
scatter-gather serialization with a thin merging front, which is what lets
stabilization throughput scale with K until the coordinator saturates.

Fault tolerance (Algorithm 4 × K shards)
----------------------------------------

With ``EunomiaConfig(fault_tolerant=True, n_replicas=R, n_shards=K)`` the
whole K-shard pipeline above is *replicated*: each of the R replicas runs
its own K shards behind its own :class:`ShardCoordinator` (one
:class:`~repro.core.replica.ReplicaGroup`).  The coordinator heads the
replica, i.e. plays the :class:`~repro.core.replica.ReplicaRole` exactly as
the K=1 service does, and Algorithm 4 maps onto the sharded pipeline line
by line:

* NEW_BATCH acks (Alg. 4 line 5) move into the shards — partitions
  retransmit unacked suffixes to the owning shard *of every replica*
  (:mod:`repro.core.uplink` unchanged), so each (partition → shard) stream
  independently enjoys the prefix property;
* the Ω election (Alg. 4 lines 7–10, :mod:`repro.core.election`) runs
  among the R coordinators; only the leader's shards run FIND_STABLE and
  only the leader coordinator merges and ships stable runs;
* the leader's StableTime announcement (Alg. 4 line 12) becomes a
  :class:`~repro.core.messages.ShardStableVector` gossiped to follower
  coordinators, which fan per-shard ``StableAnnounce`` floors out to their
  local shards so each prunes its own buffer (Alg. 4 lines 13–15,
  ``drop_stable``) with no cross-shard coordination.

Failover correctness is the unsharded argument applied per (partition →
shard) stream: every surviving replica's shard ``k`` holds the complete
un-pruned prefix of each partition it owns (acks gate the uplink's
retransmission per replica), prune floors are capped at what the dead
leader *shipped* (see :class:`~repro.core.messages.ShardStableVector`), so
a new leader re-emits at most the window between the last gossip and the
crash — which remote receivers deduplicate per origin exactly as in the
K=1 case.  The property test in ``tests/test_sharded_stabilization.py``
checks op-for-op equality of the delivered stream against the K=1 and the
unreplicated K-shard pipelines, including under a forced leader crash.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..kvstore.types import ORDER_KEY
from ..sim.env import Environment
from ..sim.process import Process
from .config import EunomiaConfig
from .messages import ShardStableBatch, ShardStableVector, StableAnnounce
from .replica import ReplicaRole
from .service import StabilizerBase

__all__ = ["ShardMap", "EunomiaShard", "ShardCoordinator"]

class ShardMap:
    """Partition → shard assignment for one datacenter.

    Round-robin over ``indices``, the site's resident partition indices:
    the ``j``-th goes to shard ``j % K`` (``p % K`` under full
    replication).  Shard loads stay within one partition of each other,
    and a shard's subset is decorrelated from any locality in partition
    numbering (e.g. one hot rack of consecutive indices).
    """

    def __init__(self, indices, n_shards: int):
        if n_shards < 1:
            raise ValueError("need at least one Eunomia shard")
        # Only the site's resident partition indices participate in
        # stabilization; the assignment spreads that universe (not raw
        # index arithmetic), so loads stay within one partition of each
        # other for any placement.
        universe = sorted(indices)
        if n_shards > len(universe):
            raise ValueError(
                f"cannot split {len(universe)} partitions across "
                f"{n_shards} shards: some shards would track no partition "
                f"and pin StableTime at zero forever"
            )
        self.n_shards = n_shards
        self._assign = {p: j % n_shards for j, p in enumerate(universe)}

    def shard_of(self, partition_index: int) -> int:
        return self._assign[partition_index]

    def owned_by(self, shard_id: int) -> list[int]:
        """The partition indices a shard stabilizes (ascending)."""
        return sorted(p for p, s in self._assign.items() if s == shard_id)


class EunomiaShard(StabilizerBase):
    """One of K stabilizer workers: Algorithm 3 over a partition subset.

    ``owned`` is its stable cut (:attr:`StabilizerBase.tracked`): only the
    partitions routed to this shard bound its ShardStableTime.

    In a replicated deployment (Alg. 4 × K) the shard additionally plays
    its replica's part of the Algorithm 4 machinery for the partitions it
    owns: it acknowledges every batch with its highest contiguous
    per-partition timestamp (line 5), runs FIND_STABLE only while its
    replica's coordinator leads, and — on follower replicas — prunes its
    buffer at the floors the leader gossips (lines 13–15, via
    :meth:`on_stable_announce`).
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 shard_id: int, owned: list[int],
                 serialize_op_cost: float = 0.0,
                 stab_round_cost: float = 0.0,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0):
        super().__init__(env, name, site, n_partitions, config,
                         insert_op_cost=insert_op_cost,
                         batch_cost=batch_cost,
                         heartbeat_cost=heartbeat_cost,
                         ack_cost=ack_cost)
        if not owned:
            raise ValueError(f"shard {shard_id} owns no partitions")
        self.shard_id = shard_id
        self.set_tracked(owned)
        self.serialize_op_cost = serialize_op_cost
        self.stab_round_cost = stab_round_cost
        self.coordinator: Optional[Process] = None
        #: highest ShardStableTime already shipped to the coordinator
        self.announced = 0

    def set_coordinator(self, coordinator: Process) -> None:
        self.coordinator = coordinator

    def _durable_floor(self) -> int:
        """WAL-truncation floor: the shard's shipped floor per the gossiped
        StableAnnounce, or the local coordinator's shipped vector (leader
        shards receive no gossip — their coordinator *is* the shipper)."""
        floor = self.shipped_stable
        shipped = getattr(self.coordinator, "shipped_floors", None)
        if shipped is not None and shipped[self.shard_id] > floor:
            floor = shipped[self.shard_id]
        return floor

    def _lose_state(self) -> None:
        super()._lose_state()
        self.announced = 0

    def _adopt_recovery_state(self, partition_time: list, buffer,
                              floor: int) -> None:
        super()._adopt_recovery_state(partition_time, buffer, floor)
        self.announced = floor

    def _should_stabilize(self) -> bool:
        # Followers hold their buffers and wait for prune gossip; only the
        # leading replica's shards serialize (Alg. 4 leader-only PROCESS).
        coordinator = self.coordinator
        return coordinator is not None and coordinator.is_leader()

    def _emit(self, stable_ts: int, ops: list) -> None:
        """Serialize the stable sub-run and hand it to the coordinator.

        Even an empty run is announced when ShardStableTime advanced — the
        coordinator's global min cannot move (and other shards' queued ops
        cannot be released) unless every shard keeps reporting progress.
        """
        if not ops and stable_ts <= self.announced:
            return
        self.announced = stable_ts
        self.ops_stabilized += len(ops)
        batch = ShardStableBatch(self.shard_id, stable_ts, tuple(ops))
        cost = self.stab_round_cost + self.serialize_op_cost * len(ops)
        self._enqueue(self.send, cost, self.coordinator, batch)


class ShardCoordinator(ReplicaRole, Process):
    """Merges shard stable runs into the datacenter-wide stable stream.

    Receives :class:`ShardStableBatch` from each shard (FIFO links keep each
    shard's runs in announcement order), maintains ``shard_stable[k]`` and
    per-shard queues of not-yet-released ops, and on every receipt drains
    everything at or below ``StableTime = min(shard_stable)``, merges it
    into ``(ts, origin, seq)`` order, then propagates the merged run
    exactly like the K=1 service would.

    It heads its replica (:class:`~repro.core.replica.ReplicaRole`).  In a
    replicated deployment the leader, after shipping, gossips a
    :class:`~repro.core.messages.ShardStableVector` so follower
    coordinators fan per-shard prune floors out to their local shards
    (Alg. 4 lines 12–15, per shard).  Followers receive nothing from their
    own shards — those serialize only while their coordinator leads — so a
    follower's only stabilization work is ``drop_stable``.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_shards: int, config: EunomiaConfig,
                 replica_id: int = 0,
                 forward_op_cost: float = 0.0,
                 merge_round_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 stable_mark: Optional[str] = None):
        super().__init__(env, name, site=site,
                         costs={"ShardStableBatch": batch_cost})
        self.n_shards = n_shards
        self.config = config
        self.forward_op_cost = forward_op_cost
        self.merge_round_cost = merge_round_cost
        self._init_role(replica_id, stable_mark)
        self.local_shards: list[EunomiaShard] = []
        self.shard_stable = [0] * n_shards
        self._queues: list[deque] = [deque() for _ in range(n_shards)]
        self.stable_time = 0
        #: per-shard floors of the last run actually shipped (≤ stable_time)
        self.shipped_floors = [0] * n_shards
        self.merge_rounds = 0

    def set_shards(self, shards: list[EunomiaShard]) -> None:
        """Register this replica's own K shards (prune fan-out targets)."""
        self.local_shards = list(shards)

    def start(self) -> None:
        """Event-driven: draining piggybacks on shard announcements, so the
        Ω election is the only timer."""
        self._join_election()

    # ------------------------------------------------------------------
    # Ingestion + merge
    # ------------------------------------------------------------------
    def on_shard_stable_batch(self, msg: ShardStableBatch, src: Process) -> None:
        if msg.stable_ts > self.shard_stable[msg.shard_id]:
            self.shard_stable[msg.shard_id] = msg.stable_ts
        if msg.ops:
            self._queues[msg.shard_id].extend(msg.ops)
        self._drain()

    def _drain(self) -> None:
        stable = min(self.shard_stable)
        if stable > self.stable_time:
            self.stable_time = stable
        ops = []
        for queue in self._queues:
            while queue and queue[0].ts <= self.stable_time:
                ops.append(queue.popleft())
        if not ops:
            return
        # Each shard's run is already ORDER_KEY-ordered — the same (ts,
        # origin, seq) key the RunBuffer sorts by — and runs never
        # interleave with future arrivals (a shard never re-announces below
        # its ShardStableTime), so sorting the shard-order concatenation
        # re-serializes the global order.  The sort is stable: on equal
        # keys the earlier shard comes first, as in a K-way heapq.merge.
        ops.sort(key=ORDER_KEY)
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            for op in ops:
                tracer.stage_once(op, "merge", now, site)
        # Prune floors are snapshotted NOW, not when the queued propagate
        # finally runs: a later drain may advance stable_time while this
        # release still waits in the service queue, and gossiping the newer
        # floor would let followers prune ops this replica has not shipped
        # yet (lost if it crashes with the later propagate still queued).
        floors = self._prune_floors()
        cost = (self.merge_round_cost
                + self.forward_op_cost * len(ops) * max(1, len(self.destinations)))
        self._enqueue(self._propagate, cost, ops, floors)

    def _prune_floors(self):
        """Per-shard floors this release covers: each shard's announced
        floor capped at the released global StableTime.  A shard's own
        floor may run ahead while its popped ops sit unshipped in this
        coordinator's merge queues; the cap is what keeps follower pruning
        and WAL truncation from destroying exactly those ops."""
        released = self.stable_time
        return tuple(min(s, released) for s in self.shard_stable)

    def _lose_state(self) -> None:
        """Amnesia crash: the coordinator is rebuilt from its shards —
        every queued-but-unshipped op is still in some replica's shard
        buffer/WAL (floors are shipped-capped), so nothing here is durable."""
        self.shard_stable = [0] * self.n_shards
        self._queues = [deque() for _ in range(self.n_shards)]
        self.stable_time = 0
        self.shipped_floors = [0] * self.n_shards

    def _propagate(self, ops: list, floors) -> None:
        """Ship one merged stable run, then tell follower replicas what is
        now shipped so their shards prune (Alg. 4 line 12, vectorized)."""
        self.merge_rounds += 1
        self._note_shipped(floors)
        self._ship(ops)
        if self.peers:
            self.multicast(self.peers, ShardStableVector(floors))

    def _note_shipped(self, floors) -> None:
        shipped = self.shipped_floors
        for k, floor in enumerate(floors):
            if floor > shipped[k]:
                shipped[k] = floor

    # ------------------------------------------------------------------
    # Follower side: prune to the floors a peer shipped
    # ------------------------------------------------------------------
    def on_shard_stable_vector(self, msg: ShardStableVector,
                               src: Process) -> None:
        # Applying gossip is safe regardless of who believes they lead —
        # every floor names only remotely shipped ops (see the cap in
        # _prune_floors).  A deposed leader may still hold popped-but-
        # unreleased ops in its merge queues; everything at or below the
        # gossiped floors has now been shipped by the current leader, so
        # _adopt_floors drops it here too (it would otherwise be
        # re-released — harmless but wasteful — if this replica leads
        # again).  Tracking the floors also gives followers the durable
        # truncation/state-transfer baseline (shipped_floors).
        self._adopt_floors(msg.stable_times)

    def _transfer_floors(self) -> tuple:
        return tuple(self.shipped_floors)

    def _adopt_floors(self, floors) -> None:
        self._note_shipped(floors)
        released = min(floors)
        if released > self.stable_time:
            self.stable_time = released
        for k, queue in enumerate(self._queues):
            while queue and queue[0].ts <= floors[k]:
                queue.popleft()
        for shard in self.local_shards:
            self.send(shard, StableAnnounce(floors[shard.shard_id]))
