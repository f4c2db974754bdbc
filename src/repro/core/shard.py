"""Sharded Eunomia: K stabilizer workers + a merging coordinator.

The paper's stabilizer is a single sequential process per datacenter, and
§7.1 names its limit outright: "the bottleneck of our Eunomia implementation
is the propagation to other geo-locations".  The §5 propagation tree only
relieves the fan-*in*; the ordering and serialization work itself still runs
on one core.  This module scales that step out, in the spirit of
decentralized stabilization schemes (Okapi's structured hybrid stable time;
Xiang & Vaidya's global stabilization for partial replication):

* :class:`EunomiaShard` — one of K workers, each running Algorithm 3
  unchanged over a *subset* of the datacenter's partitions with its own
  ``OpBuffer``.  Every θ it computes its ``ShardStableTime`` (the min of
  PartitionTime over its subset), serializes the stable sub-run, and ships
  it to the coordinator.
* :class:`ShardCoordinator` — tracks per-shard ``ShardStableTime``, computes
  the datacenter-wide ``StableTime = min(shards)``, and merges the shards'
  already-ordered runs with a K-way streaming merge (``heapq.merge``)
  before remote propagation.

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
its own K shards plus one :class:`ReplicatedShardCoordinator`
(assembled as a :class:`ShardedReplicaGroup`).  Algorithm 4 maps onto the
sharded pipeline line by line:

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

import heapq
from collections import deque
from typing import Callable, Optional

from ..kvstore.types import Update
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .config import EunomiaConfig
from .election import OmegaElection
from .messages import (
    RemoteStableBatch,
    ReplicaAlive,
    ShardStableBatch,
    ShardStableVector,
    StableAnnounce,
    StateTransferReply,
    StateTransferRequest,
)
from .service import StabilizerBase

__all__ = ["ShardMap", "EunomiaShard", "ShardCoordinator",
           "ReplicatedShardCoordinator", "ShardedReplicaGroup"]

class ShardMap:
    """Partition → shard assignment for one datacenter.

    Policies (``EunomiaConfig.shard_policy``):

    * ``"stride"`` — round-robin, partition ``p`` goes to shard ``p % K``;
    * ``"block"`` — contiguous ranges, partition ``p`` to ``p * K // N``.

    Both keep shard loads within one partition of each other; ``stride``
    additionally decorrelates a shard's subset from any locality in
    partition numbering (e.g. one hot rack of consecutive indices).
    """

    def __init__(self, n_partitions: int, n_shards: int,
                 policy: str = "stride",
                 indices: Optional[list] = None):
        if n_shards < 1:
            raise ValueError("need at least one Eunomia shard")
        # Partial geo-replication: only the site's resident partition
        # indices participate in stabilization; the assignment spreads the
        # resident universe (not raw index arithmetic), so loads stay
        # within one partition of each other for any placement.
        universe = (list(range(n_partitions)) if indices is None
                    else sorted(indices))
        if n_shards > len(universe):
            raise ValueError(
                f"cannot split {len(universe)} partitions across "
                f"{n_shards} shards: some shards would track no partition "
                f"and pin StableTime at zero forever"
            )
        if policy == "stride":
            assign = {p: j % n_shards for j, p in enumerate(universe)}
        elif policy == "block":
            assign = {p: j * n_shards // len(universe)
                      for j, p in enumerate(universe)}
        else:
            raise ValueError(f"unknown shard policy {policy!r}")
        self.n_partitions = n_partitions
        self.n_shards = n_shards
        self.policy = policy
        self._assign = assign

    def shard_of(self, partition_index: int) -> int:
        return self._assign[partition_index]

    def owned_by(self, shard_id: int) -> list[int]:
        """The partition indices a shard stabilizes (ascending)."""
        return sorted(p for p, s in self._assign.items() if s == shard_id)


class EunomiaShard(StabilizerBase):
    """One of K stabilizer workers: Algorithm 3 over a partition subset.

    In a replicated deployment (Alg. 4 × K) the shard additionally plays
    its replica's part of the Algorithm 4 machinery for the partitions it
    owns: it acknowledges every batch with its highest contiguous
    per-partition timestamp (line 5), runs FIND_STABLE only while its
    replica's coordinator leads (``leader_gate``), and — on follower
    replicas — prunes its buffer at the floors the leader gossips
    (lines 13–15, via :meth:`on_stable_announce`).
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 shard_id: int, owned: list[int],
                 serialize_op_cost: float = 0.0,
                 stab_round_cost: float = 0.0,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 cost_model: Optional[CostModel] = None,
                 leader_gate: Optional[Callable[[], bool]] = None):
        super().__init__(env, name, site, n_partitions, config,
                         insert_op_cost=insert_op_cost,
                         batch_cost=batch_cost,
                         heartbeat_cost=heartbeat_cost,
                         ack_cost=ack_cost,
                         metrics=metrics, cost_model=cost_model)
        if not owned:
            raise ValueError(f"shard {shard_id} owns no partitions")
        self.shard_id = shard_id
        self.owned = sorted(owned)
        self.serialize_op_cost = serialize_op_cost
        self.stab_round_cost = stab_round_cost
        #: replicated deployments: does this shard's replica lead the group?
        self.leader_gate = leader_gate
        self.coordinator: Optional[Process] = None
        #: highest ShardStableTime already shipped to the coordinator
        self.announced = 0

    def set_coordinator(self, coordinator: Process) -> None:
        self.coordinator = coordinator

    def _stable_floor(self) -> int:
        """ShardStableTime: only this shard's partitions bound stability."""
        times = self.partition_time
        return min(times[p] for p in self.owned)

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

    # ------------------------------------------------------------------
    # Algorithm 4 behaviour (replicated deployments only; NEW_BATCH acks
    # and follower pruning are inherited from StabilizerBase._post_batch /
    # on_stable_announce, shared with EunomiaReplica)
    # ------------------------------------------------------------------
    def _should_stabilize(self) -> bool:
        # Followers hold their buffers and wait for prune gossip; only the
        # leading replica's shards serialize (Alg. 4 leader-only PROCESS).
        return self.leader_gate is None or self.leader_gate()

    def _emit(self, stable_ts: int, ops: list) -> None:
        """Serialize the stable sub-run and hand it to the coordinator.

        Even an empty run is announced when ShardStableTime advanced — the
        coordinator's global min cannot move (and other shards' queued ops
        cannot be released) unless every shard keeps reporting progress.
        """
        if self.coordinator is None:
            return
        if not ops and stable_ts <= self.announced:
            return
        self.announced = stable_ts
        self.ops_stabilized += len(ops)
        batch = ShardStableBatch(self.shard_id, stable_ts, tuple(ops))
        cost = self.stab_round_cost + self.serialize_op_cost * len(ops)
        self._enqueue(lambda: self.send(self.coordinator, batch), cost)


class ShardCoordinator(Process):
    """Merges shard stable runs into the datacenter-wide stable stream.

    Receives :class:`ShardStableBatch` from each shard (FIFO links keep each
    shard's runs in announcement order), maintains ``shard_stable[k]`` and
    per-shard queues of not-yet-released ops, and on every receipt drains
    everything at or below ``StableTime = min(shard_stable)`` with a K-way
    streaming merge, then propagates the merged run exactly like the K=1
    service would.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_shards: int, config: EunomiaConfig,
                 forward_op_cost: float = 0.0,
                 merge_round_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 stable_mark: Optional[str] = None):
        cost_model = CostModel(costs={"ShardStableBatch": batch_cost})
        super().__init__(env, name, site=site, cost_model=cost_model)
        self.n_shards = n_shards
        self.config = config
        self.forward_op_cost = forward_op_cost
        self.merge_round_cost = merge_round_cost
        self.metrics = metrics or NullMetrics()
        self.shard_stable = [0] * n_shards
        self._queues: list[deque] = [deque() for _ in range(n_shards)]
        self.destinations: list[Process] = []
        self.stable_time = 0
        #: per-shard floors of the last run actually shipped (≤ stable_time)
        self.shipped_floors = [0] * n_shards
        self.ops_stabilized = 0
        self.merge_rounds = 0
        self.stable_mark = stable_mark or f"eunomia_stable:dc{site}"

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_destination(self, dest: Process) -> None:
        """Register a remote receiver (or measurement sink)."""
        self.destinations.append(dest)

    def start(self) -> None:
        """Event-driven: draining piggybacks on shard announcements."""

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
        runs = []
        for queue in self._queues:
            run = []
            while queue and queue[0].ts <= self.stable_time:
                run.append(queue.popleft())
            if run:
                runs.append(run)
        if not runs:
            return
        # Each run is already order_key()-ordered — the same (ts, origin,
        # seq) key the OpBuffer sorts by — and runs never interleave with
        # future arrivals (a shard never re-announces below its
        # ShardStableTime), so a K-way streaming merge re-serializes the
        # global order.
        if len(runs) > 1:
            ops = list(heapq.merge(*runs, key=Update.order_key))
        else:
            ops = runs[0]
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
        self._enqueue(lambda: self._propagate(ops, floors), cost)

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

    def _propagate(self, ops: list, floors=None) -> None:
        """Ship one merged stable run to every remote site."""
        self.merge_rounds += 1
        if floors is not None:
            shipped = self.shipped_floors
            for k, floor in enumerate(floors):
                if floor > shipped[k]:
                    shipped[k] = floor
        self.ops_stabilized += len(ops)
        self.metrics.mark_many(self.stable_mark, self.now, len(ops))
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            for op in ops:
                tracer.stage_once(op, "propagate", now, site)
        batch = RemoteStableBatch(self.site, tuple(ops))
        self.multicast(self.destinations, batch)
        self._post_propagate(ops, floors)

    def _post_propagate(self, ops: list, floors) -> None:
        """Hook: the replicated coordinator gossips prune floors here."""


class ReplicatedShardCoordinator(ShardCoordinator):
    """One replica's merge head in a fault-tolerant sharded deployment.

    R of these (one per :class:`ShardedReplicaGroup`) run the Ω election of
    :mod:`repro.core.election` among themselves; each fronts its replica's
    own K shards.  The leader merges its shards' stable sub-runs and ships
    them exactly like the unreplicated :class:`ShardCoordinator`, then
    gossips a :class:`~repro.core.messages.ShardStableVector` so follower
    coordinators fan per-shard prune floors out to their local shards
    (Alg. 4 lines 12–15, per shard).  Followers receive nothing from their
    own shards — the shards' ``leader_gate`` keeps them from serializing —
    so a follower's only stabilization work is ``drop_stable``.

    Leadership uniqueness is *not* required for safety (the paper's §3.3
    argument): during an election flap two coordinators may both ship and
    both gossip, remote receivers deduplicate the overlap per origin, and
    prune gossip only ever names ops that some leader actually shipped.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_shards: int, config: EunomiaConfig,
                 replica_id: int,
                 forward_op_cost: float = 0.0,
                 merge_round_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 stable_mark: Optional[str] = None):
        super().__init__(env, name, site, n_shards, config,
                         forward_op_cost=forward_op_cost,
                         merge_round_cost=merge_round_cost,
                         batch_cost=batch_cost,
                         metrics=metrics, stable_mark=stable_mark)
        self.replica_id = replica_id
        self.peers: list["ReplicatedShardCoordinator"] = []
        self.local_shards: list[EunomiaShard] = []
        self.election = OmegaElection(
            self, replica_id,
            alive_interval=config.replica_alive_interval,
            suspect_timeout=config.replica_suspect_timeout,
            on_change=self._leadership_changed,
        )
        self.leadership_log: list[tuple[float, int]] = []
        #: True between an amnesia-crash restore and state-transfer
        #: completion: the group neither leads nor broadcasts until then
        self._rejoining = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_peers(self, peers: list["ReplicatedShardCoordinator"]) -> None:
        """Register the other replicas' coordinators."""
        self.peers = [p for p in peers if p is not self]
        self.election.set_peers({p.replica_id: p for p in self.peers})

    def set_shards(self, shards: list[EunomiaShard]) -> None:
        """Register this replica's own K shards (prune fan-out targets)."""
        self.local_shards = list(shards)

    def start(self) -> None:
        super().start()
        if not self._rejoining:
            self.election.start()

    # ------------------------------------------------------------------
    # Crash recovery: peer state transfer (durability="wal")
    # ------------------------------------------------------------------
    def begin_rejoin(self) -> None:
        """Enter rejoin mode *before* :meth:`start`: the coordinator will
        neither claim leadership nor broadcast ReplicaAlive until the state
        transfer completes (or times out with no surviving peer)."""
        self._rejoining = True

    def request_state_transfer(self) -> None:
        """Ask surviving peers for their current shipped floors."""
        request = StateTransferRequest(self.replica_id)
        self.multicast(self.peers, request)
        self.after(self.config.state_transfer_timeout,
                   self._state_transfer_timeout)

    def on_state_transfer_request(self, msg: StateTransferRequest,
                                  src: Process) -> None:
        if self._rejoining:
            return  # both down: neither side has floors worth adopting
        self.send(src, StateTransferReply(self.replica_id,
                                          tuple(self.shipped_floors)))

    def on_state_transfer_reply(self, msg: StateTransferReply,
                                src: Process) -> None:
        if not self._rejoining:
            return
        # Adopt the survivors' shipped floors: everything at or below them
        # was delivered remotely while this group was down, so the restored
        # shards prune there instead of re-shipping the whole outage window.
        self._apply_floors(msg.stable_times)
        self._complete_rejoin()

    def _state_transfer_timeout(self) -> None:
        # No surviving peer answered: the local (checkpoint + WAL) floors
        # are the best available; remote dedup absorbs the re-ships.
        if self._rejoining:
            self._complete_rejoin()

    def _complete_rejoin(self) -> None:
        self._rejoining = False
        self.state_lost = False
        # Refresh the failure detector (stale pre-crash sightings would
        # otherwise linger) and resume ReplicaAlive broadcasts.
        self.election.set_peers({p.replica_id: p for p in self.peers})
        self.election.start()

    def _apply_floors(self, floors) -> None:
        shipped = self.shipped_floors
        for k, floor in enumerate(floors):
            if floor > shipped[k]:
                shipped[k] = floor
        released = min(floors)
        if released > self.stable_time:
            self.stable_time = released
        for k, queue in enumerate(self._queues):
            while queue and queue[0].ts <= floors[k]:
                queue.popleft()
        for shard in self.local_shards:
            self.send(shard, StableAnnounce(floors[shard.shard_id]))

    # ------------------------------------------------------------------
    # Algorithm 4 behaviour
    # ------------------------------------------------------------------
    def _post_propagate(self, ops: list, floors) -> None:
        # Alg. 4 line 12, vectorized: tell follower replicas what is now
        # shipped so their shards prune.
        if not ops:
            return
        vector = ShardStableVector(floors)
        self.multicast(self.peers, vector)

    def on_shard_stable_vector(self, msg: ShardStableVector,
                               src: Process) -> None:
        # Follower side: fan the per-shard floors out to the local shards.
        # Applying gossip is safe regardless of who believes they lead —
        # every floor names only remotely shipped ops (see the cap in
        # _prune_floors).  A deposed leader may still hold popped-but-
        # unreleased ops in its merge queues; everything at or below the
        # gossiped floors has now been shipped by the current leader, so
        # _apply_floors drops it here too (it would otherwise be
        # re-released — harmless but wasteful — if this replica leads
        # again).  Tracking the floors also gives followers the durable
        # truncation/state-transfer baseline (shipped_floors).
        self._apply_floors(msg.stable_times)

    def on_replica_alive(self, msg: ReplicaAlive, src: Process) -> None:
        self.election.on_alive(msg)

    def _leadership_changed(self, leader_id: int) -> None:
        self.leadership_log.append((self.now, leader_id))

    def is_leader(self) -> bool:
        """Whether this coordinator currently believes it leads the group."""
        return not self._rejoining and self.election.is_leader()


class ShardedReplicaGroup:
    """One replica of the fault-tolerant sharded stabilizer: K shards + a
    coordinator, presented as a unit (crash/recover target, introspection).

    This is the ``EunomiaReplica`` analogue of the sharded world: drills
    and figures crash *groups*, not individual shard processes — a replica
    failure takes its whole pipeline down at once.
    """

    def __init__(self, replica_id: int,
                 coordinator: ReplicatedShardCoordinator,
                 shards: list[EunomiaShard]):
        self.replica_id = replica_id
        self.coordinator = coordinator
        self.shards = list(shards)
        #: durable-state restorer (set by the assembly when durability="wal")
        self.recovery = None

    @property
    def name(self) -> str:
        return self.coordinator.name

    @property
    def crashed(self) -> bool:
        return self.coordinator.crashed

    @property
    def ops_stabilized(self) -> int:
        return self.coordinator.ops_stabilized

    @property
    def stable_mark(self) -> str:
        return self.coordinator.stable_mark

    @property
    def leadership_log(self) -> list[tuple[float, int]]:
        return self.coordinator.leadership_log

    def processes(self) -> list[Process]:
        """All member processes, shards first (start order)."""
        return [*self.shards, self.coordinator]

    def start(self) -> None:
        for proc in self.processes():
            proc.start()

    def crash(self, lose_state: bool = False) -> None:
        """Crash-stop the whole replica: every shard and the coordinator.

        ``lose_state=True`` is an amnesia crash: the members' protocol
        state (unstable buffers, PartitionTime, merge queues, floors) is
        wiped too; only durable media (WALs, checkpoints) survive, so
        :meth:`recover` then needs ``durability="wal"``.
        """
        for proc in self.processes():
            proc.crash(lose_state=lose_state)

    def recover(self) -> None:
        """Restart every member after a crash.

        ``Process.recover`` alone would leave a zombie — the crash's epoch
        bump permanently kills the epoch-guarded stabilization ticks and
        election broadcasts armed at start-up — so each member is started
        again.  After a crash-stop, protocol state survives: the uplinks'
        Alg. 4 retransmission backfills everything missed while down, and
        anything the rejoining replica re-ships from its stale
        ``StableTime`` is deduplicated by remote receivers.

        After an *amnesia* crash (``crash(lose_state=True)``) the members
        are rebuilt from their WALs and checkpoints first, and the
        coordinator runs a peer state-transfer round — adopting the
        survivors' shipped floors — before re-entering the Ω election
        (see :mod:`repro.durability`).
        """
        if self.coordinator.state_lost:
            self._rejoin_with_state_loss()
            return
        for proc in self.processes():
            proc.recover()
            proc.start()

    def _rejoin_with_state_loss(self) -> None:
        if self.recovery is None:
            raise RuntimeError(
                f"{self.name}: state was lost in the crash and no durable "
                "state is attached — rejoin requires "
                "EunomiaConfig(durability='wal')"
            )
        for shard in self.shards:
            shard.recover()
            self.recovery.restore(shard)
            shard.start()
        coordinator = self.coordinator
        coordinator.recover()
        coordinator.begin_rejoin()     # no leadership/broadcast until caught up
        coordinator.start()
        coordinator.request_state_transfer()

    def rejoin(self) -> None:
        """Alias of :meth:`recover` — naming symmetry with
        :meth:`repro.core.replica.EunomiaReplica.rejoin`, so drills and
        figures can treat both crash-unit kinds uniformly."""
        self.recover()

    # ------------------------------------------------------------------
    # Partial-group failures: one shard, not the whole pipeline
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: int, lose_state: bool = False) -> None:
        """Crash a single member shard; the coordinator stays up.

        No failover follows — the Ω election watches coordinators — so the
        site's stable output stalls at the dead shard's last announced
        floor (``min(ShardStableTime)`` stops moving) until the shard
        rejoins and the uplinks' retransmission backfills it.
        """
        self.shards[shard_id].crash(lose_state=lose_state)

    def recover_shard(self, shard_id: int) -> None:
        """Rejoin one crashed shard (durable restore after an amnesia
        crash).  The live local coordinator's shipped floors raise the
        recovery floor past the shard's own checkpoint, so the restored
        buffer skips ops that are provably delivered."""
        shard = self.shards[shard_id]
        shard.recover()
        if shard.state_lost:
            if self.recovery is None:
                raise RuntimeError(
                    f"{shard.name}: state was lost in the crash and no "
                    "durable state is attached — rejoin requires "
                    "EunomiaConfig(durability='wal')"
                )
            self.recovery.restore(
                shard,
                extra_floor=self.coordinator.shipped_floors[shard_id])
        shard.start()

    def is_leader(self) -> bool:
        return self.coordinator.is_leader()
