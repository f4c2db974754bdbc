"""Assembly of one datacenter's stabilizer complex.

The Eunomia service of a site is R replicas, and every replica has the same
anatomy — a :class:`~repro.core.replica.ReplicaGroup` of one *head* that
ships stable runs plus the shards behind it — whatever the two axes of
:class:`~repro.core.config.EunomiaConfig` say:

====================  =====================================================
``n_shards``          how a replica runs Algorithm 3: ``1`` — the head is an
                      :class:`EunomiaService` stabilizing every partition
                      itself (the paper's single sequential stabilizer);
                      ``K`` — K :class:`EunomiaShard` workers behind a
                      merging :class:`ShardCoordinator` head
``n_replicas``        how many replicas (Algorithm 4, needs
                      ``fault_tolerant=True``): the heads run the Ω
                      election among themselves and only the leader ships;
                      unreplicated is R=1 with no peers
====================  =====================================================

:func:`build_stabilizer_stack` is the single place that wiring lives;
:class:`repro.geo.datacenter.Datacenter` and the §7.1 load rigs
(:mod:`repro.harness.loadgen`) both build from it, so every composition
behaves identically under storage traffic and under partition emulators.
The returned :class:`StabilizerStack` answers the three questions any
deployment has: which processes to start, which processes ship stable runs
to remote receivers (``propagators``), and which processes a given
partition's uplink must stream to (``uplink_targets`` — every replica's head
when K=1, else the owning shard of every replica, so the uplink's
per-replica ack/retransmission machinery applies per (partition → shard)
stream; :meth:`StabilizerStack.wire_uplinks` points each host there).
Sharding is also the only way to spread the partitions' uplink fan-in
over more than one stabilizer process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..calibration import Calibration
from ..durability import CheckpointStore, RecoveryManager, WriteAheadLog
from ..sim.disk import DiskModel
from ..sim.env import Environment
from ..sim.process import Process
from .config import EunomiaConfig
from .replica import ReplicaGroup
from .service import EunomiaService
from .shard import EunomiaShard, ShardCoordinator, ShardMap

__all__ = ["StabilizerStack", "build_stabilizer_stack"]


@dataclass
class StabilizerStack:
    """The stabilizer processes of one site, in deployment-agnostic form."""

    config: EunomiaConfig
    #: the R replicas, in election order (one when unreplicated)
    groups: list[ReplicaGroup] = field(default_factory=list)
    #: partition → shard routing (None when K=1)
    shard_map: Optional[ShardMap] = None
    #: durability="wal": the restorer shared by every durable member
    recovery: Optional["RecoveryManager"] = None

    @property
    def heads(self) -> list:
        """One head per replica: the processes that ship stable runs."""
        return [group.head for group in self.groups]

    @property
    def shards(self) -> list[EunomiaShard]:
        """Every shard worker, all replicas flattened ([] when K=1)."""
        return [shard for group in self.groups for shard in group.shards]

    def processes(self) -> list[Process]:
        """Every stabilizer process, in start order (shards before heads)."""
        return [*self.shards, *self.heads]

    def propagators(self) -> list[Process]:
        """Processes that ship stable runs (all get remote destinations —
        any replica can be elected and must know where to propagate)."""
        return self.heads

    def uplink_targets(self, partition_index: int) -> list[Process]:
        """The processes partition ``partition_index`` must stream to."""
        if self.shard_map is None:
            return self.heads
        shard_id = self.shard_map.shard_of(partition_index)
        return [group.shards[shard_id] for group in self.groups]

    def crash_units(self) -> list[ReplicaGroup]:
        """Replica-failure targets in election order ([] when not
        fault-tolerant: no failover covers the only replica)."""
        return list(self.groups) if self.config.fault_tolerant else []

    def leader(self):
        """The process currently shipping stable runs for this site."""
        heads = self.heads
        for head in heads:
            if not head.crashed and head.is_leader():
                return head
        return heads[0]

    def wire_uplinks(self, hosts: list) -> None:
        """Point every host's uplink at its :meth:`uplink_targets`.

        ``hosts`` are partitions or partition emulators (anything with an
        ``index`` and ``set_eunomia``).
        """
        for host in hosts:
            host.set_eunomia(self.uplink_targets(host.index))


def build_stabilizer_stack(env: Environment, site: int, n_partitions: int,
                           config: EunomiaConfig, cal: Calibration,
                           name_prefix: str = "",
                           stable_mark: Optional[str] = None,
                           indices: Optional[list] = None
                           ) -> StabilizerStack:
    """Build the stabilizer complex for one site (not yet started).

    ``name_prefix`` namespaces process names (datacenters pass ``"dc0/"``
    etc., rigs pass ``""``); ``stable_mark`` overrides the metric name
    stable ops are marked under (defaults to ``eunomia_stable:dc{site}``).
    ``indices`` are the partition indices that bound the stable cut: the
    site's *resident* partitions, the only ones that feed the stabilizer
    (a non-resident index never streams ops and would pin the floor at
    zero forever).  Omitted, they are all ``n_partitions`` — the rigs'
    and unit tests' shape.

    Process identity lives in construction order and names — pids follow
    the former (each head before its shards), WAL and checkpoint names
    derive from the latter — so neither may change.
    """
    indices = range(n_partitions) if indices is None else indices
    stack = StabilizerStack(config=config)
    if config.n_shards > 1:
        stack.shard_map = ShardMap(indices, config.n_shards)

    for rid in range(config.n_replicas):
        tag = f"{name_prefix}eunomia{rid if config.fault_tolerant else ''}"
        if stack.shard_map is None:
            head = EunomiaService(
                env, tag, site, n_partitions, config, replica_id=rid,
                propagate_op_cost=cal.cost("eunomia_propagate_op"),
                stab_round_cost=cal.overhead("eunomia_stab_round"),
                insert_op_cost=cal.cost("eunomia_insert_op"),
                batch_cost=cal.overhead("eunomia_batch"),
                heartbeat_cost=cal.overhead("eunomia_heartbeat"),
                ack_cost=cal.overhead("eunomia_ack"),
                stable_mark=stable_mark,
            )
            head.set_tracked(indices)
            shards = []
        else:
            head = ShardCoordinator(
                env, f"{tag}-coord", site, config.n_shards, config,
                replica_id=rid,
                forward_op_cost=cal.cost("eunomia_coord_op"),
                merge_round_cost=cal.overhead("eunomia_coord_round"),
                batch_cost=cal.overhead("eunomia_batch"),
                stable_mark=stable_mark,
            )
            shards = [
                EunomiaShard(
                    env, f"{tag}-shard{sid}", site, n_partitions, config,
                    shard_id=sid, owned=stack.shard_map.owned_by(sid),
                    serialize_op_cost=cal.cost("eunomia_shard_serialize_op"),
                    stab_round_cost=cal.overhead("eunomia_stab_round"),
                    insert_op_cost=cal.cost("eunomia_insert_op"),
                    batch_cost=cal.overhead("eunomia_batch"),
                    heartbeat_cost=cal.overhead("eunomia_heartbeat"),
                    ack_cost=cal.overhead("eunomia_ack"),
                )
                for sid in range(config.n_shards)
            ]
            for shard in shards:
                shard.set_coordinator(head)
            head.set_shards(shards)
        stack.groups.append(ReplicaGroup(head, shards))
    for head in stack.heads:
        head.set_peers(stack.heads)

    if config.durability == "wal":
        # Every stabilizer that holds protocol state (shards, or the K=1
        # heads) gets its own WAL + checkpoint store; coordinators hold
        # none (they are rebuilt from their shards — floors are
        # shipped-capped, so every queued-but-unshipped op survives in some
        # shard's log).
        disk = DiskModel.from_calibration(cal)
        stack.recovery = RecoveryManager(disk)
        for group in stack.groups:
            for proc in group.stabilizers():
                proc.attach_durability(
                    WriteAheadLog(f"{proc.name}.wal", disk),
                    CheckpointStore(f"{proc.name}.ckpt"),
                    stack.recovery,
                    append_op_cost=cal.cost("wal_append_op"),
                    checkpoint_cost=cal.overhead("checkpoint_write"),
                )
    return stack
