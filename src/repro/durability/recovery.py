"""Crash recovery: checkpoint + WAL replay for amnesia-crashed stabilizers.

:class:`RecoveryManager` rebuilds one stabilizer process after
``crash(lose_state=True)`` wiped its protocol state:

1. start from the latest :class:`~repro.durability.checkpoint.Checkpoint`
   (``PartitionTime`` vector + shipped stable floor), or zeros when the
   crash preceded the first checkpoint;
2. replay the WAL suffix: fold PartitionTime advances in, and rebuild the
   unstable buffer from every op record above the floor — acceptance order
   is per-origin monotone, so the run-aware buffer's ingestion contract
   holds on replay exactly as it did live;
3. pin the process's ``StableTime`` (and, for shards, the ``announced``
   floor) at the recovered floor: everything above it is re-emitted once
   the replica leads again, and remote receivers deduplicate the overlap
   per origin (Alg. 5) exactly as they do for a live failover.

Replay is charged on the process's CPU lane (``DiskModel.replay_cost`` per
record), so a rejoining replica is genuinely busy restoring before it can
serve — retransmitted uplink traffic queues behind the replay.

The *group*-level rejoin — peer state transfer to adopt the surviving
replicas' shipped floors, then re-entering the Ω election — is driven by
the crash unit itself (:meth:`repro.core.replica.ReplicaGroup.recover`),
which calls :meth:`restore` per member and then runs the
``StateTransferRequest``/``StateTransferReply`` handshake of
:mod:`repro.core.messages`.  The manager records a
:class:`RestoreReport` per restore for drills and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datastruct.runbuffer import RunBuffer
from ..sim.disk import DiskModel

__all__ = ["RecoveryManager", "RestoreReport"]


def _replayed() -> None:
    """The body of a replay's CPU slot: the slot itself is the work."""


@dataclass(slots=True)
class RestoreReport:
    """What one checkpoint+WAL restore rebuilt."""

    name: str
    records_replayed: int
    ops_rebuilt: int
    floor: int
    had_checkpoint: bool
    cost_s: float


class RecoveryManager:
    """Restores amnesia-crashed stabilizer processes from durable state."""

    def __init__(self, disk: DiskModel):
        self.disk = disk
        self.reports: list[RestoreReport] = []

    def restore(self, proc, extra_floor: int = 0) -> RestoreReport:
        """Rebuild ``proc`` (a :class:`~repro.core.service.StabilizerBase`)
        from its checkpoint store and WAL.

        ``extra_floor`` raises the recovery floor beyond the checkpoint's —
        used when a *live* local coordinator already knows a newer shipped
        floor for this shard (single-shard rejoin), so the restored buffer
        skips ops that are provably delivered.  The floor only ever rises:
        ops at or below a shipped floor are never needed again.
        """
        wal, checkpoints = proc.wal, proc.checkpoints
        if wal is None or checkpoints is None:
            raise RuntimeError(
                f"{proc.name}: cannot restore lost state without durability "
                "(EunomiaConfig(durability='wal'))"
            )
        checkpoint = checkpoints.latest
        if checkpoint is not None:
            floor = max(checkpoint.floor, extra_floor)
            partition_time = list(checkpoint.partition_time)
        else:
            floor = extra_floor
            partition_time = [0] * proc.n_partitions
        entries = wal.replay(partition_time, floor)
        buffer = RunBuffer()
        for ts, origin, seq, op in entries:
            buffer.add(ts, origin, seq, op)
        proc._adopt_recovery_state(partition_time, buffer, floor)
        cost = self.disk.replay_cost(len(wal.records))
        if cost > 0.0:
            # Replay occupies the CPU: deliveries queue behind the restore.
            proc._enqueue(_replayed, cost)
        report = RestoreReport(
            name=proc.name,
            records_replayed=len(wal.records),
            ops_rebuilt=len(entries),
            floor=floor,
            had_checkpoint=checkpoint is not None,
            cost_s=cost,
        )
        self.reports.append(report)
        return report
