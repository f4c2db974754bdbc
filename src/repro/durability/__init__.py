"""Durability & crash recovery for the Eunomia stabilizers.

PR 3 replicated the sharded stabilizer, but its failure model was crash-stop
with perfect memory: a recovered replica restarted with its protocol state
intact.  The hard part of the Algorithm 4 fault-tolerance story — a replica
that loses its in-memory unstable set and PartitionTime and must *rejoin*
without violating the stable serialization — needs state that survives the
crash.  This package provides it, simulated but cost-accounted:

* :mod:`repro.durability.wal` — a write-ahead log with group-commit fsync
  semantics riding the sim clock: accepted ops (and heartbeat PartitionTime
  advances) are *staged* in a volatile buffer and become durable only when a
  flush commits them, so an amnesia crash genuinely loses unsynced records.
  Fault-tolerant replicas acknowledge a batch only after the covering flush
  (ack-after-fsync), which keeps the Alg. 4 prefix property honest: an op the
  uplink pruned (because every replica acked it) is guaranteed to be in every
  replica's durable log.
* :mod:`repro.durability.checkpoint` — periodic snapshots of
  ``(PartitionTime, shipped stable floor)`` that bound log replay and allow
  truncating the log below the floor.  The floor is always the *shipped*
  StableTime (what remote receivers actually got), never a replica's own
  running floor — popped-but-unshipped ops must survive in the log.
* :mod:`repro.durability.recovery` — the rejoin path: replay
  checkpoint + log suffix to rebuild PartitionTime and the unstable buffer,
  then (with peers) a peer state-transfer round that adopts the
  surviving group's shipped floors before the rejoiner re-enters the Ω
  election, so it resumes from a correct ``StableTime``/``ShardStableVector``
  instead of a stale one.

Enable with ``EunomiaConfig(durability="wal", checkpoint_interval=...)``;
:func:`repro.core.assembly.build_stabilizer_stack` wires the stores into
every stabilizer of the stack.  See ``docs/ARCHITECTURE.md`` ("Durability & crash
recovery") for the end-to-end argument.
"""

from .checkpoint import Checkpoint, CheckpointStore
from .recovery import RecoveryManager, RestoreReport
from .wal import OP_RECORD, PT_RECORD, WriteAheadLog

__all__ = [
    "WriteAheadLog",
    "OP_RECORD",
    "PT_RECORD",
    "Checkpoint",
    "CheckpointStore",
    "RecoveryManager",
    "RestoreReport",
]
