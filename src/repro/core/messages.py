"""Wire messages of the Eunomia protocols (Algorithms 1–5).

Every message is a plain ``dataclass`` with ``slots``; ``size_bytes`` feeds
network/CPU accounting where it matters.  Names follow the paper where one
exists (ADD_OP → :class:`AddOpBatch` because the implementation always ships
batches, §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..kvstore.types import METADATA_OVERHEAD_BYTES, Update

__all__ = [
    "ClientRead",
    "ClientReadReply",
    "ClientUpdate",
    "ClientUpdateReply",
    "AddOpBatch",
    "PartitionHeartbeat",
    "BatchAck",
    "StableAnnounce",
    "StateTransferRequest",
    "StateTransferReply",
    "ShardStableBatch",
    "ShardStableVector",
    "RemoteStableBatch",
    "RemoteData",
    "ApplyRemote",
    "ApplyRemoteOk",
    "ReplicaAlive",
]


# ----------------------------------------------------------------------
# Client ↔ partition (Algorithms 1 and 2, vector form of §4)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ClientRead:
    """READ(key): fetch current value + its vector timestamp."""

    key: Any
    request_id: int = 0


@dataclass(slots=True)
class ClientReadReply:
    key: Any
    value: Any
    vts: Tuple[int, ...]
    request_id: int = 0


@dataclass(slots=True)
class ClientUpdate:
    """UPDATE(key, value, VClock_c): write with the client's causal past."""

    key: Any
    value: Any
    client_vts: Tuple[int, ...]
    value_bytes: int = 0
    request_id: int = 0
    #: client send time (sim seconds) — carried for tracing only, so a
    #: sampled span can open with the true end-to-end "issue" stage; not
    #: counted in size_bytes (real systems piggyback it in existing
    #: request framing).
    issued_at: float = 0.0

    @property
    def size_bytes(self) -> int:
        return self.value_bytes + 8 * len(self.client_vts) + METADATA_OVERHEAD_BYTES


@dataclass(slots=True)
class ClientUpdateReply:
    vts: Tuple[int, ...]
    request_id: int = 0


# ----------------------------------------------------------------------
# Partition → Eunomia (Algorithm 2 lines 8/12, batched per §5)
# ----------------------------------------------------------------------
def _wire_bytes(ops: tuple[Update, ...]) -> int:
    """A frame's §5 wire total: a metadata-only op (``value=None``) costs
    ``metadata_bytes``, a full one ``size_bytes`` — the two properties
    written out in one loop, since every frame sent is sized here."""
    total = 0
    for op in ops:
        total += 8 * len(op.vts) + METADATA_OVERHEAD_BYTES
        if op.value is not None:
            total += op.value_bytes
    return total


@dataclass(slots=True)
class AddOpBatch:
    """A timestamp-ordered run of updates from one partition, as a frame.

    With data/metadata separation the ``ops`` carry ``value=None`` — only
    ordering metadata flows through Eunomia.  ``resend`` marks at-least-once
    retransmissions to fault-tolerant replicas (charged less CPU at the
    sender: the serialized frame is reused verbatim).

    A frame is its ops: one partition's timestamp-ascending ``tuple`` of
    updates.  ``size_bytes`` is the §5 per-op sum (see :func:`_wire_bytes`).

    ``prev_ts`` is the timestamp of the last op of the partition's stream
    *before* this batch: the stream's prefix filter
    (:meth:`~repro.core.stream.ReliableStream.accepted_from`) refuses a
    batch whose ``prev_ts`` its receiver's ``PartitionTime`` does not cover.
    """

    partition_index: int
    ops: tuple[Update, ...]
    prev_ts: int = 0
    resend: bool = False

    @property
    def size_bytes(self) -> int:
        return _wire_bytes(self.ops)


@dataclass(slots=True)
class PartitionHeartbeat:
    """HEARTBEAT(p_n, Clock_n): idle partition advancing PartitionTime."""

    partition_index: int
    ts: int
    size_bytes: int = 16


@dataclass(slots=True)
class BatchAck:
    """Replica → partition: highest contiguous timestamp seen (Alg. 4 l.5)."""

    partition_index: int
    ack_ts: int
    size_bytes: int = 16


# ----------------------------------------------------------------------
# Eunomia replica coordination (Algorithm 4)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class StableAnnounce:
    """Leader → followers: StableTime, so followers prune their buffers."""

    stable_ts: int
    size_bytes: int = 16


@dataclass(slots=True)
class ReplicaAlive:
    """Ω failure-detector heartbeat among Eunomia replicas."""

    replica_id: int
    size_bytes: int = 16


@dataclass(slots=True)
class StateTransferRequest:
    """Rejoining replica → surviving peers: send me your shipped floors.

    Sent after an amnesia crash once checkpoint + WAL replay has rebuilt
    local state: before re-entering the Ω election, the rejoiner asks the
    survivors for the *current* shipped stable floors so it resumes from a
    correct ``StableTime``/``ShardStableVector`` instead of its stale
    recovered one (everything between its recovery floor and the survivors'
    floor has already been delivered remotely and need not be re-shipped).
    """

    replica_id: int
    size_bytes: int = 16


@dataclass(slots=True)
class StateTransferReply:
    """Surviving replica → rejoiner: per-shard shipped stable floors.

    Entry ``k`` is the highest timestamp at or below which shard ``k``'s
    ops are known shipped to remote datacenters — the same shipped-capped
    quantity a :class:`ShardStableVector` gossips, so adopting it can never
    prune an undelivered op.  K=1 replicas use a single-entry vector.
    """

    replica_id: int
    stable_times: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return 16 + 8 * len(self.stable_times)


@dataclass(slots=True)
class ShardStableVector:
    """Leader coordinator → follower coordinators: per-shard prune floors.

    The sharded generalization of :class:`StableAnnounce` (Alg. 4 line 12):
    entry ``k`` is the timestamp at or below which shard ``k``'s ops have
    been *shipped to remote datacenters*, so a follower replica's shard ``k``
    may prune its buffer at that floor (``drop_stable``, shard-locally,
    without any cross-shard coordination).

    Every entry is capped at the leader's released global StableTime: a
    leader shard's own ShardStableTime may run ahead of ``min(shards)``
    while its popped ops still sit unshipped in the leader coordinator's
    merge queues, and pruning followers there would lose exactly those ops
    on a leader crash.  The cap is what makes the failover argument go
    through — see ``docs/ARCHITECTURE.md``.
    """

    stable_times: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return 8 * len(self.stable_times)


# ----------------------------------------------------------------------
# Sharded stabilization (shard → coordinator)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ShardStableBatch:
    """Shard → coordinator: one serialized stable sub-run.

    ``stable_ts`` is the shard's ShardStableTime at emission; ``ops`` is the
    (ts, origin, seq)-ordered run of newly stable ops at or below it.  A
    batch with empty ``ops`` is a pure progress announcement — the
    coordinator's global ``min(ShardStableTime)`` must keep advancing even
    through shards whose partitions are idle.
    """

    shard_id: int
    stable_ts: int
    ops: tuple[Update, ...]

    @property
    def size_bytes(self) -> int:
        return 16 + _wire_bytes(self.ops)


# ----------------------------------------------------------------------
# Geo-replication (§4, Algorithm 5)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RemoteStableBatch:
    """Eunomia → remote receiver: a stable, totally-ordered run of updates.

    A frame like :class:`AddOpBatch`, its ``ops`` ascending in
    ``ORDER_KEY``: the receiver's prefix filter drops a re-shipped prefix
    by that key.  One tuple is multicast to every destination.
    """

    origin_dc: int
    ops: tuple[Update, ...]

    @property
    def size_bytes(self) -> int:
        return _wire_bytes(self.ops)


@dataclass(slots=True)
class RemoteData:
    """Partition → sibling partition: the update payload, shipped directly.

    Part of §5's separation of data and metadata: values travel out-of-band
    with no ordering constraints, identified by ``update.uid``.
    """

    update: Update

    @property
    def size_bytes(self) -> int:
        return self.update.size_bytes


@dataclass(slots=True)
class ApplyRemote:
    """Receiver → local partition: execute this remote update (Alg. 5 l.14)."""

    update: Update

    @property
    def size_bytes(self) -> int:
        return self.update.metadata_bytes


@dataclass(slots=True)
class ApplyRemoteOk:
    """Partition → receiver: update applied (the ``ok`` of Alg. 5 l.15)."""

    uid: Tuple[int, int, int]
    size_bytes: int = 16
