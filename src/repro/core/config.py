"""Tunables of the Eunomia protocol stack.

Defaults mirror the paper's evaluation: partitions contact Eunomia every
millisecond (batching, §5/§7.1), Eunomia computes stability every few
milliseconds (θ), and heartbeats fire when a partition has been idle for
Δ = one batching interval.  Receivers release on the events that unblock a
queue (:mod:`repro.geo.receiver`), so they have no period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["EunomiaConfig", "MAX_BATCH_OPS", "RESEND_TIMEOUT",
           "RETRY_BACKOFF_BASE", "RETRY_BACKOFF_CAP", "SEQ_RETRY_TIMEOUT"]

#: Retry-with-backoff shape shared by the recovery idioms (uplink
#: retransmission escalation, failed-fsync commit retries, sequencer
#: request retries): each consecutive failure doubles the wait, capped.
#: The cap is the *bounded timeout* — no retry loop ever waits longer,
#: so recovery latency after the fault clears is bounded by it.
RETRY_BACKOFF_BASE = 0.002
RETRY_BACKOFF_CAP = 0.1

#: Upper bound on ops per AddOpBatch: bounds the cost of resending to a
#: slow or dead replica (at-least-once delivery stays correct; a lagging
#: replica simply catches up over more batches).
MAX_BATCH_OPS = 1000

#: Retransmission timeout for the fault-tolerant uplink: the unacked
#: suffix is resent only when acknowledgements from a replica stall for
#: this long.  Without it, a saturated (slow-acking) leader would trigger
#: full-window retransmissions every batch tick — a positive feedback loop
#: no real implementation would ship.
RESEND_TIMEOUT = 0.05

#: Sequencer-request retry timeout: a partition (or load client) that
#: has waited this long for a SeqReply re-issues the request — a
#: partition to the next sequencer-group member, round-robin, with the
#: backoff above; the §7.1 load client to the head again —
#: closing the "sequencer crash strands every in-flight request" stall.
SEQ_RETRY_TIMEOUT = 0.05


@dataclass
class EunomiaConfig:
    """Protocol timing and feature switches (times in seconds)."""

    #: Partition → Eunomia batching interval (§5); the straggler experiment
    #: (Fig. 7) inflates this on one partition to 10/100/1000 ms.  It is
    #: also the idle-partition heartbeat threshold Δ (Alg. 2 line 11): a
    #: heartbeat is sent when the physical clock is Δ ahead of the last
    #: update timestamp.  The uplink reads Δ from here once, so a
    #: straggler's inflated host interval leaves it alone.
    batch_interval: float = 0.001

    #: θ — period of Eunomia's PROCESS_STABLE (Alg. 3 line 7).  A class
    #: constant, not a field: no figure varies it; a test that runs at
    #: another θ patches the class attribute.
    stabilization_interval: ClassVar[float] = 0.005

    #: Ship update payloads partition→sibling-partition, metadata-only
    #: through Eunomia (§5 "Separation of Data and Metadata").
    separate_data_metadata: bool = True

    #: Number of Eunomia replicas.  1 with ``fault_tolerant=False`` is the
    #: plain Algorithm 3 service; with ``fault_tolerant=True`` the Alg. 4
    #: ack/resend machinery runs even for a single replica.
    n_replicas: int = 1
    fault_tolerant: bool = False

    #: Ω failure-detector timing for replica leader election.
    replica_alive_interval: float = 0.5
    replica_suspect_timeout: float = 1.6

    #: Sharded stabilization: split the datacenter's partitions across K
    #: :class:`~repro.core.shard.EunomiaShard` workers plus a merging
    #: :class:`~repro.core.shard.ShardCoordinator`.  ``1`` is the paper's
    #: single sequential stabilizer (plain :class:`EunomiaService`).
    #: Composes with ``fault_tolerant=True``: the whole K-shard pipeline is
    #: then replicated ``n_replicas`` times (Alg. 4 × K shards) — each
    #: replica runs its own shards behind its own coordinator, partitions
    #: stream to every replica's owning shard, and only the Ω-elected
    #: leader merges and ships stable runs.
    n_shards: int = 1

    #: Durability of stabilizer state: ``"none"`` (crash-stop with perfect
    #: memory — a recovered replica restarts with its protocol state intact)
    #: or ``"wal"`` — every stabilizer keeps a write-ahead log of accepted
    #: ops (group-commit fsyncs on a disk lane; fault-tolerant replicas ack
    #: batches only after the covering flush) plus periodic checkpoints, so
    #: an *amnesia* crash (``crash(lose_state=True)``) can be recovered by
    #: checkpoint + log replay and a peer state-transfer rejoin.  See
    #: :mod:`repro.durability`.
    durability: str = "none"

    #: Period of the checkpoint/WAL-truncation tick (``durability="wal"``):
    #: the dial between steady-state checkpoint writes and recovery replay
    #: length.
    checkpoint_interval: float = 0.25

    #: How long a rejoining replica waits for a peer's StateTransferReply
    #: before giving up and re-entering the election on its local
    #: (checkpoint + WAL) state alone — the no-surviving-peer path.
    state_transfer_timeout: float = 0.5

    def validate(self) -> None:
        """Sanity-check interval relationships; raises ValueError."""
        if self.n_replicas < 1:
            raise ValueError("need at least one Eunomia replica")
        if self.n_replicas > 1 and not self.fault_tolerant:
            raise ValueError("multiple replicas require fault_tolerant=True")
        if self.batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        if self.replica_suspect_timeout <= self.replica_alive_interval:
            raise ValueError("suspect timeout must exceed the alive interval")
        if self.n_shards < 1:
            raise ValueError("need at least one Eunomia shard")
        if self.durability not in ("none", "wal"):
            raise ValueError(
                f"unknown durability mode {self.durability!r} "
                "(expected 'none' or 'wal')"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if self.state_transfer_timeout <= 0:
            raise ValueError("state transfer timeout must be positive")
