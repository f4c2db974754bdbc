"""§5 "Communication Patterns": the partition → Eunomia propagation tree.

With many partitions, the all-to-one batch traffic into Eunomia "may not
scale in practice"; the paper's first remedy is a propagation tree among
partition servers.  :class:`TreeRelay` is one interior node of that tree: a
group of partitions sends its batches and heartbeats to the relay, which
coalesces everything that arrived during a flush window into a single
:class:`CombinedBatch` — cutting the *message* rate at Eunomia by the
group's fan-in while preserving each partition's FIFO sub-stream (the relay
forwards per-partition messages in arrival order over FIFO links, so
Properties 1–2 are untouched).

The cost is one extra LAN hop plus up to one flush window of added
stabilization lag — the trade the paper describes ("a slight increase in
the stabilization time").

With sharded stabilization (``n_shards > 1``) a relay's partition group may
span shards, so relays carry a routing table (:meth:`TreeRelay.set_routing`)
and emit one combined window per owning shard instead of one broadcast.

Relays are supported for the non-fault-tolerant service configuration; the
fault-tolerant uplink needs per-replica acknowledgement channels that a
coalescing relay would have to demultiplex (a straightforward but noisy
extension the paper does not describe), so the combination is rejected at
configuration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .config import TREE_FLUSH_INTERVAL
from .messages import AddOpBatch, PartitionHeartbeat

__all__ = ["CombinedBatch", "TreeRelay"]


@dataclass(slots=True)
class CombinedBatch:
    """One flush window of traffic from a relay's partition group."""

    batches: tuple[AddOpBatch, ...]
    heartbeats: tuple[PartitionHeartbeat, ...]

    @property
    def size_bytes(self) -> int:
        return (sum(b.size_bytes for b in self.batches)
                + sum(h.size_bytes for h in self.heartbeats))

    def op_count(self) -> int:
        return sum(len(b.ops) for b in self.batches)


class TreeRelay(Process):
    """An interior node of the §5 propagation tree."""

    def __init__(self, env: Environment, name: str, site: int,
                 flush_interval: float = TREE_FLUSH_INTERVAL,
                 forward_cost: float = 0.0,
                 flush_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None):
        cost_model = CostModel(costs={
            "AddOpBatch": forward_cost,
            "PartitionHeartbeat": forward_cost,
        })
        super().__init__(env, name, site=site, cost_model=cost_model)
        self.flush_interval = flush_interval
        self.flush_cost = flush_cost
        self.metrics = metrics or NullMetrics()
        self.upstream: list[Process] = []
        self.routing: Optional[dict[int, Process]] = None
        self._batches: list[AddOpBatch] = []
        self._heartbeats: dict[int, PartitionHeartbeat] = {}
        self.messages_in = 0
        self.messages_out = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_upstream(self, targets: list[Process]) -> None:
        """The next tree level: Eunomia service(s) or a higher relay."""
        self.upstream = list(targets)

    def set_routing(self, routing: dict[int, Process]) -> None:
        """Route each partition's traffic to its owning Eunomia shard.

        ``routing`` maps a partition index to the upstream process that
        stabilizes it.  With a routing table installed, each flush emits one
        :class:`CombinedBatch` *per shard that has traffic* instead of one
        broadcast — a shard must never ingest (or bound its ShardStableTime
        by) partitions it does not own.  Unrouted partition indices are a
        wiring bug and fail loudly at flush time.
        """
        self.routing = dict(routing)

    def start(self) -> None:
        self.periodic(self.flush_interval, self._flush, cost=self.flush_cost)

    # ------------------------------------------------------------------
    # Ingestion (buffered, per-partition order preserved by list append)
    # ------------------------------------------------------------------
    def on_add_op_batch(self, msg: AddOpBatch, src: Process) -> None:
        self.messages_in += 1
        self._batches.append(msg)

    def on_partition_heartbeat(self, msg: PartitionHeartbeat, src: Process) -> None:
        self.messages_in += 1
        # Only the newest heartbeat per partition matters (they carry maxima)
        # — but never let a heartbeat overtake a buffered batch from the
        # same partition: PartitionTime must move through the batch's ops.
        self._heartbeats[msg.partition_index] = msg

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if not self._batches and not self._heartbeats:
            return
        batches, self._batches = self._batches, []
        heartbeats, self._heartbeats = self._heartbeats, {}
        if self.routing is None:
            combined = CombinedBatch(tuple(batches),
                                     tuple(heartbeats.values()))
            for target in self.upstream:
                self.send(target, combined)
                self.messages_out += 1
            return
        # Sharded upstream: one combined window per owning shard.  Within a
        # shard's window, per-partition arrival order is preserved (stable
        # grouping of an in-order list), so the FIFO sub-streams survive.
        per_shard: dict[int, tuple[Process, list, list]] = {}
        for batch in batches:
            target = self.routing[batch.partition_index]
            per_shard.setdefault(target.pid, (target, [], []))[1].append(batch)
        for index, beat in heartbeats.items():
            target = self.routing[index]
            per_shard.setdefault(target.pid, (target, [], []))[2].append(beat)
        for target, shard_batches, shard_beats in per_shard.values():
            self.send(target, CombinedBatch(tuple(shard_batches),
                                            tuple(shard_beats)))
            self.messages_out += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        """Messages in per message out (the fan-in reduction achieved)."""
        if self.messages_out == 0:
            return 0.0
        return self.messages_in / self.messages_out
