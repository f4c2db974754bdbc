"""Figure 3 — fault-tolerance overhead (§7.1).

Maximum throughput of fault-tolerant Eunomia with 1–3 replicas, normalized
against the non-fault-tolerant service, next to a plain and a 3-node
chain-replicated sequencer.  Expected shape: FT-Eunomia pays a small
(~9%), replica-count-independent overhead — replicas never coordinate, so
the leader's only extra work is acknowledgements — while chain replication
costs the sequencer ~33% because every request traverses every node.

Beyond the paper, ``sharded_ft=(K, R)`` measures the same penalty for the
Alg. 4 × K composition against a K-shard non-FT baseline: the overhead
*shrinks* with K because the per-batch acknowledgements — the leader's
only coordination-free extra work — are spread over K shard workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...core.config import EunomiaConfig
from ..loadgen import build_eunomia_rig, build_sequencer_rig
from ..report import FigureResult

__all__ = ["Fig3Params", "run"]


@dataclass
class Fig3Params:
    n_partitions: int = 60
    replica_counts: tuple = (1, 2, 3)
    chain_length: int = 3
    #: beyond the paper: also measure the Alg. 4 × K composition —
    #: ``(K, R)`` adds a K-shard non-FT baseline row and a K-shard
    #: R-replica row normalized against it (None skips the pair)
    sharded_ft: Optional[tuple] = (4, 3)
    duration: float = 2.0
    seed: int = 31

    @classmethod
    def quick(cls) -> "Fig3Params":
        # Overhead only shows at saturation, so the partition count stays at
        # the paper's 60 even in quick mode; only the run is shortened.
        return cls(replica_counts=(1, 3), duration=1.2)


def run(params: Optional[Fig3Params] = None) -> FigureResult:
    p = params or Fig3Params()
    result = FigureResult(
        "Figure 3", "Fault-tolerance overhead (normalized max throughput)",
        ["variant", "ops_s", "normalized"],
    )

    base_rig = build_eunomia_rig(p.n_partitions, config=EunomiaConfig(),
                                 seed=p.seed)
    base_rig.run(p.duration)
    base = base_rig.throughput()
    result.add_row("eunomia non-FT", base, 1.0)

    for replicas in p.replica_counts:
        config = EunomiaConfig(fault_tolerant=True, n_replicas=replicas)
        rig = build_eunomia_rig(p.n_partitions, config=config, seed=p.seed)
        rig.run(p.duration)
        thpt = rig.throughput()
        result.add_row(f"eunomia {replicas}-FT", thpt, thpt / base)

    if p.sharded_ft is not None:
        # The Alg. 4 × K composition, normalized against its own K-shard
        # non-FT baseline: the paper's claim (FT costs ~9%, independent of
        # replica count) should survive sharding because replicas still
        # never coordinate — only the leader's shards ack and serialize.
        k, r = p.sharded_ft
        shard_rig = build_eunomia_rig(
            p.n_partitions, config=EunomiaConfig(n_shards=k), seed=p.seed)
        shard_rig.run(p.duration)
        shard_base = shard_rig.throughput()
        result.add_row(f"eunomia K{k} non-FT", shard_base, 1.0)
        config = EunomiaConfig(n_shards=k, n_replicas=r, fault_tolerant=True)
        ft_rig = build_eunomia_rig(p.n_partitions, config=config,
                                   seed=p.seed)
        ft_rig.run(p.duration)
        ft = ft_rig.throughput()
        result.add_row(f"eunomia K{k}x{r}-FT", ft, ft / shard_base)
        result.note(f"K{k} rows are normalized against the K{k} non-FT "
                    "baseline, not the single-stabilizer one")

    seq_rig = build_sequencer_rig(p.n_partitions, seed=p.seed)
    seq_rig.run(p.duration)
    seq = seq_rig.throughput()
    result.add_row("sequencer non-FT", seq, seq / base)

    chain_rig = build_sequencer_rig(p.n_partitions,
                                    chain_length=p.chain_length, seed=p.seed)
    chain_rig.run(p.duration)
    chain = chain_rig.throughput()
    result.add_row(f"sequencer {p.chain_length}-FT", chain, chain / base)

    result.note(f"sequencer FT penalty: {(1 - chain / seq) * 100:.1f}% "
                "(paper: ~33%); Eunomia FT penalty ~9% for any replica count")
    return result
