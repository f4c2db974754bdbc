"""Figure 4 — impact of replica failures on Eunomia (§7.1).

Timeline of stabilization throughput, normalized against the non-FT
average, while Eunomia replicas crash: the current leader at t₁ and (for
multi-replica groups) the next leader at t₂.  Expected shape: 1-FT drops to
zero at t₁ and never recovers; 2-FT survives t₁ (short dip while the Ω
detector suspects the old leader, then back to ~95–100%) and dies at t₂;
3-FT survives both.  The paper's 700-second timeline is compressed — the
phenomena (failover gap ≈ the suspicion timeout, full recovery) are
interval-free.

The schedule crashes :class:`~repro.core.replica.ReplicaGroup` units, so
with ``n_shards > 1`` it takes whole K-shard pipelines down (Alg. 4 × K):
the expected shape is identical, which is the point — replicating the
sharded stabilizer buys the paper's failover story at K-shard throughput.

The **amnesia → rejoin** variant (``rejoin_at`` set, beyond the paper)
replaces the second crash with a recovery: the leader crashed at t₁ *loses
its state* (``crash(lose_state=True)``) and rejoins at t₂ via the
durability subsystem — checkpoint + WAL replay, then peer state transfer —
reclaiming leadership (lowest id).  Expected shape: the t₁ failover dip,
full throughput under the interim leader, a second (small) dip at the
rejoin handover, then full throughput under the restored leader.  Requires
``durability="wal"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...core.config import EunomiaConfig
from ...metrics import mean
from ..loadgen import build_eunomia_rig
from ..report import FigureResult

__all__ = ["Fig4Params", "run"]


@dataclass
class Fig4Params:
    n_partitions: int = 10
    replica_counts: tuple = (1, 2, 3)
    #: 1 reproduces the paper's figure; >1 runs the same crash schedule
    #: against replicated *sharded* groups (Alg. 4 × K) — each crash takes
    #: down a whole K-shard replica pipeline.
    n_shards: int = 1
    duration: float = 45.0
    crash1: float = 12.0
    crash2: float = 30.0
    window: float = 1.5
    batch_interval: float = 0.005   # coarser ticks keep the event count sane
    seed: int = 41
    #: durability mode threaded into every rig (the amnesia timeline
    #: requires "wal"; "none" reproduces the paper's crash-stop figure)
    durability: str = "none"
    #: when set, the t₁ crash is an amnesia crash (state lost) and the
    #: crashed unit *rejoins* at this time instead of a successor dying
    #: at ``crash2``
    rejoin_at: Optional[float] = None

    @classmethod
    def quick(cls) -> "Fig4Params":
        return cls(n_partitions=6, duration=24.0, crash1=7.0, crash2=16.0,
                   window=1.0)

    @classmethod
    def quick_sharded(cls) -> "Fig4Params":
        """The failover timeline for K=2-sharded replica groups."""
        quick = cls.quick()
        quick.n_shards = 2
        return quick

    @classmethod
    def quick_amnesia(cls) -> "Fig4Params":
        """Crash → amnesia → rejoin for K=2-sharded 3-replica groups."""
        quick = cls.quick()
        quick.n_shards = 2
        quick.replica_counts = (3,)
        quick.durability = "wal"
        quick.rejoin_at = 15.0
        return quick


def _phase_mean(timeline, start: float, end: float) -> float:
    return mean([rate for t, rate in timeline if start <= t < end])


def run(params: Optional[Fig4Params] = None) -> FigureResult:
    p = params or Fig4Params()
    if p.rejoin_at is not None and p.durability != "wal":
        # Fail fast: scheduling recover() after an amnesia crash without a
        # WAL would raise mid-simulation, 12 seconds in.
        raise ValueError(
            "the amnesia->rejoin timeline (rejoin_at) requires "
            "durability='wal'")
    result = FigureResult(
        "Figure 4", "Impact of replica failures (normalized throughput)",
        ["variant", "before_crash1", "between_crashes", "after_crash2"],
    )

    def make_config(ft: bool, replicas: int) -> EunomiaConfig:
        return EunomiaConfig(fault_tolerant=ft, n_replicas=replicas,
                             n_shards=p.n_shards,
                             batch_interval=p.batch_interval,
                             durability=p.durability)

    base_rig = build_eunomia_rig(p.n_partitions,
                                 config=make_config(False, 1), seed=p.seed)
    base_rig.run(p.duration)
    base_rate = mean([r for _, r in base_rig.throughput_timeline(p.window)])
    result.add_row("non-FT (baseline)", 1.0, 1.0, 1.0)

    for replicas in p.replica_counts:
        rig = build_eunomia_rig(p.n_partitions,
                                config=make_config(True, replicas),
                                seed=p.seed)
        # Crash the initial leader at t1 and its successor at t2.  Replica
        # ids are elected lowest-first, so the leadership order is 0, 1, 2.
        # ``rig.groups`` holds the crash units — one ReplicaGroup per
        # replica (its head plus, when sharded, its K shards).
        groups = rig.groups
        if p.rejoin_at is not None:
            # Amnesia timeline: the leader loses its state at t1 and
            # rejoins at t2 through the WAL/checkpoint/state-transfer path
            # (ReplicaGroup.recover).
            target = groups[0]
            rig.env.loop.schedule_at(p.crash1, target.crash, True)
            rig.env.loop.schedule_at(p.rejoin_at, target.recover)
            t2 = p.rejoin_at
        else:
            rig.env.loop.schedule_at(p.crash1, groups[0].crash)
            if replicas >= 2:
                rig.env.loop.schedule_at(p.crash2, groups[1].crash)
            t2 = p.crash2
        rig.run(p.duration)

        variant = (f"{replicas}-FT+rejoin" if p.rejoin_at is not None
                   else f"{replicas}-FT")
        timeline = [(t, rate / base_rate)
                    for t, rate in rig.throughput_timeline(p.window)]
        result.add_series(variant, timeline)
        result.add_row(
            variant,
            _phase_mean(timeline, 0.0, p.crash1),
            _phase_mean(timeline, p.crash1 + 3.0, t2),
            _phase_mean(timeline, t2 + 3.0, p.duration),
        )

    if p.rejoin_at is not None:
        result.note(f"amnesia crash of the leader at t={p.crash1}s "
                    f"(state lost, durability={p.durability!r}), rejoin at "
                    f"t={p.rejoin_at}s via WAL replay + state transfer; "
                    "after_crash2 column = after the rejoin handover")
        result.note("expected shape: failover dip at t1, interim leader at "
                    "~full throughput, small handover dip at rejoin, then "
                    "the restored leader at ~full throughput")
    else:
        result.note(f"leader crash at t={p.crash1}s, successor crash at "
                    f"t={p.crash2}s; suspicion timeout "
                    f"{EunomiaConfig().replica_suspect_timeout}s")
        result.note("paper shape: 1-FT dies at t1; 2-FT dies at t2; 3-FT "
                    "recovers to ~95-100% after each failover dip")
    return result
