"""Figure 1 — the motivating tradeoff (§2).

Left plot: p90 remote-update visibility latency at dc2 for updates born at
dc1, for GentleRain and Cure, as the global-stabilization ("clock
computation") interval sweeps from 1 ms to 100 ms.  Right plot: throughput
penalty versus an eventually consistent baseline for S-Seq, A-Seq,
GentleRain, and Cure.

Expected shapes (paper): sequencer penalties are flat in the interval
(S-Seq ≈ −15% purely from synchronous waiting, A-Seq ≈ 0); GentleRain/Cure
trade throughput for visibility along the sweep, and even at 100 ms Cure
still pays double-digit throughput (−11.6% in the paper) from per-op vector
handling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional

from ...geo.system import GeoSystemSpec
from ...workload.generator import WorkloadSpec
from ..experiment import run_geo, visibility_p
from ..report import FigureResult

__all__ = ["Fig1Params", "run"]


@dataclass
class Fig1Params:
    intervals_ms: tuple = (1, 10, 20, 50, 100)
    duration: float = 6.0
    partitions: int = 4
    clients: int = 8
    n_keys: int = 500
    read_ratio: float = 0.75
    seed: int = 11

    @classmethod
    def quick(cls) -> "Fig1Params":
        return cls(intervals_ms=(1, 10, 100), duration=3.0, clients=6)


def run(params: Optional[Fig1Params] = None) -> FigureResult:
    p = params or Fig1Params()
    result = FigureResult(
        "Figure 1", "Update visibility latency vs throughput tradeoff",
        ["system", "interval_ms", "thpt_ops_s", "penalty_pct", "vis_p90_ms"],
    )
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=p.partitions,
                         clients_per_dc=p.clients, seed=p.seed)
    workload = WorkloadSpec(read_ratio=p.read_ratio, n_keys=p.n_keys)

    baseline = run_geo("eventual", spec, workload, p.duration)
    base_thpt = baseline.total_throughput()
    result.add_row("eventual", "-", base_thpt, 0.0, 0.0)

    def penalty(thpt: float) -> float:
        return (thpt - base_thpt) / base_thpt * 100.0

    for protocol in ("sseq", "aseq"):
        system = run_geo(protocol, spec, workload, p.duration)
        thpt = system.total_throughput()
        result.add_row(protocol, "-", thpt, penalty(thpt),
                       visibility_p(system, 0, 1, 90.0))

    for protocol in ("gentlerain", "cure"):
        for interval_ms in p.intervals_ms:
            system = run_geo(protocol, spec, workload, p.duration,
                             gst_interval=interval_ms / 1e3)
            thpt = system.total_throughput()
            result.add_row(f"{protocol}@{interval_ms}ms", interval_ms, thpt,
                           penalty(thpt), visibility_p(system, 0, 1, 90.0))

    result.note(f"workload {workload.ratio_label()} uniform, "
                f"{p.partitions} partitions x 3 DCs, {p.duration}s runs")
    result.note("paper shapes: S-Seq flat ~-15%, A-Seq ~0%; GentleRain/Cure "
                "visibility grows with the interval; Cure still ~-12% at 100ms")
    return result
