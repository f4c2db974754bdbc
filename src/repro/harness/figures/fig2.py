"""Figure 2 — maximum throughput: Eunomia versus a sequencer (§7.1).

Drivers emulate partitions issuing updates eagerly, connected directly to
the service (the data store is bypassed, as in the paper).  Expected shape:
the sequencer saturates early (48 kops/s at paper scale) regardless of the
partition count, while Eunomia scales with the offered load until its
propagation path saturates near 60 partitions at ~7.7× the sequencer's
ceiling (~370 kops/s paper scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...core.config import EunomiaConfig
from ..loadgen import build_eunomia_rig, build_sequencer_rig
from ..report import FigureResult

__all__ = ["Fig2Params", "run"]


@dataclass
class Fig2Params:
    partition_counts: tuple = (15, 30, 45, 60, 75)
    duration: float = 2.0
    seed: int = 21

    @classmethod
    def quick(cls) -> "Fig2Params":
        return cls(partition_counts=(15, 45, 75), duration=1.2)


def run(params: Optional[Fig2Params] = None) -> FigureResult:
    p = params or Fig2Params()
    result = FigureResult(
        "Figure 2", "Maximum throughput: Eunomia vs sequencer",
        ["partitions", "eunomia_ops_s", "sequencer_ops_s", "ratio",
         "eunomia_paper_scale"],
    )
    peak_ratio = 0.0
    for count in p.partition_counts:
        eunomia = build_eunomia_rig(count, config=EunomiaConfig(),
                                    seed=p.seed)
        eunomia.run(p.duration)
        eu_thpt = eunomia.throughput()

        sequencer = build_sequencer_rig(count, seed=p.seed)
        sequencer.run(p.duration)
        seq_thpt = sequencer.throughput()

        ratio = eu_thpt / seq_thpt if seq_thpt else float("inf")
        peak_ratio = max(peak_ratio, ratio)
        result.add_row(count, eu_thpt, seq_thpt, ratio,
                       eu_thpt * eunomia.env.calibration.throughput_scale())
    result.note(f"peak Eunomia/sequencer ratio: {peak_ratio:.1f}x "
                "(paper: 7.7x)")
    result.note("paper shape: sequencer flat at its ceiling; Eunomia scales "
                "with offered load, saturating near 60 partitions")
    return result
