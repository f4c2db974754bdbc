#!/usr/bin/env python3
"""Per-DC × op-type SLO report for any ProtocolSpec protocol.

Builds a geo deployment, attaches the observability surface (repro.obs:
sampled causal tracing, stage-lag gauges), runs it, and prints the SLO
table, every cell an exact percentile of the run's ``MetricsHub`` series:
operation latency p50/p99/p999 per DC × op kind, remote visibility latency
per DC pair, stabilization lag per DC, and the receiver's backlog beside
its in-flight releases (mean in-flight ÷ tracked origins = how busy
Alg. 5's release chains are).
Optionally writes the sampled spans + gauges as a Chrome-trace-event JSON
(load it in Perfetto / chrome://tracing):

    PYTHONPATH=src python scripts/slo_report.py --protocol eunomia
    PYTHONPATH=src python scripts/slo_report.py --protocol gentlerain \
        --duration 1.0 --export trace.json
    PYTHONPATH=src python scripts/slo_report.py --protocol eunomia --check

``--check`` self-asserts the report shape (used by the CI examples-smoke
step): every DC × op-kind series ``latency_ms:{kind}:dc{m}`` must be
present with a positive count and monotone p50 <= p99 <= p999.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.baselines import build_system                       # noqa: E402
from repro.geo.system import GeoSystemSpec                     # noqa: E402
from repro.metrics import percentile                           # noqa: E402
from repro.obs import render_slo_report, write_chrome_trace    # noqa: E402
from repro.workload.generator import WorkloadSpec              # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/slo_report.py",
        description="SLO-grade latency report over a small geo run")
    parser.add_argument("--protocol", default="eunomia",
                        help="any registered protocol (default eunomia)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="load-generation seconds (default 2.0)")
    parser.add_argument("--drain", type=float, default=2.0,
                        help="post-load drain seconds (default 2.0)")
    parser.add_argument("--dcs", type=int, default=3)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8,
                        help="client sessions per DC (default 8)")
    parser.add_argument("--read-ratio", type=float, default=0.9)
    parser.add_argument("--sample-every", type=int, default=16,
                        help="trace 1 op in N (default 16)")
    parser.add_argument("--export", type=Path, default=None,
                        help="write a Chrome-trace-event JSON here")
    parser.add_argument("--check", action="store_true",
                        help="self-assert the table shape (CI smoke)")
    args = parser.parse_args(argv)

    spec = GeoSystemSpec(n_dcs=args.dcs, partitions_per_dc=args.partitions,
                         clients_per_dc=args.clients, seed=args.seed)
    workload = WorkloadSpec(read_ratio=args.read_ratio, n_keys=500)
    system = build_system(args.protocol, spec, workload)
    obs = system.observe(sample_every=args.sample_every)
    system.run(args.duration)
    system.quiesce(args.drain)

    report = render_slo_report(system.metrics, tracer=obs.tracer)
    print(f"# {args.protocol}, {args.dcs} DCs x {args.partitions} "
          f"partitions x {args.clients} clients, seed {args.seed}, "
          f"{args.duration}s\n")
    print(report)

    if args.export is not None:
        trace = write_chrome_trace(args.export, tracer=obs.tracer,
                                   metrics=system.metrics)
        print(f"chrome trace ({len(trace['traceEvents'])} events) "
              f"written to {args.export}")

    if args.check:
        ops = 0
        for dc in range(args.dcs):
            for kind in ("read", "update"):
                latency = [v for _, v in system.metrics.point_series(
                    f"latency_ms:{kind}:dc{dc}")]
                assert latency, f"missing SLO row for ({kind}, dc{dc})"
                p50, p99, p999 = (percentile(latency, q)
                                  for q in (50.0, 99.0, 99.9))
                assert 0.0 < p50 <= p99 <= p999, \
                    f"non-monotone quantiles for ({kind}, dc{dc}): " \
                    f"{p50}/{p99}/{p999}"
                ops += len(latency)
        assert len(obs.tracer) > 0, "no spans sampled"
        assert "operation latency" in report
        print("--check: SLO table well-formed "
              f"({len(obs.tracer)} spans, {ops} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
