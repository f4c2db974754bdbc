#!/usr/bin/env python3
"""Quickstart: a 3-datacenter EunomiaKV deployment in ~20 lines.

Builds the paper's deployment (3 DCs over the Virginia/Oregon/Ireland RTT
matrix, 8 partitions and a handful of client sessions per DC), runs a
read-heavy workload for a few simulated seconds, and prints throughput,
remote-update visibility, and the convergence check.

Run:
    python examples/quickstart.py
"""

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.metrics import percentile


def main() -> None:
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=8, clients_per_dc=8,
                         seed=2026)
    workload = WorkloadSpec(read_ratio=0.9, n_keys=1000, value_bytes=100)

    system = build_geo_system("eunomia", spec, workload)
    print("running 5 simulated seconds of EunomiaKV ...")
    system.run(duration=5.0)

    print(f"aggregate throughput : {system.total_throughput():8.0f} ops/s "
          f"(x{spec.calibration.throughput_scale():.0f} for paper scale)")
    for dc in range(spec.n_dcs):
        print(f"  dc{dc + 1} throughput    : "
              f"{system.dc_throughput(dc):8.0f} ops/s")

    extras = system.visibility_extra_ms(0, 1)
    print(f"visibility dc1->dc2  : p50 {percentile(extras, 50):5.1f} ms, "
          f"p95 {percentile(extras, 95):5.1f} ms extra "
          f"(paper: ~95% within 15 ms)")

    print("quiescing and checking convergence ...")
    system.quiesce(drain=3.0)
    print(f"all datacenters converged: {system.converged()}")


if __name__ == "__main__":
    main()
