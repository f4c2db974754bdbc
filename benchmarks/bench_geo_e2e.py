"""End-to-end geo-deployment smoke benchmark.

One small but complete EunomiaKV deployment — 3 DCs × 4 partitions × 8
clients over the paper's WAN topology, NTP discipline, receivers, the lot —
measured for builder wall-clock.  This is the cost every figure experiment
pays per cell.  The wall clock is printed; what is asserted is the
simulated throughput, which is deterministic for the seed.  Host cost per
workload is measured by ``perf/run.py`` (see perf/README.md).
"""

import time

from repro.core.config import EunomiaConfig
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8, seed=31)
WL = WorkloadSpec(read_ratio=0.9, n_keys=500)

# The uplink-bound scenario: 90% updates, so nearly every client op feeds
# the partition → uplink → service/WAL dataplane, and a fault-tolerant
# R=2 service doubles the shipped-frame volume (per-replica windows +
# acks).  This is the workload the batched-frame dataplane targets.
UPDATE_SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                            seed=33)
UPDATE_WL = WorkloadSpec(read_ratio=0.1, n_keys=500)


def bench_geo_small_e2e(benchmark):
    """Wall-clock to build + run 2 simulated seconds of a full deployment."""

    def run():
        start = time.perf_counter()
        system = build_geo_system("eunomia", SPEC, WL)
        system.run(2.0)
        wall = time.perf_counter() - start
        return wall, system.total_throughput()

    def best_of_two():
        return min((run() for _ in range(2)), key=lambda pair: pair[0])

    wall, thpt = benchmark.pedantic(best_of_two, rounds=1, iterations=1)
    print(f"\ngeo e2e: {wall:.3f}s wall for 2.0 simulated seconds, "
          f"{thpt:.0f} ops/s simulated")
    # the simulation itself is deterministic; only the wall-clock may vary
    assert thpt > 3000


def bench_geo_update_heavy_e2e(benchmark):
    """Wall-clock for the client-update-heavy (uplink-bound) deployment.

    90:10 write:read against a fault-tolerant R=2 EunomiaKV site: the run
    is dominated by the batched dataplane (uplink frames, service ingest,
    receiver flushes), so regressions in any per-op path show up here
    first.
    """

    def run():
        start = time.perf_counter()
        config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
        system = build_geo_system("eunomia", UPDATE_SPEC, UPDATE_WL,
                                  config=config)
        system.run(2.0)
        wall = time.perf_counter() - start
        return wall, system.total_throughput()

    def best_of_two():
        return min((run() for _ in range(2)), key=lambda pair: pair[0])

    wall, thpt = benchmark.pedantic(best_of_two, rounds=1, iterations=1)
    print(f"\ngeo update-heavy e2e: {wall:.3f}s wall for 2.0 simulated "
          f"seconds, {thpt:.0f} ops/s simulated")
    assert thpt > 2000
