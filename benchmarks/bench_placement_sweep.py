"""Partial geo-replication sweep: placement locality x key skew.

One deployment shape — 3 DCs x 6 partitions x 4 clients per DC, EunomiaKV
over the paper's WAN topology — swept across the placement axis
(``full`` replication, ``stride:2`` two copies per partition,
``stride:1`` single-copy maximum locality) crossed with key skew
(``uniform`` vs ``zipf`` s=0.99).  Each cell reports simulated
throughput and the fraction of client ring slots that forward to a
remote DC: the locality/redundancy trade partial placement exists to
expose.  The simulated results are deterministic per cell and asserted
(locality monotone in copies, progress in every cell); the builder
wall-clock of the grid is printed.
"""

import time

from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.workload import WorkloadSpec

PLACEMENTS = ("full", "stride:2", "stride:1")
SKEWS = ("uniform", "zipf")

N_DCS = 3
RUN_FOR = 1.2


def _spec(placement):
    return GeoSystemSpec(n_dcs=N_DCS, partitions_per_dc=6, clients_per_dc=4,
                         seed=31, placement=placement)


def _workload(skew):
    return WorkloadSpec(read_ratio=0.9, n_keys=300, distribution=skew)


def _remote_slot_fraction(system):
    """Fraction of (client, ring slot) pairs served by a remote DC."""
    remote = total = 0
    for client in system.clients:
        for target in client.partitions:
            total += 1
            remote += target.site != client.dc_id
    return remote / total


def _run_cell(placement, skew):
    system = build_geo_system("eunomia", _spec(placement), _workload(skew))
    system.run(RUN_FOR)
    return (system.total_throughput(), _remote_slot_fraction(system))


def bench_placement_sweep(benchmark):
    """Wall-clock for the full placement x skew grid (6 deployments)."""

    def grid():
        start = time.perf_counter()
        cells = {(p, s): _run_cell(p, s) for p in PLACEMENTS for s in SKEWS}
        return time.perf_counter() - start, cells

    def best_of_two():
        return min((grid() for _ in range(2)), key=lambda pair: pair[0])

    wall, cells = benchmark.pedantic(best_of_two, rounds=1, iterations=1)
    print(f"\nplacement sweep: {wall:.3f}s wall for "
          f"{len(cells)} x {RUN_FOR} simulated seconds")
    for (placement, skew), (thpt, remote) in sorted(cells.items()):
        print(f"  {placement:<9} {skew:<8} {thpt:8.0f} ops/s simulated, "
              f"{remote:.0%} remote ring slots")
    # locality is monotone in copies: full forwards nothing, stride:2
    # forwards some, stride:1 the most — and every cell still makes
    # progress (the placement-aware stable cut never stalls a DC).
    for skew in SKEWS:
        fracs = [cells[(p, skew)][1] for p in PLACEMENTS]
        assert fracs[0] == 0.0 and fracs[0] < fracs[1] < fracs[2]
        assert all(cells[(p, skew)][0] > 100 for p in PLACEMENTS)
