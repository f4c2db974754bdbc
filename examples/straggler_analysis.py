#!/usr/bin/env python3
"""Straggler analysis: the cost of Eunomia's minimum, visualized.

Eunomia ships an update only when *every* local partition has reported a
higher timestamp — so one partition that contacts the service rarely drags
the whole datacenter's visibility down (the paper's §7.2.3).  A sequencer
has no such minimum, but pays differently: the straggling partition's own
clients wait on the sequencer round-trip in their critical path.

This script injects a straggler into dc3 for the middle third of the run
and plots (as ASCII) the p90 visibility of dc3's updates at dc2, plus the
client-side update latency at the straggler partition under S-Seq.

Run:
    python examples/straggler_analysis.py
"""

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.metrics import windowed_points
from repro.sim.failure import FailureSchedule, Straggler

PHASE = 8.0          # healthy / straggling / healed, seconds each
STRAGGLE = 0.25      # the sick partition reports every 250 ms, not 1 ms
ORIGIN, DEST = 2, 1  # measure dc3-origin updates at dc2


def ascii_plot(series, width=60, height_label="ms"):
    if not series:
        print("  (no samples)")
        return
    top = max(v for _, v in series)
    for t, v in series:
        bar = "#" * max(1, int(v / top * width)) if top else ""
        print(f"  t={t:5.1f}s {v:8.1f} {height_label} {bar}")


def healthy_visibility(system, n_partitions):
    """dc3→dc2 visibility of updates born on the *healthy* partitions.

    The straggler's own updates are late under any protocol (their metadata
    is, by definition, reported late); the paper's claim is about collateral
    damage to everyone else's updates.
    """
    merged = []
    for index in range(1, n_partitions):
        merged.extend(system.metrics.point_series(
            f"vis_extra_ms:{ORIGIN}->{DEST}:p{index}"))
    merged.sort(key=lambda tv: tv[0])
    return merged


def main() -> None:
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                         seed=99)
    workload = WorkloadSpec(read_ratio=0.9, n_keys=500)
    duration = 3 * PHASE

    print(f"EunomiaKV: dc3 partition 0 straggles "
          f"(reports every {STRAGGLE * 1e3:.0f} ms) "
          f"for t in [{PHASE:.0f}s, {2 * PHASE:.0f}s)\n")
    system = build_geo_system("eunomia", spec, workload)
    schedule = FailureSchedule(system.env)
    straggler = system.datacenters[ORIGIN].partitions[0]
    Straggler(straggler, start=PHASE, end=2 * PHASE,
              straggle_interval=STRAGGLE).arm(schedule)
    schedule.arm()
    system.run(duration)

    series = healthy_visibility(system, spec.partitions_per_dc)
    print("p90 extra visibility of healthy-partition dc3 updates at dc2:")
    ascii_plot(windowed_points(series, 0, duration, 1.0, agg="p90"))

    print("\nS-Seq under the same fault (slow partition->sequencer link):")
    system = build_geo_system("sseq", spec, workload)
    partition = system.datacenters[ORIGIN].partitions[0]
    network = system.env.network
    schedule = FailureSchedule(system.env)
    schedule.at(PHASE, network.set_link_extra_delay,
                partition, partition.sequencer, STRAGGLE,
                label="straggle link")
    schedule.at(2 * PHASE, network.set_link_extra_delay,
                partition, partition.sequencer, 0.0, label="heal link")
    schedule.arm()
    system.run(duration)

    vis = healthy_visibility(system, spec.partitions_per_dc)
    print("p90 extra visibility of healthy-partition updates "
          "(unaffected — no datacenter minimum):")
    ascii_plot(windowed_points(vis, 0, duration, 1.0, agg="p90"))

    lat = system.metrics.point_series(f"latency_ms:update:dc{ORIGIN}")
    print("\np90 dc3 client update latency (the sequencer tax):")
    ascii_plot(windowed_points(lat, 0, duration, 1.0, agg="p90"))

    print("\ntakeaway: Eunomia degrades gracefully and invisibly to clients;"
          "\na sequencer keeps remote visibility pristine but makes the"
          "\nstraggler's own clients wait — in their critical path.")


if __name__ == "__main__":
    main()
