#!/usr/bin/env python3
"""Protocol shootout: every system from the paper on one workload.

Runs the identical deployment and 90:10 workload under all six protocols —
eventual consistency, EunomiaKV, GentleRain, Cure, S-Seq, and A-Seq — and
prints the throughput / visibility / client-latency triangle the paper's
evaluation revolves around.  One table, the whole tradeoff space.

Every protocol is a :class:`~repro.core.protocols.ProtocolSpec` plugin
deployed through the one ``build_geo_system`` spine, so the comparison is
protocol-only by construction.  Self-asserting (runs as a CI smoke job):
the simulation is deterministic, so the paper's qualitative shapes —
Eunomia within a few % of eventual, the sequencer tax, GentleRain's
far-DC visibility floor vs S-Seq's near-optimal shipping — must hold
exactly on every machine.

Run:
    python examples/protocol_shootout.py
"""

from repro import GeoSystemSpec, WorkloadSpec, build_system
from repro.core.protocols import PROTOCOL_ORDER, available_protocols
from repro.harness.report import format_table
from repro.metrics import percentile

#: eventual goes first: it is the normalization baseline.
ORDER = PROTOCOL_ORDER


def main() -> None:
    assert set(ORDER) == set(available_protocols()), \
        "a registered protocol is missing from the shootout"
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                         seed=4242)
    workload = WorkloadSpec(read_ratio=0.9, n_keys=1000)
    print(f"3 DCs x {spec.partitions_per_dc} partitions, "
          f"{workload.ratio_label()} uniform workload, 6 s runs\n")

    rows = []
    baseline = None
    thpt_by, vis_by = {}, {}
    for protocol in ORDER:
        system = build_system(protocol, spec, workload)
        system.run(6.0)
        thpt = system.total_throughput()
        if protocol == "eventual":
            baseline = thpt
        extras = system.visibility_extra_ms(0, 1)
        update_lat = [v for dc in range(spec.n_dcs)
                      for _, v in system.metrics.point_series(
                          f"latency_ms:update:dc{dc}")]
        system.quiesce(3.0)
        thpt_by[protocol] = thpt
        vis_by[protocol] = extras
        assert system.converged(), f"{protocol} failed to converge"
        rows.append([
            protocol,
            round(thpt),
            f"{(thpt - baseline) / baseline * 100:+.1f}%",
            round(percentile(extras, 90), 1) if extras else "-",
            round(percentile(update_lat, 50), 2),
            "yes" if system.converged() else "NO",
        ])

    # The paper's qualitative shapes, asserted (deterministic simulation:
    # these hold bit-identically on every machine or not at all):
    assert thpt_by["eunomia"] > 0.85 * thpt_by["eventual"], \
        "Eunomia must stay within a few % of the eventual yardstick"
    assert thpt_by["sseq"] < thpt_by["eunomia"], \
        "the synchronous sequencer must pay its critical-path tax"
    assert thpt_by["aseq"] > thpt_by["sseq"], \
        "A-Seq exists to show S-Seq's tax is the waiting"
    assert 40.0 < min(vis_by["gentlerain"]) < 46.0, \
        "GentleRain's GST must be floored by the farthest DC (80 - 40 ms)"
    assert percentile(vis_by["cure"], 95) < 20.0, \
        "Cure's visibility is heartbeat + stabilization periods, not load"
    for sequenced in ("sseq", "aseq"):
        assert percentile(vis_by[sequenced], 90) < 1.0, \
            "sequencer shipping must stay near-optimal in visibility"
    assert percentile(vis_by["eunomia"], 90) < percentile(vis_by["cure"],
                                                          90), \
        "Eunomia's deferred stabilization must beat Cure's on visibility"
    assert percentile(vis_by["cure"], 90) < percentile(vis_by["gentlerain"],
                                                       90), \
        "Cure's vector must beat the scalar GST on the near pair"

    print(format_table(
        ["system", "ops/s", "vs eventual", "vis p90 (ms)",
         "update p50 (ms)", "converged"],
        rows,
    ))
    print(
        "\nreading the table:"
        "\n  * eventual    — fastest, but promises nothing about ordering"
        "\n  * eunomia     — within a few % of eventual AND near-best"
        " visibility: the paper's headline"
        "\n  * gentlerain  — cheap metadata, visibility floored by the"
        " farthest DC (~40 ms false dependencies)"
        "\n  * cure        — better visibility than GentleRain, paid for"
        " in per-op vector overhead"
        "\n  * sseq        — near-optimal visibility, but the synchronous"
        " sequencer taxes every update"
        "\n  * aseq        — shows S-Seq's tax is purely the waiting"
        " (same work, off the critical path; not causally safe)"
    )


if __name__ == "__main__":
    main()
