"""Stage waits against their closed form.

Where an update's visibility latency goes, stage by stage, is read from
``repro.obs`` spans; what each wait *should* be follows from three protocol
intervals and one LAN hop.  A stage far off its closed form is a modelling
defect, not a number to record: the Alg. 2 heartbeat (PR 20) and then frames
and ``BatchAck`` (PR 21) once queued behind foreground client work in the
partition's ``cpu`` lane, which put ``ingest`` at 4.4 ms instead of 0.17 ms
and ``merge`` at 7.8 ms instead of 3.5 ms, and nothing noticed for ten PRs.

The closed form (ARCHITECTURE.md, "Stage waits"), with Δ the uplink tick,
θ the stabilization period and LAN the intra-DC one-way delay:

* ``ingest`` — a frame leaves ``batch_cost + op_cost·n`` after its tick and
  is ingested one LAN hop and one service slot later: LAN plus microseconds.
* ``propagate`` (``merge`` when sharded) — an op is released by the first
  stabilization round that finds every tracked PartitionTime at or above
  its timestamp.  Rounds fire on the tick grid, so a round has seen each
  partition's *previous* tick (this one's heartbeat is still on the LAN):
  the slowest partition's PartitionTime lags by one whole Δ plus how far
  its clock trails the op's origin (on average ``lead``, read from the
  built system's clocks).  The op itself is already Δ/2 + LAN old when it
  is ingested, and the round is on average θ/2 away:

      θ/2 + (Δ + lead) − (Δ/2 + LAN)        [+ LAN from shard to coordinator]
"""

import statistics

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core import EunomiaConfig
from repro.metrics import percentile

#: origin-side stages in pipeline order; a wait runs from the previous stage
#: the op visited, first visit each (replicas reach a stage at different times)
_ORIGIN_SIDE = ("commit", "uplink_ship", "wal_fsync", "ingest", "merge",
                "propagate")


def _stage_waits(tracer):
    """Sim ms every traced op waited to reach each origin-side stage."""
    waits = {stage: [] for stage in _ORIGIN_SIDE}
    for span in tracer.iter_spans():
        first = {}
        for stage, when, _ in span.events:
            if stage in waits:
                first[stage] = min(when, first.get(stage, when))
        visited = sorted(first, key=lambda s: (first[s], _ORIGIN_SIDE.index(s)))
        for before, stage in zip(visited, visited[1:]):
            waits[stage].append((first[stage] - first[before]) * 1e3)
    return waits


def _clock_lead_ms(system):
    """How far, on average, a partition's clock leads the slowest clock of
    its datacenter — the clock part of the slowest PartitionTime's lag."""
    leads = []
    for dc in system.datacenters:
        skews = [partition.clock.skew_us() for partition in dc.partitions]
        leads += [skew - min(skews) for skew in skews]
    return statistics.mean(leads) / 1e3


@pytest.mark.parametrize("read_ratio, clients, config, released_at", [
    pytest.param(0.9, 8, EunomiaConfig(), "propagate", id="plain"),
    pytest.param(0.1, 6, EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                       n_shards=2, durability="wal"),
                 "merge", id="K2xR2+wal"),
])
def test_stage_waits_match_their_closed_form(read_ratio, clients, config,
                                             released_at):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=clients,
                         seed=21)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=read_ratio, n_keys=500),
                              config=config)
    tracer = system.observe(sample_every=1, gauges=False).tracer
    system.run(1.5)
    waits = _stage_waits(tracer)
    assert len(waits[released_at]) > 500

    lan = spec.topology().one_way_s(0, 0) * 1e3
    tick = config.batch_interval * 1e3                   # Δ
    half_round = config.stabilization_interval * 1e3 / 2    # θ/2
    assert percentile(waits["ingest"], 50) <= lan + 0.15

    expected = (half_round + (tick + _clock_lead_ms(system))
                - (tick / 2 + lan))
    if config.n_shards > 1:
        expected += lan
    # The waits sit on the tick grid (one atom per Δ), so the median jumps
    # a whole Δ when the mean moves a little; the mean is what the closed
    # form predicts (3 % / 7 % above it here: the round's own service time).
    assert percentile(waits[released_at], 50) == pytest.approx(expected,
                                                               rel=0.25)
    assert statistics.mean(waits[released_at]) == pytest.approx(expected,
                                                                rel=0.15)
