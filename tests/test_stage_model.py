"""Stage waits against their closed form.

Where an update's visibility latency goes, stage by stage, is read from
``repro.obs`` spans; what each wait *should* be follows from three protocol
intervals and one LAN hop.  A stage far off its closed form is a modelling
defect, not a number to record: the Alg. 2 heartbeat (PR 20) and then frames
and ``BatchAck`` (PR 21) once queued behind foreground client work in the
partition's ``cpu`` lane, which put ``ingest`` at 4.4 ms instead of 0.17 ms
and ``merge`` at 7.8 ms instead of 3.5 ms, and nothing noticed for ten PRs.

The closed form (ARCHITECTURE.md, "Observability", the paragraph "Stage
waits against their closed form"), with Δ the uplink tick, θ the
stabilization period and LAN the intra-DC one-way delay:

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

  The waits sit on the Δ grid, so the *median* is one of its atoms and may
  hop a whole Δ from one digest to the next (``merge`` 3.98 ↔ 3.00 ms seen)
  while the mean — what the form predicts — holds.

The receiver side of the same path (PR 24, the fourth defect: the ×10-scaled
storage write sat on ``ApplyRemote``, inside Algorithm 5's stop-and-wait
cycle, so ``visible`` read 1.15 ms and the release chains ran 87 % busy):

* ``visible`` — release → install is one LAN hop and the publish
  (``partition_remote_data``; the payload was written when it landed,
  milliseconds earlier): ``LAN + publish`` = 0.35 ms.
* ``recv_apply`` less the one-way WAN — a stable run reaches the receiver
  as one frame per θ and is enqueued in one service slot; an origin's
  updates are then released one at a time, each after the previous one's
  ack, so the i-th of a frame waits i cycles of
  ``2·LAN + publish + receiver_flush``.  An update sits in a frame of N ops
  with probability ∝ N and finds (N − 1)/2 of it ahead, so with the moments
  of N logged in the same run the mean is

      enqueue·E[N²]/E[N] + cycle·E[N(N−1)]/(2·E[N])

  as long as a frame's chain drains well before the next frame lands
  (``cycle · E[N] < θ/2``: 14 % and 30 % of θ here).  A Poisson frame size
  overstates this by ~35 %, enough to hide releases that queued behind
  unrelated payload writes in a shared lane (0.93 ms measured against 0.64
  on K2×R2+WAL; 0.66 with the ``release`` lane of their own).

GentleRain and Cure have no stabilizer; their whole visibility path is the
stabilization plane, and the third defect of the kind sat there: sibling
heartbeats, reports and the summary broadcast waited in ``cpu`` behind
client operations (PR 23; Cure read 22 ms where this form says 9.7).  With H
the heartbeat interval, G the stabilization interval and ``W(d, m)`` the mean
one-way delay from datacenter d to m, an update of origin k is visible at m
this long after its payload arrived (commit → ``visible`` less ``W(k, m)``):

* the gate waits for a sibling timestamp at or above the update's from
  *every* partition of the origin, so for their next heartbeat — all
  partitions beat on one H grid, the commit falls uniformly inside a
  period: H/2.  (An update of that sibling would serve as well; at this
  test's ~40 updates/s per partition one rarely comes first.)
* GentleRain's scalar takes the minimum over every origin, so the beat that
  counts is the farthest origin's f: it lands ``W(f, m) − W(k, m)`` after
  the payload — the ≈ 40 ms floor of Fig. 6 left.  Cure's vector waits for
  the update's own origin only (f = k; its third-party dependencies were
  visible at k when it committed and are covered here by then).
* the beat lands ``W(f, m)`` after a grid point and waits for the next
  report tick (period G, phase G/2): ``(G/2 − W(f, m)) mod G``.
* report → aggregator is a LAN hop inside the G/2 to the aggregate tick,
  and the broadcast is one more LAN hop, handled on arrival:

      H/2 + (W(f, m) − W(k, m)) + (G/2 − W(f, m)) mod G + G/2 + LAN
"""

import statistics

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.baselines.gst import DEFAULT_GST_INTERVAL, GST_HEARTBEAT_INTERVAL
from repro.calibration import Calibration
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


def _mean_one_way_ms(spec):
    """Mean one-way delay between every ordered pair of datacenters."""
    topology = spec.topology()
    return [[topology.one_way_s(d, m) * (1 + topology.jitter_frac / 2) * 1e3
             for m in range(spec.n_dcs)] for d in range(spec.n_dcs)]


_RUN_SECONDS = 1.5


def _record_frame_sizes(system):
    """Shadow every receiver's frame handler to log each frame's op count
    (delivery plans bind the handler on first delivery, so before the run)."""
    sizes = []
    for dc in system.datacenters:
        receiver = dc.receiver
        handle = receiver.on_remote_stable_batch

        def logged(msg, src, handle=handle):
            sizes.append(len(msg.ops))
            handle(msg, src)

        receiver.on_remote_stable_batch = logged
    return sizes


@pytest.fixture(scope="module", params=[
    pytest.param((0.9, 8, EunomiaConfig(), "propagate"), id="plain"),
    pytest.param((0.1, 6, EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                        n_shards=2, durability="wal"),
                  "merge"), id="K2xR2+wal"),
])
def eunomia_run(request):
    """One traced run per deployment: (spec, config, system, tracer, the
    stage a stabilization round releases an op at, the op count of every
    frame a receiver took in)."""
    read_ratio, clients, config, released_at = request.param
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=clients,
                         seed=21)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=read_ratio, n_keys=500),
                              config=config)
    tracer = system.observe(sample_every=1, gauges=False).tracer
    frame_sizes = _record_frame_sizes(system)
    system.run(_RUN_SECONDS)
    return spec, config, system, tracer, released_at, frame_sizes


def test_stage_waits_match_their_closed_form(eunomia_run):
    spec, config, system, tracer, released_at, _ = eunomia_run
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


def test_receiver_side_waits_match_their_closed_form(eunomia_run):
    spec, config, system, tracer, _, frame_sizes = eunomia_run
    one_way = _mean_one_way_ms(spec)
    release_to_install, queued = [], []
    for span in tracer.iter_spans():
        shipped = span.stage_times("propagate")
        if not shipped:
            continue        # committed too late to be stable by the end
        left, k = min(shipped)
        released = {m: when for when, m in span.stage_times("recv_apply")}
        queued += [(when - left) * 1e3 - one_way[k][m]
                   for m, when in released.items()]
        release_to_install += [(when - released[m]) * 1e3
                               for when, m in span.stage_times("visible")]
    assert len(release_to_install) > 1000

    cal = Calibration()
    lan = one_way[0][0]
    publish = cal.cost("partition_remote_data") * 1e3
    assert percentile(release_to_install, 50) == pytest.approx(lan + publish,
                                                               rel=0.25)

    # moments of the frame size N; an update sits in a frame of size N with
    # probability ∝ N, and finds (N − 1)/2 of it ahead on average
    n1 = statistics.mean(frame_sizes)                       # E[N]
    n2 = statistics.mean(n * n for n in frame_sizes)        # E[N²]
    cycle = 2 * lan + publish + cal.overhead("receiver_flush") * 1e3
    # the form's precondition: a frame's chain drains before the next lands
    assert cycle * n1 < config.stabilization_interval * 1e3 / 2
    expected = (cal.cost("receiver_enqueue_op") * 1e3 * n2 / n1
                + cycle * (n2 - n1) / (2 * n1))
    assert statistics.mean(queued) == pytest.approx(expected, rel=0.15)


@pytest.mark.parametrize("protocol", ["cure", "gentlerain"])
def test_gst_visibility_matches_its_closed_form(protocol):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                         seed=21)
    system = build_geo_system(protocol, spec,
                              WorkloadSpec(read_ratio=0.9, n_keys=500))
    tracer = system.observe(sample_every=1, gauges=False).tracer
    system.run(1.5)

    one_way = _mean_one_way_ms(spec)
    extra = {}
    for span in tracer.iter_spans():
        (committed, k), = span.stage_times("commit")
        for visible, m in span.stage_times("visible"):
            extra.setdefault((k, m), []).append(
                (visible - committed) * 1e3 - one_way[k][m])
    assert len(extra) == spec.n_dcs * (spec.n_dcs - 1)

    beat = GST_HEARTBEAT_INTERVAL * 1e3          # H
    round_ = DEFAULT_GST_INTERVAL * 1e3          # G
    for (k, m), waits in sorted(extra.items()):
        assert len(waits) > 150
        farthest = (one_way[k][m] if protocol == "cure" else
                    max(one_way[d][m] for d in range(spec.n_dcs)))
        expected = (beat / 2 + (farthest - one_way[k][m])
                    + (round_ / 2 - farthest) % round_ + round_ / 2
                    + one_way[m][m])
        assert percentile(waits, 50) == pytest.approx(expected, rel=0.25)
        assert statistics.mean(waits) == pytest.approx(expected, rel=0.15)
