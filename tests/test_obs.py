"""Observability layer (repro.obs): invariance, exactness, and wiring.

Two properties carry the whole design and get the heaviest coverage
here:

* **Golden invariance** — attaching the full surface (sampled tracing +
  gauge scraper) must not move a single bit of any protocol's golden
  digest.  The instruments draw no randomness, send no messages, and
  schedule only read-only periodics, so ``observe=True`` runs must
  reproduce ``tests/golden/baseline_goldens.json`` exactly.
* **One number per statistic** — the SLO report prints the exact
  percentile of the ``MetricsHub`` series each row names, the number the
  figures and ``perf/`` compute from the same series.
"""

import hashlib
import json
import re
import warnings
from pathlib import Path

import pytest

from repro.baselines.gst import GST_HEARTBEAT_INTERVAL
from repro.core import EunomiaConfig
from repro.core.partition import StoragePartition
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import capture_golden
from repro.metrics.collector import MetricsHub
from repro.metrics.summary import EmptySeriesWarning, cdf, percentile
from repro.obs import (
    STAGES,
    Tracer,
    chrome_trace,
    render_slo_report,
)
from repro.obs.gauges import SCRAPE_INTERVAL
from repro.workload.generator import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "baseline_goldens.json").read_text())
STRICT_FIELDS = ("fingerprints", "snapshot_sha", "stable_sha",
                 "vis_sorted_sha", "ops", "converged")
PROTOCOLS = ("eventual", "gentlerain", "cure", "sseq", "aseq", "eunomia")


class _Uid:
    """Minimal update stand-in: anything with ``.uid`` + ``.key``."""

    def __init__(self, dc, part, seq):
        self.uid = (dc, part, seq)
        self.origin_dc = dc
        self.key = f"k{seq}"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_sampling_is_deterministic_and_thin():
    tracer = Tracer(sample_every=8)
    picks = [tracer.sampled((0, 1, seq)) for seq in range(4096)]
    assert picks == [tracer.sampled((0, 1, seq)) for seq in range(4096)]
    rate = sum(picks) / len(picks)
    assert 0.05 < rate < 0.25  # ~1/8 with hash jitter
    # sample_every=1 traces everything
    assert all(Tracer(sample_every=1).sampled((d, p, s))
               for d in range(3) for p in range(2) for s in range(16))


def test_tracer_span_lifecycle_and_dedup():
    tracer = Tracer(sample_every=1)
    up = _Uid(0, 1, 7)
    span = tracer.commit(up, 1.0, issued_at=0.5)
    assert span is not None
    tracer.stage(up, "replicate", 1.01, 0)
    tracer.stage_once(up, "recv_apply", 1.05, 2)
    tracer.stage_once(up, "recv_apply", 1.09, 2)   # retransmission: ignored
    tracer.stage_once(up, "recv_apply", 1.06, 1)   # other site: kept
    tracer.stage_once(up, "visible", 1.07, 1)
    assert span.stage_times("issue") == [(0.5, 0)]
    assert span.stage_times("commit") == [(1.0, 0)]
    assert span.stage_times("recv_apply") == [(1.05, 2), (1.06, 1)]
    # sorted_events is time-major, pipeline-order minor
    stages = [s for s, _, _ in span.sorted_events()]
    assert stages[0] == "issue" and stages[1] == "commit"
    assert {s for s, _, _ in span.events} <= set(STAGES)


def test_tracer_wal_group_commit_fanout():
    tracer = Tracer(sample_every=1)
    a, b = _Uid(0, 0, 1), _Uid(0, 0, 2)
    for up in (a, b):
        tracer.commit(up, 1.0)
        tracer.wal_staged("dc0/wal", up, 1.0, 0)
    tracer.wal_synced("dc0/wal", 1.2, 0)
    for up in (a, b):
        span = tracer.spans[up.uid]
        assert span.stage_times("wal_stage") == [(1.0, 0)]
        assert span.stage_times("wal_fsync") == [(1.2, 0)]
    # a second fsync of the same WAL touches nothing (pending was drained)
    tracer.wal_synced("dc0/wal", 1.4, 0)
    assert tracer.spans[a.uid].stage_times("wal_fsync") == [(1.2, 0)]


# ----------------------------------------------------------------------
# Golden invariance — the acceptance criterion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_observability_preserves_goldens(protocol):
    """Tracing + gauges on → bit-identical golden digest."""
    golden = next(g for g in GOLDENS
                  if g["protocol"] == protocol and g["seed"] == 1234)
    observed = capture_golden(protocol, 1234, observe=True)
    for field in STRICT_FIELDS:
        assert observed[field] == golden[field], (
            f"{protocol}: observability changed golden field {field!r}")


# ----------------------------------------------------------------------
# Metrics fixes (satellites a + f)
# ----------------------------------------------------------------------
def test_percentile_empty_warns():
    with pytest.warns(EmptySeriesWarning):
        assert percentile([], 99.0) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # non-empty input must not warn
        assert percentile([1.0, 3.0], 50.0) == 2.0


def test_metrics_hub_queries_return_copies():
    hub = MetricsHub()
    hub.mark("ops", 0.5)
    hub.point("gauge", 0.5, 2.0)
    for got, again in [(hub.mark_times("ops"), hub.mark_times("ops")),
                       (hub.point_series("gauge"), hub.point_series("gauge"))]:
        assert got == again
        got.clear()
        assert again != [] and got == []    # mutation did not reach the hub
    assert hub.point_series("gauge") == [(0.5, 2.0)]


# ----------------------------------------------------------------------
# End-to-end: gauges, report, chrome trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed_run():
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                         seed=11)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.75, n_keys=64))
    obs = system.observe(sample_every=4)
    system.run(1.5)
    system.quiesce(1.5)
    return system, obs


def test_gauge_scraper_records_nonnegative_series(observed_run):
    system, obs = observed_run
    for dc in range(3):
        for name in ("stab_lag_ms", "receiver_backlog", "receiver_inflight",
                     "runbuffer_depth", "uplink_pending"):
            points = system.metrics.point_series(f"gauge:{name}:dc{dc}")
            assert points, f"gauge:{name}:dc{dc} never scraped"
            assert all(v >= 0.0 for _, v in points)
        # one release in flight per tracked origin at most (Alg. 5)
        assert max(v for _, v in system.metrics.point_series(
            f"gauge:receiver_inflight:dc{dc}")) <= 2
    lag = [v for _, v in system.metrics.point_series("gauge:stab_lag_ms:dc0")]
    assert max(lag) > 0.0                   # lag is real, not a dead zero


def test_default_scrape_is_no_multiple_of_a_protocol_interval():
    """At 50 ms = 10 θ every scrape saw the same phase of the stabilization
    round and the receiver's in-flight gauge read 3 % where the release
    chains were 45 % busy; the default walks the phase instead."""
    config = EunomiaConfig()
    for interval in (config.batch_interval, config.stabilization_interval,
                     GST_HEARTBEAT_INTERVAL):
        periods = SCRAPE_INTERVAL / interval
        assert abs(periods - round(periods)) > 0.02


def test_gst_family_reports_pending_depth_gauge():
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                         seed=3)
    system = build_geo_system("gentlerain", spec,
                              WorkloadSpec(read_ratio=0.5, n_keys=32))
    system.observe(sample_every=8)
    system.run(1.0)
    system.quiesce(1.0)
    for dc in range(2):
        points = system.metrics.point_series(f"gauge:pending_depth:dc{dc}")
        assert points and all(v >= 0.0 for _, v in points)


@pytest.mark.parametrize("n_shards, points_per_dc", [(1, 0), (2, 10)])
def test_shard_merge_lag_gauge_only_where_shards_merge(n_shards,
                                                       points_per_dc):
    """A sharded site reports its coordinator's per-shard stable-time
    spread on every scrape; a K=1 site has nothing to merge and emits no
    such series."""
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=4, clients_per_dc=4,
                         seed=2)
    system = build_geo_system("eunomia", spec, WorkloadSpec(read_ratio=0.3),
                              config=EunomiaConfig(n_shards=n_shards))
    system.observe()
    system.run(0.5)
    for dc in range(2):
        points = system.metrics.point_series(
            f"gauge:shard_merge_lag_ms:dc{dc}")
        assert len(points) == points_per_dc
        assert all(v >= 0.0 for _, v in points)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_visibility_accounting_is_the_same_under_every_protocol(protocol):
    """What ``StoragePartition`` owns, held with every op traced: a remote
    install is one ``vis_extra_ms`` and one ``vis_total_ms`` point (section
    7.2.2: ``0 <= extra <= total``) and one ``visible`` span event; a local
    commit opens one span, ``issue`` no later than ``commit``."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                         seed=5)
    system = build_geo_system(protocol, spec,
                              WorkloadSpec(read_ratio=0.5, n_keys=32))
    obs = system.observe(sample_every=1)
    system.run(1.0)
    system.quiesce(1.5)
    partitions = [p for dc in system.datacenters for p in dc.partitions]
    assert all(isinstance(p, StoragePartition) for p in partitions)
    # only EunomiaKV's partitions carry an uplink (none is built unstarted)
    assert all(hasattr(p, "uplink") == (protocol == "eunomia")
               for p in partitions)
    installs = sum(p.remote_applies for p in partitions)
    assert installs > 0
    recorded = 0
    for k, m in ((k, m) for k in range(3) for m in range(3) if k != m):
        extra = system.metrics.point_series(f"vis_extra_ms:{k}->{m}")
        total = system.metrics.point_series(f"vis_total_ms:{k}->{m}")
        assert [t for t, _ in extra] == [t for t, _ in total]
        assert all(0.0 <= e <= v for (_, e), (_, v) in zip(extra, total))
        if protocol == "eventual":      # installs on arrival
            assert all(e == 0.0 for _, e in extra)
        recorded += len(total)
    assert recorded == installs
    spans = list(obs.tracer.iter_spans())
    assert obs.tracer.dropped == 0
    assert len(spans) == sum(p.local_updates for p in partitions)
    stages = [[stage for stage, _, _ in span.events] for span in spans]
    assert sum(names.count("visible") for names in stages) == installs
    for span, names in zip(spans, stages):
        assert names.count("commit") == 1 and names.count("issue") <= 1
        when = {stage: t for stage, t, _ in span.events}
        assert when.get("issue", 0.0) <= when["commit"]
    # a client's very first op is issued at t = 0.0, which reads as "not
    # threaded"; only those spans open at commit
    assert sum("issue" not in names for names in stages) <= len(system.clients)


def test_slo_report_renders_all_tables(observed_run):
    system, obs = observed_run
    report = render_slo_report(system.metrics, tracer=obs.tracer)
    assert "operation latency" in report
    assert "remote visibility latency" in report
    assert "stabilization lag" in report
    assert "dc0->dc1" in report and "sampled spans" in report
    assert "no SLO data recorded" in render_slo_report(MetricsHub())


def test_slo_report_prints_the_exact_percentiles_of_the_hub_series(
        observed_run):
    """Each count and percentile of the operation and visibility rows is
    the one ``percentile()`` gives over the hub series the row names,
    rounded as printed — the number Fig. 6 and ``perf/`` compute from the
    same series, not an estimate of it."""
    system, obs = observed_run
    hub = system.metrics

    def printed(name, pcts=(50.0, 99.0, 99.9)):
        values = [v for _, v in hub.point_series(name)]
        return [str(len(values))] + [f"{percentile(values, q):.3f}"
                                     for q in pcts]

    op_rows = vis_rows = 0
    for line in render_slo_report(hub, tracer=obs.tracer).splitlines():
        cells = line.split()
        pair = re.fullmatch(r"dc(\d+)->dc(\d+)", cells[0]) if cells else None
        if len(cells) == 6 and cells[1] in ("read", "update"):
            dc, kind = cells[:2]
            assert cells[2:] == printed(f"latency_ms:{kind}:dc{dc}"), line
            op_rows += 1
        elif pair is not None:
            k, m = pair.groups()
            extra_p99 = printed(f"vis_extra_ms:{k}->{m}", (99.0,))[1]
            assert cells[1:] == printed(f"vis_total_ms:{k}->{m}") + [
                extra_p99], line
            vis_rows += 1
    assert (op_rows, vis_rows) == (6, 6)


def test_chrome_trace_export_shape(observed_run):
    system, obs = observed_run
    trace = chrome_trace(tracer=obs.tracer, hub=system.metrics)
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phases
    slices = [e for e in events if e["ph"] == "X"]
    assert slices and all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
    assert {e["name"] for e in slices} <= set(STAGES)
    counters = [e for e in events if e["ph"] == "C"]
    assert any("stab_lag_ms" in e["name"] for e in counters)
    json.dumps(trace)                       # must be serializable as-is


# What the exporters and statistics print for ``observed_run``.  First
# captured at 26a0e71, when the hub kept lists of boxed floats and the
# statistics were numpy's (before the columnar store / stdlib statistics of
# PR 14); re-captured once in PR 20 (the heartbeat leaves from the tick),
# once in PR 21 (frames, queued heartbeats and ``BatchAck`` on the background
# ``uplink`` lane) and once in PR 24 (the remote write is charged when the
# payload lands, so a release publishes in 0.35 ms; the scrape walks the
# phase of the stabilization round instead of sitting on one, and the report
# gained the receiver table) — each moves every seeded Eunomia run, none
# moved the counts or the series length — with each percentile below checked
# equal to ``np.percentile`` at capture time.  Re-captured once more when the
# operation and visibility rows stopped printing log-bin sketch estimates and
# began printing the exact percentiles of the hub series (dc0->dc1 p50
# 44.260 -> 44.681); the counts, the other tables and the trace digest did not
# move.  Re-captured once more when Alg. 5 releases got a ``release`` lane of
# their own (dc0->dc1 p50 44.681 -> 44.641, p99 47.599 -> 47.082); the counts
# and the stabilization-lag, receiver and span rows did not move.
_SLO_REPORT_AT_PARENT = """\
operation latency (ms) per DC x op kind
   dc kind        count        p50        p99      p99.9
    0 read          670      1.805      5.552      6.009
    0 update        206      4.654      8.402      8.402
    1 read          685      1.805      5.555      6.055
    1 update        197      4.655      8.400      8.401
    2 read          655      1.804      5.552      5.711
    2 update        215      4.654      8.402      8.874

remote visibility latency (ms) per origin->dest
      path    count        p50        p99      p99.9   extra p99
  dc0->dc1       206     44.641     47.082     47.374       5.865
  dc0->dc2       206     44.708     47.152     47.258       5.678
  dc1->dc0       197     44.333     47.061     47.218       5.893
  dc1->dc2       197     84.659     88.050     88.126       6.587
  dc2->dc0       215     44.412     46.880     47.019       5.677
  dc2->dc1       215     84.770     87.489     87.569       6.032

stabilization lag (ms), now - StableTime per DC
   dc    count        p50        p99      p99.9
    0       60      3.539      5.734      5.811
    1       60      3.665      5.963      6.014
    2       60      4.065      6.495      6.743

receiver (Alg. 5) per DC: ops queued, origins with a release in flight (mean, max)
   dc    count    backlog        max  in-flight        max
    0       60      0.083          1      0.083          1
    1       60      0.083          1      0.083          1
    2       60      0.067          2      0.067          2

sampled spans: 155 (1-in-4, 0 dropped)
"""
_CHROME_TRACE_SHA_AT_PARENT = (
    "c9d68456deff2780a997bcf7c31dfbd571aaf98fa7ca6cfc5cf7519c5e283551")
_VIS_0_1_PERCENTILES_AT_PARENT = {
    0: 41.895840343684874, 50: 44.6408530231886, 90: 46.591783917835116,
    99: 47.081608052854456, 99.9: 47.3744181051635, 100: 47.4355182010541}
_VIS_0_1_CDF_AT_PARENT = [
    (41.0, 0.019417475728155338), (42.0, 0.1650485436893204),
    (43.0, 0.38349514563106796), (44.0, 0.5728155339805825),
    (45.0, 0.8203883495145631), (46.0, 0.9660194174757282), (47.0, 1.0)]


def test_exports_byte_identical_to_list_backed_hub(observed_run):
    system, obs = observed_run
    assert render_slo_report(system.metrics,
                             tracer=obs.tracer) == _SLO_REPORT_AT_PARENT
    trace = chrome_trace(tracer=obs.tracer, hub=system.metrics)
    blob = json.dumps(trace, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        _CHROME_TRACE_SHA_AT_PARENT)


def test_statistics_bit_identical_to_numpy_on_a_visibility_series(
        observed_run):
    system, _ = observed_run
    vis = [v for _, v in system.metrics.point_series("vis_total_ms:0->1")]
    assert len(vis) == 206
    assert {p: percentile(vis, p) for p in _VIS_0_1_PERCENTILES_AT_PARENT} == (
        _VIS_0_1_PERCENTILES_AT_PARENT)
    assert cdf(vis, resolution=1.0) == _VIS_0_1_CDF_AT_PARENT


def test_service_rig_observe_opens_spans_at_ingest():
    from repro.core.config import EunomiaConfig
    from repro.harness.loadgen import build_eunomia_rig

    rig = build_eunomia_rig(4, config=EunomiaConfig(durability="wal"))
    tracer = rig.observe(sample_every=4)
    rig.run(1.0)
    assert len(tracer) > 0
    stages = {s for span in tracer.iter_spans() for s, _, _ in span.events}
    # emulator loads have no client/commit path: spans open at ingestion
    # and still pick up the WAL group-commit + propagation stages
    assert {"ingest", "wal_stage", "wal_fsync", "propagate"} <= stages


def test_chaos_case_collects_mttr_and_trace():
    from repro.harness.chaos import run_case, sample_schedule

    schedule = sample_schedule("eunomia", seed=5)
    result = run_case(schedule)
    assert result.ok, result.failures
    assert result.mttr and all(
        m["mttr_s"] is None or m["mttr_s"] >= 0.0 for m in result.mttr)
    assert result.trace is not None
    cats = {e.get("cat") for e in result.trace["traceEvents"]}
    assert "fault" in cats                  # fault instants on their track
