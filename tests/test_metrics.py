"""Tests for metric collection and post-run statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig, build_sequencer_rig
from repro.metrics import (
    MetricsHub,
    cdf,
    mean,
    percentile,
    steady_window,
    throughput,
    trim_marks,
    windowed_points,
    windowed_rate,
)
from repro.workload.generator import WorkloadSpec


class TestHub:
    def test_marks_and_points(self, metrics):
        metrics.mark("ops", 0.5)
        metrics.point("vis", 0.5, 9.0)
        assert metrics.mark_times("ops") == [0.5]
        assert metrics.point_series("vis") == [(0.5, 9.0)]

    def test_queries_return_legacy_shapes(self, metrics):
        metrics.mark("ops", 2)              # an int is stored as a double
        metrics.point("vis", 3, 4)
        series = metrics.mark_times("ops")
        assert type(series) is list and type(series[0]) is float
        (pair,) = metrics.point_series("vis")
        assert type(pair) is tuple and pair == (3.0, 4.0)
        assert all(type(x) is float for x in pair)
        for missing in (metrics.mark_times("x"), metrics.point_series("x")):
            assert missing == []
        assert list(metrics.points) == ["vis"]   # queries add no series

    def test_queries_are_snapshots(self, metrics):
        """A result holds what was recorded when it was taken (that
        mutating it leaves the hub alone is pinned in test_obs.py)."""
        metrics.mark("ops", 0.5)
        metrics.point("vis", 0.5, 9.0)
        earlier = (metrics.mark_times("ops"), metrics.point_series("vis"))
        metrics.mark_many("ops", 1.5, 2)
        metrics.point("vis", 1.5, 8.0)
        assert earlier == ([0.5], [(0.5, 9.0)])
        assert metrics.point_series("vis") == [(0.5, 9.0), (1.5, 8.0)]

    def test_mark_many_with_count(self, metrics):
        metrics.mark("ops", 0.5)
        metrics.mark_many("ops", 1.5, 3)
        metrics.mark_many("ops", 9.9, 0)     # no-op, no empty-list entry
        assert metrics.mark_times("ops") == [0.5, 1.5, 1.5, 1.5]

    @pytest.mark.parametrize("nothing", [0, -3])
    def test_mark_many_of_nothing_creates_no_series(self, metrics, nothing):
        metrics.mark_many("ops", 1.0, nothing)
        assert not metrics.marks

    def test_mark_many_equivalent_to_mark_loop(self, metrics):
        bulk = MetricsHub()
        for _ in range(5):
            metrics.mark("ops", 2.5)
        bulk.mark_many("ops", 2.5, 5)
        assert bulk.mark_times("ops") == metrics.mark_times("ops")

    def test_every_process_records_into_its_environment_hub(self):
        system = build_geo_system("eunomia", GeoSystemSpec(),
                                  WorkloadSpec())
        rig = build_eunomia_rig(4)
        for run in (system, rig):
            assert run.metrics is run.env.metrics
            assert all(p.metrics is run.metrics
                       for p in run.env.network.processes())


def _float_only(monkeypatch):
    """Make every recording method reject a non-float time or value."""
    for method in ("mark", "mark_many", "point"):
        def wrapper(self, name, time, *rest, _method=method,
                    _original=getattr(MetricsHub, method)):
            # mark_many's third argument is a count
            checked = (time,) if _method == "mark_many" else (time, *rest)
            assert all(type(v) is float for v in checked), (_method, name)
            return _original(self, name, time, *rest)
        monkeypatch.setattr(MetricsHub, method, wrapper)


class TestStoredAsDoubles:
    """``array('d')`` turns a recorded ``int`` into a ``float``, which
    would change ``0`` to ``0.0`` in anything that hashes or prints a
    series (golden digests hash ``repr``).  No recorder in ``src/`` hands
    the hub an int; these runs keep it that way."""

    @pytest.mark.parametrize("protocol", ["eunomia", "eventual", "gentlerain",
                                          "cure", "sseq", "aseq"])
    def test_geo_protocols_record_only_floats(self, monkeypatch, protocol):
        _float_only(monkeypatch)
        spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                             seed=5)
        system = build_geo_system(protocol, spec,
                                  WorkloadSpec(read_ratio=0.5, n_keys=32))
        system.observe(sample_every=4)      # gauges record points too
        system.run(0.5)
        system.quiesce(0.5)
        assert system.metrics.mark_times("ops")

    @pytest.mark.parametrize("protocol, per_partition", [
        ("eunomia", True), ("gentlerain", False), ("eventual", False)])
    def test_series_names_of_a_geo_run(self, protocol, per_partition):
        """Recorders format their series names once, at construction; the
        names are the ones figures, goldens and ``perf/`` look up."""
        spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                             seed=5)
        system = build_geo_system(protocol, spec,
                                  WorkloadSpec(read_ratio=0.5, n_keys=32))
        system.run(1.0)
        system.quiesce(1.0)
        pairs = [(k, m) for k in range(3) for m in range(3) if k != m]
        points = {f"latency_ms:{kind}:dc{d}"
                  for kind in ("read", "update") for d in range(3)}
        points |= {f"vis_{what}_ms:{k}->{m}"
                   for what in ("extra", "total") for k, m in pairs}
        if per_partition:
            points |= {f"vis_extra_ms:{k}->{m}:p{i}"
                       for k, m in pairs for i in range(2)}
        hub = system.metrics
        assert sorted(hub.points) == sorted(points)
        assert {"ops", "ops:dc0", "ops:dc1", "ops:dc2"} <= set(hub.marks)

    def test_rigs_record_only_floats(self, monkeypatch):
        _float_only(monkeypatch)
        for rig in (build_eunomia_rig(4, seed=1), build_sequencer_rig(4, seed=1)):
            rig.run(0.3)
            assert rig.throughput() > 0.0


class TestStats:
    def test_mean_and_empty(self):
        assert mean([1, 2, 3]) == 2.0
        assert mean([]) == 0.0

    def test_mean_is_correctly_rounded(self):
        # fsum / n: no accumulated rounding, whatever the order or scale
        assert mean([0.1] * 10) == 0.1
        assert mean([1e16, 1.0, -1e16]) == 1.0 / 3

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 90) == pytest.approx(90.1)
        assert percentile([], 50) == 0.0

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6,
                                     allow_nan=False), min_size=1,
                           max_size=200))
    def test_percentile_bounds(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)

    def test_percentile_pinned_cases(self):
        """Literal values of numpy's ``linear`` method; runs without numpy."""
        assert percentile([7.5], 0) == percentile([7.5], 99.9) == 7.5  # n = 1
        assert [percentile([1.0, 3.0], p) for p in (0, 50, 90, 100)] == [
            1.0, 2.0, 2.8, 3.0]                                         # n = 2
        assert [percentile([4.0] * 9, p) for p in (0, 50, 99, 100)] == [4.0] * 4
        cut = [1.0, 2.0, 2.0, 2.0, 5.0]           # duplicates at the cut
        assert [percentile(cut, p) for p in (25, 50, 75)] == [2.0, 2.0, 2.0]
        series = [0.1 * i * i for i in range(11)]  # 0.0 .. 10.0, convex
        assert [percentile(series, p) for p in (0, 50, 90, 99, 99.9, 100)] == [
            0.0, 2.5, 8.1, 9.81, 9.981000000000003, 10.0]
        assert percentile(series[::-1], 90) == 8.1  # input order is free
        assert percentile([1, 2, 3, 4], 50) == 2.5  # ints welcome
        assert type(percentile([1, 2, 3], 50)) is float

    def test_percentile_lerp_branches(self):
        """Below t = 0.5 the result is ``a + (b-a)*t``, from 0.5 on it is
        ``b - (b-a)*(1-t)``; with a = 0.1, b = 0.7 the two differ in the
        last bit at t = 0.45 and t = 0.55, so each branch is pinned."""
        a, b = 0.1, 0.7
        assert a + (b - a) * 0.45 != b - (b - a) * (1 - 0.45)
        assert b - (b - a) * (1 - 0.55) != a + (b - a) * 0.55
        assert percentile([a, b], 45) == a + (b - a) * 0.45
        assert percentile([a, b], 55) == b - (b - a) * (1 - 0.55)
        assert percentile([a, b], 50) == b - (b - a) * 0.5

    def test_percentile_rejects_out_of_range(self):
        for pct in (-1, 100.5):
            with pytest.raises(ValueError, match="0, 100"):
                percentile([1.0, 2.0], pct)

    def test_cdf_monotone_and_complete(self):
        points = cdf([3.0, 1.0, 2.0, 2.0])
        assert points == [(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]

    def test_cdf_resolution_buckets(self):
        points = cdf([0.2, 0.9, 1.4], resolution=1.0)
        assert points == [(0.0, 2 / 3), (1.0, 1.0)]

    def test_cdf_empty(self):
        assert cdf([]) == []

    @given(values=st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                           max_size=100))
    def test_cdf_fractions_monotone(self, values):
        points = cdf(values)
        fracs = [f for _, f in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_steady_window_trims(self):
        lo, hi = steady_window(0.0, 10.0)
        assert lo == pytest.approx(1.5)
        assert hi == pytest.approx(8.5)

    def test_throughput_counts_in_window(self):
        marks = [0.1 * i for i in range(100)]  # 10 ops/s for 10s
        assert throughput(marks, (2.0, 8.0)) == pytest.approx(10.0, rel=0.05)
        assert throughput(marks, (5.0, 5.0)) == 0.0

    def test_trim_marks(self):
        assert trim_marks([0.5, 1.5, 2.5], (1.0, 2.0)) == [1.5]

    def test_windowed_rate(self):
        marks = [0.25, 0.75, 1.25]  # 2 in [0,1), 1 in [1,2)
        rates = windowed_rate(marks, 0.0, 2.0, 1.0)
        assert rates == [(0.5, 2.0), (1.5, 1.0)]

    def test_windowed_rate_degenerate(self):
        assert windowed_rate([1.0], 5.0, 5.0, 1.0) == []

    def test_windowed_points_aggregations(self):
        points = [(0.1, 10.0), (0.2, 20.0), (1.5, 5.0)]
        assert windowed_points(points, 0, 2, 1, agg="mean") == [
            (0.5, 15.0), (1.5, 5.0)]
        assert windowed_points(points, 0, 2, 1, agg="max")[0] == (0.5, 20.0)
        p90 = windowed_points(points, 0, 2, 1, agg="p90")[0][1]
        assert 10.0 <= p90 <= 20.0

    def test_windowed_points_skips_empty_buckets(self):
        points = [(0.5, 1.0), (2.5, 2.0)]
        out = windowed_points(points, 0, 3, 1, agg="mean")
        assert [t for t, _ in out] == [0.5, 2.5]

    def test_windowed_points_unknown_agg(self):
        with pytest.raises(ValueError):
            windowed_points([(0.5, 1.0)], 0, 1, 1, agg="bogus")


# ----------------------------------------------------------------------
# Parity with numpy, which the statistics used until PR 14 (skipped where
# numpy is not installed; the pinned cases above run everywhere)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


_FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
_PCT = st.one_of(st.sampled_from([0, 50, 90, 99, 99.9, 100]),
                 st.floats(min_value=0, max_value=100, allow_nan=False))


@given(values=st.lists(_FINITE, min_size=1, max_size=400), pct=_PCT)
def test_percentile_equals_numpy_exactly(np, values, pct):
    assert percentile(values, pct) == float(np.percentile(values, pct))


@given(values=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=400))
def test_mean_within_rounding_of_numpy(np, values):
    # numpy sums pairwise in doubles; fsum is exact, so they may differ in
    # the last few bits and no more
    assert mean(values) == pytest.approx(float(np.mean(values)), rel=1e-14,
                                         abs=1e-300)


@given(values=st.lists(st.floats(min_value=0, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=200),
       resolution=st.sampled_from([None, 1.0, 0.5]))
def test_cdf_equals_numpy_formulation(np, values, resolution):
    data = np.asarray(values, dtype=float)
    if resolution:
        data = np.floor(data / resolution) * resolution
    uniq, counts = np.unique(data, return_counts=True)
    expected = [(float(v), int(c) / len(values))
                for v, c in zip(uniq, np.cumsum(counts))]
    assert cdf(values, resolution=resolution) == expected
