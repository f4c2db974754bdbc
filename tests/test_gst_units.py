"""Unit-level tests for the GentleRain/Cure stabilization machinery."""

import pytest
from hypothesis import given, settings, strategies as st
from mutants import MUTANTS

from repro.baselines.gst import (
    CurePartition,
    DEFAULT_GST_INTERVAL,
    GentleRainPartition,
)
from repro.baselines.messages import GstBroadcast, GstHeartbeat, GstReport
from repro.clocks import PhysicalClock
from repro.core.messages import ClientUpdate, RemoteData
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process


def make_partition(env, cls, dc_id=0, index=1, **kwargs):
    """index=1: not the aggregator, so no periodic aggregation interferes."""
    return cls(env, f"dc{dc_id}/p{index}", dc_id, index, 3,
               PhysicalClock(env), DEFAULT_GST_INTERVAL, **kwargs)


def remote(dc, ts, vts, seq=1, key="rk", value="rv"):
    return Update(key=key, value=value, origin_dc=dc, partition_index=0,
                  seq=seq, ts=ts, vts=vts, commit_time=0.0)


class Sender(Process):
    pass


class TestGentleRainUnit:
    def test_remote_update_gated_until_gst(self, env, net):
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        sender.send(partition, RemoteData(remote(1, 100, (100,))))
        env.run(until=0.01)
        assert partition.store.get("rk") is None      # gated
        assert partition.pending_count() == 1
        sender.send(partition, GstBroadcast((100,)))
        env.run(until=0.02)
        assert partition.store.get("rk").value == "rv"
        assert partition.pending_count() == 0

    def test_release_in_timestamp_order(self, env, net):
        # Arrival order across origins is arbitrary (only each origin's own
        # stream is FIFO): the later-arriving, older update goes first.
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        for dc, ts in ((1, 30), (2, 10), (2, 20)):
            sender.send(partition, RemoteData(
                remote(dc, ts, (ts,), seq=ts, key=f"k{ts}")))
        env.run(until=0.01)
        sender.send(partition, GstBroadcast((15,)))
        env.run(until=0.02)
        assert partition.store.get("k10") is not None
        assert partition.store.get("k20") is None
        assert partition.pending_count() == 2

    def test_runs_pending_releases_partial_prefix(self, env, net):
        """The per-origin runs under realistic FIFO streams."""
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        for dc, ts in ((1, 10), (2, 25), (1, 30), (2, 35)):   # FIFO per origin
            sender.send(partition, RemoteData(
                remote(dc, ts, (ts,), seq=ts, key=f"k{ts}")))
        env.run(until=0.01)
        assert partition.pending_count() == 4
        sender.send(partition, GstBroadcast((25,)))
        env.run(until=0.02)
        assert partition.store.get("k10") is not None
        assert partition.store.get("k25") is not None
        assert partition.store.get("k30") is None
        assert partition.pending_count() == 2

    def test_runs_pending_rejects_non_fifo_stream(self, env, net):
        """The deferred set's contract: a FIFO violation fails loudly."""
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        sender.send(partition, RemoteData(remote(1, 30, (30,), seq=3)))
        sender.send(partition, RemoteData(remote(1, 10, (10,), seq=1)))
        with pytest.raises(ValueError, match="non-monotone insert"):
            env.run(until=0.01)

    def test_heartbeat_advances_vv(self, env, net):
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        sender.send(partition, GstHeartbeat(2, 0, 12345))
        env.run(until=0.01)
        assert partition.vv[2] == 12345

    def test_local_summary_is_min_of_vv(self, env, net):
        partition = make_partition(env, GentleRainPartition)
        partition.vv = [100, 50, 70]
        assert partition._local_summary() == (50,)
        # Whichever tracked origin lags bounds the report: a GST above it
        # would release updates that may depend on that origin's writes
        # not yet received here.
        for lagging in range(3):
            partition.vv = [30 if d == lagging else 100 for d in range(3)]
            assert partition._local_summary() == (30,), lagging

    def test_update_stamp_scalar(self, env, net):
        partition = make_partition(env, GentleRainPartition)
        update = partition._stamp(ClientUpdate("k", "v", (500_000,)))
        assert update.vts == (update.ts,)
        assert update.ts > 500_000

    def test_gst_broadcast_monotone_merge(self, env, net):
        partition = make_partition(env, GentleRainPartition)
        sender = Sender(env, "s")
        sender.send(partition, GstBroadcast((100,)))
        sender.send(partition, GstBroadcast((60,)))  # stale broadcast
        env.run(until=0.01)
        assert partition.summary == (100,)


class TestCureUnit:
    def test_release_requires_every_remote_entry(self, env, net):
        partition = make_partition(env, CurePartition)
        sender = Sender(env, "s")
        # from dc1, also depends on dc2's ts 80
        sender.send(partition, RemoteData(remote(1, 100, (0, 100, 80))))
        env.run(until=0.01)
        sender.send(partition, GstBroadcast((0, 100, 0)))
        env.run(until=0.02)
        assert partition.store.get("rk") is None      # dc2 entry missing
        sender.send(partition, GstBroadcast((0, 100, 80)))
        env.run(until=0.03)
        assert partition.store.get("rk").value == "rv"

    def test_local_entry_not_required(self, env, net):
        partition = make_partition(env, CurePartition)
        sender = Sender(env, "s")
        # vts[0] is the local DC: must not gate visibility
        sender.send(partition, RemoteData(remote(1, 10, (999_999, 10, 0))))
        env.run(until=0.01)
        sender.send(partition, GstBroadcast((0, 10, 0)))
        env.run(until=0.02)
        assert partition.store.get("rk") is not None

    def test_update_stamp_vector(self, env, net):
        partition = make_partition(env, CurePartition)
        update = partition._stamp(ClientUpdate("k", "v", (7, 0, 9)))
        # dc_id=0: local entry is index 0, remote entries copied verbatim
        assert update.vts[0] > 7
        assert update.vts[1] == 0 and update.vts[2] == 9
        assert update.ts == update.vts[partition.dc_id]

    def test_local_summary_is_full_vv(self, env, net):
        partition = make_partition(env, CurePartition)
        partition.vv = [5, 6, 7]
        assert partition._local_summary() == (5, 6, 7)

    def test_visibility_metrics_recorded_on_release(self, env, net):
        partition = make_partition(env, CurePartition)
        sender = Sender(env, "s")
        sender.send(partition, RemoteData(remote(1, 10, (0, 10, 0))))
        env.run(until=0.01)
        env.loop.schedule_at(0.05, lambda: sender.send(
            partition, GstBroadcast((0, 10, 0))))
        env.run(until=0.1)
        points = env.metrics.point_series("vis_extra_ms:1->0")
        assert len(points) == 1
        assert points[0][1] == pytest.approx(50.0, abs=5.0)


def test_the_summary_min_test_kills_a_gst_that_drops_an_origin(
        env, net):
    with MUTANTS["gst_summary_drops_origin"].applied():
        with pytest.raises(AssertionError):
            TestGentleRainUnit().test_local_summary_is_min_of_vv(
                env, net)


class TestAggregation:
    """Reports reach the aggregator the way they do in a deployment:
    through ``on_gst_report``, from the members of its roster."""

    @staticmethod
    def _roster(env):
        aggregator = GentleRainPartition(
            env, "p0", 0, 0, 3, PhysicalClock(env), DEFAULT_GST_INTERVAL)
        follower = make_partition(env, GentleRainPartition)
        for partition in (aggregator, follower):
            partition.local_partitions = [aggregator, follower]
            partition.aggregator = aggregator
        return aggregator, follower

    def test_aggregator_broadcasts_min_of_reports(self, env, net):
        aggregator, follower = self._roster(env)
        aggregator.send(aggregator, GstReport(0, (50,)))
        follower.send(aggregator, GstReport(1, (30,)))
        env.run(until=0.001)
        aggregator._aggregate()
        env.run(until=0.01)
        assert follower.summary == (30,)

    def test_aggregator_waits_for_all_reports(self, env, net):
        aggregator, follower = self._roster(env)
        aggregator.send(aggregator, GstReport(0, (50,)))  # follower silent
        env.run(until=0.001)
        aggregator._aggregate()
        env.run(until=0.01)
        assert follower.summary == (0,)


# ----------------------------------------------------------------------
# The shared deferred set, under both gates, against a whole-set rescan
# ----------------------------------------------------------------------
def _recording(cls):
    class Recording(cls):
        def _install(self, items):
            self.installed.extend(update.uid for update, _ in items)
            super()._install(items)
    return Recording


#: arrival: (origin dc, own-entry increment, the other remote entry);
#: advance: per-entry summary increments (GentleRain reads the first)
_steps = st.lists(st.one_of(
    st.tuples(st.just("arrive"), st.sampled_from((1, 2)),
              st.integers(1, 5), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.integers(0, 12), st.integers(0, 12)),
), max_size=80)


@pytest.mark.parametrize("cls", [GentleRainPartition, CurePartition],
                         ids=["gentlerain", "cure"])
@settings(max_examples=80, deadline=None)
@given(steps=_steps)
def test_deferred_set_matches_whole_set_rescan(cls, steps):
    """Per-origin runs + covered-prefix scan ≡ rescanning the whole set:
    every round releases the same updates in the same per-origin order and
    leaves nothing releasable behind — for the scalar and the vector gate.
    """
    env = Environment(seed=1)
    Network(env, ConstantLatency(0.0001))
    part = make_partition(env, _recording(cls))
    part.installed = []
    scalar = part.summary_width == 1
    clock = {1: 0, 2: 0}
    summary = [0, 0, 0]                # GSV; GentleRain's GST is entry 1
    waiting = []                       # the reference: one flat list

    def rescan():
        ready = [u for u in waiting if part._releasable(u)]
        waiting[:] = [u for u in waiting if not part._releasable(u)]
        return ready

    for kind, a, b, *rest in steps:
        if kind == "arrive":
            origin, other = a, 3 - a
            clock[origin] += b
            vts = [0, 0, 0]
            vts[origin], vts[other] = clock[origin], rest[0]
            update = remote(origin, clock[origin],
                            (clock[origin],) if scalar else tuple(vts),
                            seq=clock[origin])
            waiting.append(update)
            part.on_remote_data(RemoteData(update), None)
        else:
            summary = [s + inc for s, inc in zip(summary, (0, a, b))]
            part.summary = (summary[1],) if scalar else tuple(summary)
            part._release_ready()
        expected = rescan()
        assert sorted(part.installed) == sorted(u.uid for u in expected)
        for origin in (1, 2):           # FIFO within an origin
            assert ([uid for uid in part.installed if uid[0] == origin]
                    == [u.uid for u in expected if u.origin_dc == origin])
        assert part.pending_count() == len(waiting)
        part.installed.clear()

    # the O(1) append checks its contract: an origin's own entry must grow
    far = max(clock.values()) + 1000
    blocked = remote(1, far, (far,) if scalar else (0, far, 0), seq=far)
    part._defer(blocked, 0.0)
    depth = part.pending_count()
    for ts in (far, far - 1):
        stale = remote(1, ts, (ts,) if scalar else (0, ts, 0), seq=ts)
        with pytest.raises(ValueError, match="non-monotone insert"):
            part._defer(stale, 0.0)
    assert part.pending_count() == depth
