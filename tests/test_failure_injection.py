"""Tests for failure schedules, stragglers, and calibration semantics."""

import pytest

from repro.calibration import Calibration
from repro.clocks.ntp import NtpSynchronizer
from repro.clocks.physical import PhysicalClock
from repro.durability.wal import WriteAheadLog
from repro.sim import ConstantLatency, Environment, FailureSchedule, Network, \
    Process, Straggler
from repro.sim.disk import DiskModel


class Dummy(Process):
    pass


def test_schedule_crash_and_recover(env, net):
    proc = Dummy(env, "d")
    schedule = FailureSchedule(env)
    schedule.crash_at(1.0, proc).recover_at(2.0, proc)
    schedule.arm()
    env.run(until=1.5)
    assert proc.crashed
    env.run(until=2.5)
    assert not proc.crashed
    assert [label for _, label in schedule.log] == ["crash d", "recover d"]


def test_schedule_amnesia_crash_wipes_state(env, net):
    class Stateful(Dummy):
        def __init__(self, e):
            super().__init__(e, "s")
            self.counter = 7

        def _lose_state(self):
            self.counter = 0

    proc = Stateful(env)
    schedule = FailureSchedule(env)
    schedule.crash_at(1.0, proc, lose_state=True).recover_at(2.0, proc)
    schedule.arm()
    env.run(until=1.5)
    assert proc.crashed and proc.state_lost and proc.counter == 0
    env.run(until=2.5)
    assert not proc.crashed
    assert proc.state_lost          # recover alone never restores state
    assert [label for _, label in schedule.log] == \
        ["amnesia-crash s", "recover s"]


def test_schedule_custom_action(env):
    hits = []
    schedule = FailureSchedule(env)
    schedule.at(0.5, lambda: hits.append(env.now), label="poke")
    schedule.arm()
    env.run(until=1.0)
    assert hits == [0.5]
    assert schedule.log == [(0.5, "poke")]


def test_straggler_mutates_and_restores_interval(env, net):
    class HostsInterval(Process):
        def __init__(self, e):
            super().__init__(e, "p")
            self.batch_interval = 0.001

    partition = HostsInterval(env)
    schedule = FailureSchedule(env)
    Straggler(partition, start=1.0, end=2.0,
              straggle_interval=0.5).arm(schedule)
    schedule.arm()
    env.run(until=1.5)
    assert partition.batch_interval == 0.5
    env.run(until=2.5)
    assert partition.batch_interval == 0.001


class _Interval:
    def __init__(self):
        self.name = "p"
        self.batch_interval = 0.001


def test_straggler_begin_is_idempotent():
    """A repeated begin must never save the straggle interval as the
    'original' — the classic double-begin bug that heals to the fault."""
    p = _Interval()
    s = Straggler(p, start=0.0, end=1.0, straggle_interval=0.5)
    s.begin()
    s.begin()
    assert p.batch_interval == 0.5
    s.heal()
    assert p.batch_interval == 0.001


def test_straggler_heal_is_idempotent_across_amnesia_recovery():
    """After a heal closes the window, a partition that re-initializes its
    own interval (amnesia crash + recovery) must not have the stale
    pre-crash value forced back by a second heal."""
    p = _Interval()
    s = Straggler(p, start=0.0, end=1.0, straggle_interval=0.5)
    s.begin()
    s.heal()
    p.batch_interval = 0.002      # re-initialized by recovery, not 0.001
    s.heal()
    assert p.batch_interval == 0.002


class _PairTB(Process):
    def __init__(self, env, name):
        super().__init__(env, name)
        self.got = []

    def on_ping(self, msg, src):
        self.got.append((self.now, msg.seq))


def _ping(seq):
    from tests.test_network_faults import Ping
    return Ping(seq)


class TestFaultDsl:
    """Each DSL verb must inject and (where paired) fully restore."""

    def test_partition_blocks_and_heal_restores(self, env, net):
        a, b = _PairTB(env, "a"), _PairTB(env, "b")
        fs = FailureSchedule(env)
        fs.partition_at(1.0, [a], [b]).heal_at(2.0, [a], [b])
        fs.arm()
        fs.at(0.5, lambda: env.network.send(a, b, _ping(0)), label="t0")
        fs.at(1.5, lambda: env.network.send(a, b, _ping(1)), label="t1")
        fs.at(1.5, lambda: env.network.send(b, a, _ping(2)), label="t2")
        fs.at(2.5, lambda: env.network.send(a, b, _ping(3)), label="t3")
        env.run(until=3.0)
        assert [s for _, s in b.got] == [0, 3]    # 1 dropped both ways
        assert [s for _, s in a.got] == []        # symmetric: 2 dropped too

    def test_asymmetric_partition_blocks_one_direction(self, env, net):
        a, b = _PairTB(env, "a"), _PairTB(env, "b")
        fs = FailureSchedule(env)
        fs.partition_at(1.0, [a], [b], symmetric=False)
        fs.arm()
        fs.at(1.5, lambda: env.network.send(a, b, _ping(1)), label="t1")
        fs.at(1.5, lambda: env.network.send(b, a, _ping(2)), label="t2")
        env.run(until=2.0)
        assert [s for _, s in b.got] == []        # a -> b cut
        assert [s for _, s in a.got] == [2]       # b -> a still up

    def test_gray_links_stretch_then_restore(self, env, net):
        a, b = _PairTB(env, "a"), _PairTB(env, "b")
        fs = FailureSchedule(env)
        fs.degrade_links_at(1.0, [(a, b)], extra_s=0.05)
        fs.restore_links_at(2.0, [(a, b)])
        fs.arm()
        fs.at(1.1, lambda: env.network.send(a, b, _ping(0)), label="t0")
        fs.at(2.1, lambda: env.network.send(a, b, _ping(1)), label="t1")
        env.run(until=3.0)
        (t_gray, _), (t_ok, _) = b.got
        assert t_gray == pytest.approx(1.1 + 0.0001 + 0.05)
        assert t_ok == pytest.approx(2.1 + 0.0001)

    def test_gray_disk_degrades_and_restores_fsync_cost(self, env):
        disk = DiskModel(Calibration())
        healthy = disk.fsync_cost(128)
        fs = FailureSchedule(env)
        fs.degrade_disk_at(1.0, disk, factor=40.0)
        fs.restore_disk_at(2.0, disk)
        fs.arm()
        env.run(until=1.5)
        assert disk.fsync_cost(128) == pytest.approx(40.0 * healthy)
        env.run(until=2.5)
        assert disk.fsync_cost(128) == pytest.approx(healthy)

    def test_wal_fsync_fault_window(self, env):
        wal = WriteAheadLog("w", disk=DiskModel(Calibration()))
        fs = FailureSchedule(env)
        fs.wal_fail_fsyncs_at(1.0, wal, count=2)
        fs.arm()
        env.run(until=1.5)
        for attempt in range(3):
            wal.stage_op(attempt + 1, 0, attempt + 1, ("k", attempt))
            wal.commit()
        assert wal.fsync_failures == 2
        # staged records survived the failed commits; third attempt landed
        assert len(wal) == 3
        assert wal.staged == 0

    def test_clock_drift_changes_rate_without_retroactive_jump(self, env):
        clock = PhysicalClock(env, drift_ppm=0.0)
        fs = FailureSchedule(env)
        fs.clock_drift_at(1.0, clock, drift_ppm=1000.0, step_us=250.0)
        fs.arm()
        env.run(until=0.999)
        assert clock.skew_us() == pytest.approx(0.0, abs=1e-6)
        env.run(until=2.0)
        # phase step + one second of the new rate; the first second is not
        # retroactively re-rated
        assert clock.skew_us() == pytest.approx(250.0 + 1000.0, abs=2.0)

    def test_ntp_outage_skips_corrections_in_window(self, env):
        ntp = NtpSynchronizer(env, interval=0.25, residual_us=10.0)
        ntp.manage(PhysicalClock(env, drift_ppm=200.0))
        fs = FailureSchedule(env)
        fs.ntp_outage(1.0, 2.0, ntp)
        fs.arm()
        env.run(until=3.0)
        # outage window [1, 2) covers exactly the 1.0..1.75 ticks
        assert ntp.corrections_skipped == 4
        labels = [label for _, label in fs.log]
        assert labels == ["ntp-outage begin", "ntp-outage end"]


class TestCalibration:
    def test_cost_scales_overhead_does_not(self):
        cal = Calibration(scale=10.0)
        assert cal.cost("sequencer_request") == pytest.approx(208e-6)
        assert cal.overhead("eunomia_stab_round") == pytest.approx(10e-6)

    def test_scale_one_equalizes(self):
        cal = Calibration(scale=1.0)
        assert cal.cost("uplink_op") == cal.overhead("uplink_op")

    def test_throughput_scale(self):
        assert Calibration(scale=10.0).throughput_scale() == 10.0

    def test_unknown_cost_raises(self):
        with pytest.raises(AttributeError):
            Calibration().cost("made_up")
