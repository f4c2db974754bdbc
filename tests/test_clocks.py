"""Tests for physical, hybrid, and NTP clock models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    HybridLogicalClock,
    NtpSynchronizer,
    PhysicalClock,
)
from repro.sim import Environment


def advance(env, seconds):
    # Bounded run: self-rescheduling components (NTP) never drain the loop.
    env.loop.run(until=env.loop.now + seconds)


class TestPhysicalClock:
    def test_zero_drift_tracks_true_time(self, env):
        clock = PhysicalClock(env)
        advance(env, 1.0)
        assert clock.read_us() == 1_000_000

    def test_drift_scales_readings(self, env):
        clock = PhysicalClock(env, drift_ppm=100.0)
        advance(env, 1.0)
        assert clock.read_us() == pytest.approx(1_000_100, abs=2)

    def test_offset_shifts_readings(self, env):
        clock = PhysicalClock(env, offset_us=500.0)
        assert clock.read_us() == 500

    def test_readings_are_monotone_even_after_backward_ntp_step(self, env):
        clock = PhysicalClock(env, offset_us=1000.0)
        advance(env, 1.0)
        before = clock.read_us()
        clock.ntp_correct(-50.0)  # steps the clock backwards
        assert clock.read_us() >= before

    def test_skew_us_reports_error(self, env):
        clock = PhysicalClock(env, drift_ppm=50.0, offset_us=10.0)
        advance(env, 2.0)
        assert clock.skew_us() == pytest.approx(2.0 * 50 + 10)

    def test_random_clock_within_bounds(self, env):
        rng = env.rng.stream("t")
        for _ in range(20):
            clock = PhysicalClock.random(env, rng, max_drift_ppm=50,
                                         max_offset_us=500)
            assert abs(clock.drift_ppm) <= 50
            assert abs(clock.offset_us) <= 500


class TestNtp:
    def test_sync_bounds_skew(self, env):
        ntp = NtpSynchronizer(env, interval=1.0, residual_us=50.0)
        rng = env.rng.stream("clocks")
        for _ in range(5):
            ntp.manage(PhysicalClock.random(env, rng, max_drift_ppm=100,
                                            max_offset_us=5000))
        advance(env, 1.001)  # just past one sync round
        assert ntp.max_skew_us() <= 2 * 50.0 + 1.0

    def test_offset_regrows_with_drift_between_syncs(self, env):
        ntp = NtpSynchronizer(env, interval=1.0, residual_us=0.0)
        clock = PhysicalClock(env, drift_ppm=100.0, offset_us=0.0)
        ntp.manage(clock)
        advance(env, 1.001)
        skew_after_sync = abs(clock.skew_us())
        advance(env, 0.9)  # drift accumulates again
        assert abs(clock.skew_us()) > skew_after_sync


class TestHybridClock:
    def test_tick_monotonic(self, env):
        hlc = HybridLogicalClock(PhysicalClock(env))
        values = [hlc.tick() for _ in range(100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_update_exceeds_dependency(self, env):
        hlc = HybridLogicalClock(PhysicalClock(env))
        future_dep = 10_000_000  # far beyond the physical clock
        assert hlc.update(future_dep) == future_dep + 1

    def test_physical_time_dominates_when_ahead(self, env):
        clock = PhysicalClock(env)
        hlc = HybridLogicalClock(clock)
        hlc.update(5)
        advance(env, 1.0)
        assert hlc.tick() == clock.read_us()

    def test_observe_lifts_future_ticks(self, env):
        hlc = HybridLogicalClock(PhysicalClock(env))
        hlc.observe(999_999)
        assert hlc.tick() == 1_000_000

    def test_logical_lead(self, env):
        hlc = HybridLogicalClock(PhysicalClock(env))
        hlc.update(2_000_000)
        assert hlc.logical_lead_us() == pytest.approx(2_000_001, abs=2)
        advance(env, 3.0)
        assert hlc.logical_lead_us() == 0

    @given(deps=st.lists(st.integers(min_value=0, max_value=10**9),
                         min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_1_and_2_hold_for_any_dependency_sequence(self, deps):
        """Alg. 2 line 5: outputs strictly increase and exceed every dep."""
        env = Environment(seed=7)
        hlc = HybridLogicalClock(PhysicalClock(env))
        last = 0
        for dep in deps:
            ts = hlc.update(dep)
            assert ts > dep      # Property 1 ingredient
            assert ts > last     # Property 2
            last = ts
