"""Tests for the Environment bundle and seeded RNG streams."""

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.calibration import Calibration
from repro.core import EunomiaConfig
from repro.core.protocols import available_protocols
from repro.harness.loadgen import build_eunomia_rig, build_sequencer_rig
from repro.sim import Environment
from repro.sim.rng import RngRegistry


class TestEnvironment:
    def test_now_tracks_loop(self, env):
        assert env.now == 0.0
        env.loop.schedule(1.25, lambda: None)
        env.run()
        assert env.now == 1.25

    def test_now_us_rounds(self, env):
        env.loop.schedule(0.0000015, lambda: None)
        env.run()
        assert env.now_us() == 2  # 1.5 µs rounds to 2

    def test_pids_unique_and_sequential(self, env):
        assert [env.allocate_pid() for _ in range(3)] == [0, 1, 2]

    def test_run_until(self, env):
        fired = []
        env.loop.schedule(5.0, fired.append, 1)
        env.run(until=1.0)
        assert fired == []
        env.run()
        assert fired == [1]


    def test_every_cost_reads_the_environment_calibration(self, monkeypatch):
        """Six protocols and both rigs built from one calibration: every
        ``cost`` / ``overhead`` read, at construction and while running,
        is a read of that object (the K2×R2 WAL rig covers the disk)."""
        readers = []
        for method in ("cost", "overhead"):
            def spy(cal, name, _read=getattr(Calibration, method)):
                readers.append(cal)
                return _read(cal, name)
            monkeypatch.setattr(Calibration, method, spy)
        cal = Calibration(scale=5.0)
        spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                             calibration=cal)
        wal_ft = EunomiaConfig(fault_tolerant=True, n_replicas=2, n_shards=2,
                               durability="wal")
        builds = [
            *(lambda p=p: build_geo_system(p, spec, WorkloadSpec())
              for p in available_protocols()),
            lambda: build_eunomia_rig(4, config=wal_ft, calibration=cal),
            lambda: build_sequencer_rig(4, calibration=cal),
        ]
        for build in builds:
            before = len(readers)
            build().run(0.2)
            assert len(readers) > before
        assert all(reader is cal for reader in readers)


class TestRngRegistry:
    def test_same_seed_same_streams(self):
        a = RngRegistry(seed=42).stream("workload")
        b = RngRegistry(seed=42).stream("workload")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("workload")
        b = RngRegistry(seed=2).stream("workload")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        reg = RngRegistry(seed=1)
        first = [reg.stream("a").random() for _ in range(10)]
        # Interleaving draws from another stream must not perturb "a".
        reg2 = RngRegistry(seed=1)
        second = []
        for _ in range(10):
            reg2.stream("b").random()
            second.append(reg2.stream("a").random())
        assert first == second

    def test_stream_identity_cached(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("x") is reg.stream("x")

    def test_fork_derives_independent_registry(self):
        reg = RngRegistry(seed=1)
        fork_a = reg.fork("dc0").stream("net")
        fork_b = reg.fork("dc1").stream("net")
        assert [fork_a.random() for _ in range(5)] != \
               [fork_b.random() for _ in range(5)]

    def test_fork_deterministic(self):
        a = RngRegistry(seed=9).fork("x").stream("s").random()
        b = RngRegistry(seed=9).fork("x").stream("s").random()
        assert a == b
