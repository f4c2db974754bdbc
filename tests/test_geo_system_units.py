"""Unit tests for the geo facade, datacenter assembly, and spec handling."""

import pytest

from repro.calibration import Calibration
from repro.core import EunomiaConfig
from repro.core.placement import PlacementMap
from repro.core.protocols import get_protocol
from repro.geo.datacenter import Datacenter
from repro.geo.system import GeoSystem, GeoSystemSpec, build_geo_system
from repro.kvstore.ring import ConsistentHashRing
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network
from repro.sim.latency import RttMatrix
from repro.workload import WorkloadSpec


class TestSpec:
    def test_default_topology_is_papers(self):
        spec = GeoSystemSpec()
        assert spec.topology().rtt_ms[1][2] == 160.0

    def test_custom_topology_used(self):
        rtt = RttMatrix([[0, 10], [10, 0]])
        spec = GeoSystemSpec(n_dcs=2, rtt=rtt)
        assert spec.topology() is rtt

    def test_calibration_defaults(self):
        assert isinstance(GeoSystemSpec().calibration, Calibration)


def eunomia_site(env, dc_id, ring, config, metrics=None):
    """One EunomiaKV site of a fully replicated 2-DC x 2-partition world,
    built the way :func:`build_geo_system` builds it."""
    protocol = get_protocol("eunomia")
    return Datacenter(env, dc_id, 2, 2, ring, protocol=protocol,
                      options=protocol.prepare(None, {"config": config}),
                      placement=PlacementMap.full(2, 2), metrics=metrics)


class TestDatacenterAssembly:
    @pytest.fixture
    def dc_pair(self):
        env = Environment(seed=3)
        Network(env, ConstantLatency(0.0001))
        ring = ConsistentHashRing(2)
        config = EunomiaConfig()
        metrics = MetricsHub()
        dcs = [eunomia_site(env, i, ring, config, metrics=metrics)
               for i in range(2)]
        return env, dcs

    def test_structure(self, dc_pair):
        _, dcs = dc_pair
        dc = dcs[0]
        assert len(dc.partitions) == 2
        assert len(dc.heads) == 1
        assert dc.receiver.dc_id == 0

    def test_connect_wires_destinations_and_siblings(self, dc_pair):
        _, (a, b) = dc_pair
        a.connect(b)
        assert b.receiver in a.heads[0].destinations
        assert a.partitions[0].siblings[1] is b.partitions[0]

    def test_connect_to_self_rejected(self, dc_pair):
        _, (a, _) = dc_pair
        with pytest.raises(ValueError):
            a.connect(a)

    def test_ft_mode_builds_replica_group(self):
        env = Environment(seed=3)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(fault_tolerant=True, n_replicas=3)
        dc = eunomia_site(env, 0, ConsistentHashRing(2), config)
        assert len(dc.heads) == 3
        assert dc.heads[0].peers == dc.heads[1:]

    def test_leader_helper_skips_crashed(self):
        env = Environment(seed=3)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
        dc = eunomia_site(env, 0, ConsistentHashRing(2), config)
        dc.start()
        env.run(until=0.1)
        assert dc.leader() is dc.heads[0]
        dc.heads[0].crash()
        env.run(until=3.0)  # past suspicion timeout
        assert dc.leader() is dc.heads[1]

    def test_fingerprint_empty_datacenters_agree(self, dc_pair):
        _, (a, b) = dc_pair
        assert a.fingerprint() == b.fingerprint()
        assert a.store_snapshot() == {}


class TestGeoSystemFacade:
    @pytest.fixture
    def system(self):
        spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                             seed=8)
        return build_geo_system("eunomia", spec,
                                WorkloadSpec(read_ratio=0.8, n_keys=32))

    def test_start_idempotent(self, system):
        system.start()
        clients_before = len(system.clients)
        system.start()
        assert len(system.clients) == clients_before
        system.run(0.5)
        assert system.total_throughput() >= 0

    def test_window_trims_run(self, system):
        system.run(2.0)
        lo, hi = system.window()
        assert 0.0 < lo < hi < 2.0

    def test_consecutive_runs_extend_time(self, system):
        system.run(1.0)
        assert system.env.now == pytest.approx(1.0)
        system.run(1.0)
        assert system.env.now == pytest.approx(2.0)

    def test_quiesce_stops_clients(self, system):
        system.run(1.0)
        system.quiesce(1.0)
        done = [c.ops_done for c in system.clients]
        system.env.run(until=system.env.now + 1.0)
        assert [c.ops_done for c in system.clients] == done

    def test_visibility_accessor_windows(self, system):
        system.run(2.0)
        all_points = system.metrics.point_series("vis_extra_ms:0->1")
        windowed = system.visibility_extra_ms(0, 1)
        assert len(windowed) <= len(all_points)

    def test_protocol_label(self, system):
        assert system.protocol == "eunomia"
