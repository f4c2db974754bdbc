"""Tests for the §5 propagation tree (relays coalescing uplink traffic)."""

import pytest

from repro.checker import CausalChecker, SessionHistory
from repro.core import EunomiaConfig, EunomiaService, TreeRelay
from repro.core.messages import AddOpBatch, PartitionHeartbeat
from repro.core.tree import CombinedBatch
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.kvstore.types import Update
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.workload import WorkloadSpec


def make_op(ts, partition=0):
    return Update(key=f"k{ts}", value=None, origin_dc=0,
                  partition_index=partition, seq=ts, ts=ts, vts=(ts,),
                  commit_time=0.0)


class Upstream(Process):
    def __init__(self, env):
        super().__init__(env, "up", site=0)
        self.combined = []

    def on_combined_batch(self, msg, src):
        self.combined.append(msg)


@pytest.fixture
def relay_rig(env, net):
    relay = TreeRelay(env, "relay", 0, flush_interval=0.002)
    upstream = Upstream(env)
    relay.set_upstream([upstream])
    relay.start()
    feeder = Process(env, "feeder")
    return env, relay, upstream, feeder


class TestRelayUnit:
    def test_coalesces_window_into_one_message(self, relay_rig):
        env, relay, upstream, feeder = relay_rig
        feeder.send(relay, AddOpBatch(0, (make_op(1),)))
        feeder.send(relay, AddOpBatch(1, (make_op(2, 1),)))
        feeder.send(relay, PartitionHeartbeat(2, 99))
        env.run(until=0.01)
        assert len(upstream.combined) == 1
        combined = upstream.combined[0]
        assert combined.op_count() == 2
        assert len(combined.heartbeats) == 1
        assert relay.compression_ratio() == pytest.approx(3.0)

    def test_keeps_only_latest_heartbeat_per_partition(self, relay_rig):
        env, relay, upstream, feeder = relay_rig
        feeder.send(relay, PartitionHeartbeat(0, 10))
        feeder.send(relay, PartitionHeartbeat(0, 20))
        env.run(until=0.01)
        beats = upstream.combined[0].heartbeats
        assert len(beats) == 1
        assert beats[0].ts == 20

    def test_empty_windows_send_nothing(self, relay_rig):
        env, relay, upstream, feeder = relay_rig
        env.run(until=0.05)
        assert upstream.combined == []
        assert relay.compression_ratio() == 0.0

    def test_batch_order_preserved_within_partition(self, relay_rig):
        env, relay, upstream, feeder = relay_rig
        feeder.send(relay, AddOpBatch(0, (make_op(1),)))
        feeder.send(relay, AddOpBatch(0, (make_op(2),)))
        env.run(until=0.01)
        batches = upstream.combined[0].batches
        assert [b.ops[0].ts for b in batches] == [1, 2]


class TestServiceIntegration:
    def test_service_unpacks_combined_batches(self, env, net, metrics):
        config = EunomiaConfig(stabilization_interval=0.005)
        service = EunomiaService(env, "e", 0, 3, config, metrics=metrics)
        feeder = Process(env, "feeder")
        combined = CombinedBatch(
            batches=(AddOpBatch(0, (make_op(10),)),
                     AddOpBatch(1, (make_op(12, 1),))),
            heartbeats=(PartitionHeartbeat(2, 11),),
        )
        feeder.send(service, combined)
        env.run(until=0.01)
        assert service.partition_time == [10, 12, 11]
        assert len(service.buffer) == 2

    def test_combined_cost_counts_one_message_overhead(self, env, net):
        service = EunomiaService(Environment(seed=1), "e", 0, 2,
                                 EunomiaConfig(), insert_op_cost=1.0,
                                 batch_cost=10.0)
        combined = CombinedBatch(
            batches=(AddOpBatch(0, (make_op(1), make_op(2))),
                     AddOpBatch(1, (make_op(3, 1),))),
            heartbeats=(),
        )
        # one 10.0 overhead + 3 inserts, NOT 2x10 + 3
        assert service._combined_cost_of(combined) == pytest.approx(13.0)


class TestTreeDeployment:
    def test_tree_config_validation(self):
        with pytest.raises(ValueError):
            EunomiaConfig(use_propagation_tree=True,
                          fault_tolerant=True, n_replicas=2).validate()
        with pytest.raises(ValueError):
            EunomiaConfig(use_propagation_tree=True, tree_fanout=0).validate()

    def test_geo_system_with_tree_is_causal_and_converges(self):
        config = EunomiaConfig(use_propagation_tree=True, tree_fanout=2)
        history = SessionHistory()
        system = build_geo_system(
            "eunomia",
            GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=3,
                          seed=5),
            WorkloadSpec(read_ratio=0.8, n_keys=60),
            config=config, history=history)
        system.run(3.0)
        system.quiesce(3.0)
        assert system.converged()
        assert CausalChecker(history).check() == []
        assert len(system.datacenters[0].relays) == 2

    def test_tree_reduces_messages_at_eunomia(self):
        """The point of §5: fewer messages into the service."""
        def messages_into_eunomia(use_tree):
            config = EunomiaConfig(use_propagation_tree=use_tree,
                                   tree_fanout=8)
            rig = build_eunomia_rig(16, config=config, seed=3)
            rig.run(1.0)
            service = rig.service_processes[0]
            # relays emit CombinedBatch; partitions emit AddOpBatch + HBs
            return rig.sink.received, service

        flat_ops, _ = messages_into_eunomia(False)
        tree_ops, _ = messages_into_eunomia(True)
        # same work gets through either way
        assert tree_ops == pytest.approx(flat_ops, rel=0.05)

    def test_relay_compression_at_load(self):
        config = EunomiaConfig(use_propagation_tree=True, tree_fanout=8)
        rig = build_eunomia_rig(16, config=config, seed=3)
        rig.run(1.0)
        relays = [p for p in rig.service_processes
                  if isinstance(p, TreeRelay)]
        assert relays
        for relay in relays:
            assert relay.compression_ratio() > 2.0
