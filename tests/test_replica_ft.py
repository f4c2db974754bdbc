"""Tests for fault-tolerant Eunomia (Algorithm 4) and leader election."""

from unittest import mock

import pytest
from mutants import MUTANTS

from repro.core import EunomiaConfig, EunomiaService
from repro.core import stream as stream_module
from repro.core.election import OmegaElection
from repro.core.messages import AddOpBatch, ReplicaAlive
from repro.harness.loadgen import (
    PartitionEmulator,
    RemoteSink,
    build_eunomia_rig,
)
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.sim.failure import FailureSchedule


@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.01)
def build_group(env, n_replicas, n_partitions=2,
                alive=0.05, suspect=0.16):
    config = EunomiaConfig(fault_tolerant=True, n_replicas=n_replicas,
                           replica_alive_interval=alive,
                           replica_suspect_timeout=suspect)
    replicas = [
        EunomiaService(env, f"r{i}", 0, n_partitions, config, replica_id=i,
                       stable_mark="stable")
        for i in range(n_replicas)
    ]
    for replica in replicas:
        replica.set_peers(replicas)
    sink = RemoteSink(env)
    for replica in replicas:
        replica.add_destination(sink)
        replica.start()
    return config, env.metrics, replicas, sink


class Feeder(Process):
    def __init__(self, env):
        super().__init__(env, "feeder")

    def on_batch_ack(self, msg, src):
        pass


def make_op(ts, partition=0):
    return Update(key=f"k{ts}", value=None, origin_dc=0,
                  partition_index=partition, seq=ts, ts=ts, vts=(ts,),
                  commit_time=0.0)


def test_initial_leader_is_lowest_id(env, net):
    _, _, replicas, _ = build_group(env, 3)
    env.run(until=0.01)
    assert replicas[0].is_leader()
    assert not replicas[1].is_leader()
    assert not replicas[2].is_leader()


def test_only_leader_propagates(env, net):
    _, _, replicas, sink = build_group(env, 3)
    feeder = Feeder(env)
    for replica in replicas:
        feeder.send(replica, AddOpBatch(0, (make_op(10),)))
        feeder.send(replica, AddOpBatch(1, (make_op(11, 1),)))
    env.run(until=0.1)
    assert sink.received == 1  # one copy, not three


def test_followers_prune_on_stable_announce(env, net):
    _, _, replicas, _ = build_group(env, 2)
    feeder = Feeder(env)
    for replica in replicas:
        feeder.send(replica, AddOpBatch(0, (make_op(10),)))
        feeder.send(replica, AddOpBatch(1, (make_op(11, 1),)))
    env.run(until=0.1)
    # stable = min(10, 11) = 10: the ts=10 op is pruned via StableAnnounce,
    # the ts=11 op legitimately stays buffered (not yet stable).
    assert len(replicas[1].buffer) == 1
    assert replicas[1].stable_time == replicas[0].stable_time == 10


def test_replicas_ack_batches(env, net):
    _, _, replicas, _ = build_group(env, 2)

    acks = []

    class AckSink(Process):
        def on_batch_ack(self, msg, src):
            acks.append((src.name, msg.ack_ts))

    feeder = AckSink(env, "acker")
    feeder.send(replicas[0], AddOpBatch(0, (make_op(10),)))
    feeder.send(replicas[1], AddOpBatch(0, (make_op(10),)))
    env.run(until=0.05)
    assert sorted(acks) == [("r0", 10), ("r1", 10)]


def test_leader_failover_resumes_stabilization(env, net):
    _, _, replicas, sink = build_group(env, 3)
    feeder = Feeder(env)
    for replica in replicas:
        feeder.send(replica, AddOpBatch(0, (make_op(10),)))
        feeder.send(replica, AddOpBatch(1, (make_op(11, 1),)))
    env.run(until=0.05)
    assert sink.received == 1
    replicas[0].crash()
    # new ops reach only the survivors
    for replica in replicas[1:]:
        feeder.send(replica, AddOpBatch(0, (make_op(20),)))
        feeder.send(replica, AddOpBatch(1, (make_op(21, 1),)))
    env.run(until=0.6)  # past the suspicion timeout
    assert replicas[1].is_leader()
    assert sink.received >= 2  # the new op was propagated by the new leader


def test_failover_does_not_lose_unannounced_ops(env, net):
    """Ops the dead leader held but never announced survive on followers."""
    _, _, replicas, sink = build_group(env, 2)
    feeder = Feeder(env)
    # Deliver to BOTH replicas, then crash the leader before its next
    # stabilization tick can announce anything.
    for replica in replicas:
        feeder.send(replica, AddOpBatch(0, (make_op(10),)))
        feeder.send(replica, AddOpBatch(1, (make_op(11, 1),)))
    replicas[0].crash()
    env.run(until=0.6)
    assert sink.received == 1  # follower took over and shipped it


class SilentPeer(Process):
    def on_replica_alive(self, msg, src):
        pass


def test_omega_election_unit(env, net):
    host = Process(env, "host")
    election = OmegaElection(host, replica_id=1, alive_interval=0.05,
                             suspect_timeout=0.12)
    peer = SilentPeer(env, "peer")
    election.set_peers({0: peer})
    # peer 0 trusted at boot -> leader 0
    assert election.leader_id() == 0
    # silence: after the timeout the peer is suspected
    env.loop.schedule(0.2, lambda: None)
    env.run()
    assert election.leader_id() == 1
    # a fresh heartbeat reinstates it
    election.on_alive(ReplicaAlive(0))
    assert election.leader_id() == 0


def test_leadership_change_callback(env, net):
    changes = []
    host = Process(env, "host")
    election = OmegaElection(host, replica_id=1, alive_interval=0.05,
                             suspect_timeout=0.12,
                             on_change=changes.append)
    election.set_peers({0: SilentPeer(env, "peer")})
    election.start()
    env.run(until=0.5)
    assert changes and changes[-1] == 1  # took over after silence


def test_end_to_end_ft_pipeline_with_loss(env, monkeypatch):
    """Emulated partitions + lossy links + replicas: nothing is lost."""
    monkeypatch.setattr(stream_module, "RESEND_TIMEOUT", 0.02)
    net = Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    replicas = [
        EunomiaService(env, f"r{i}", 0, 2, config, replica_id=i,
                       stable_mark="stable")
        for i in range(2)
    ]
    for replica in replicas:
        replica.set_peers(replicas)
    sink = RemoteSink(env)
    for replica in replicas:
        replica.add_destination(sink)
        replica.start()
    emulators = [PartitionEmulator(env, f"p{i}", i, config) for i in range(2)]
    for emulator in emulators:
        emulator.set_eunomia(replicas)
        # 20% loss on every partition->replica link
        for replica in replicas:
            net.set_link_loss(emulator, replica, 0.2)
        emulator.start()
    env.run(until=1.0)
    for emulator in emulators:
        emulator.stop()  # stop generating; uplinks keep retransmitting
    env.run(until=2.5)
    generated = sum(e.generated for e in emulators)
    assert generated > 0
    # At-least-once delivery + dedup: every generated op stabilizes exactly
    # once despite 20% loss on every uplink link.
    assert sink.received == generated
    assert all(e.uplink.pending_count() == 0 for e in emulators)


def _crash_recover_crash(n_shards):
    """r0 down at 0.3 s and back at 0.6 s through the failure schedule, r1
    down for good at 1.0 s; returns the rig and the sink count at three
    instants (just before r1's crash, and twice after it)."""
    config = EunomiaConfig(n_replicas=2, fault_tolerant=True,
                           n_shards=n_shards, replica_alive_interval=0.05,
                           replica_suspect_timeout=0.16)
    rig = build_eunomia_rig(4, config, seed=3)
    rig.sink.record = True
    r0, r1 = rig.groups
    schedule = FailureSchedule(rig.env)
    schedule.crash_at(0.3, r0).recover_at(0.6, r0).crash_at(1.0, r1)
    schedule.arm()
    rig.start()
    counts = []
    for instant in (0.99, 1.5, 2.5):
        rig.env.run(until=instant)
        counts.append(rig.sink.received)
    return rig, counts


@pytest.mark.parametrize("n_shards", [1, 2])
def test_recovered_replica_ships_again(n_shards):
    """``FailureSchedule.recover_at`` on a replica restarts it: once its
    successor dies it is the only replica left, so the site keeps shipping
    only if the recovered replica's stabilization tick and Ω broadcasts
    were re-armed (a K=1 replica used to come back as a zombie that
    reported ``is_leader()`` and shipped nothing)."""
    rig, (before, soon_after, later) = _crash_recover_crash(n_shards)
    assert before < soon_after < later
    assert rig.groups[0].is_leader()
    # Every partition's ops arrive exactly once and in sequence.
    last_seq = {}
    for _, partition, seq in rig.sink.collected:
        assert seq == last_seq.get(partition, 0) + 1
        last_seq[partition] = seq


def test_the_rejoin_test_kills_a_recover_that_skips_restart():
    with MUTANTS["replica_recover_skips_restart"].applied():
        with pytest.raises(AssertionError):
            test_recovered_replica_ships_again(1)


def test_recovered_replica_stream_is_shard_count_independent():
    """One rejoin path: K=1 and K=2 deliver the same op sequence under the
    same crash/recover schedule."""
    one, _ = _crash_recover_crash(1)
    two, _ = _crash_recover_crash(2)
    assert one.sink.collected == two.sink.collected
