"""Tests for sharded Eunomia stabilization (shards + merging coordinator).

The load-bearing property: for the same input timelines, the K-shard
deployment must emit *op-for-op the same stable serialization* as the K=1
single stabilizer — sharding is an implementation strategy, not a semantic
change (Properties 1–2 preserved through the K-way merge).  The replicated
composition (Alg. 4 × K shards) extends the property: the *deduplicated*
delivered stream must stay identical even when the leader replica group
crashes mid-run and a follower takes over.
"""

import heapq
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutants import MUTANTS
from runbuffer_probes import min_ts

from repro.checker import CausalChecker, SessionHistory
from repro.core import (
    EunomiaConfig,
    EunomiaService,
    EunomiaShard,
    ShardCoordinator,
    ShardMap,
    build_stabilizer_stack,
)
from repro.core.messages import AddOpBatch, PartitionHeartbeat, ShardStableBatch
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.kvstore.types import ORDER_KEY, Update
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.workload import WorkloadSpec


def make_op(ts, partition=0, seq=None):
    return Update(key=f"k{ts}", value=None, origin_dc=0,
                  partition_index=partition,
                  seq=seq if seq is not None else ts,
                  ts=ts, vts=(ts,), commit_time=0.0)


class Sink(Process):
    def __init__(self, env):
        super().__init__(env, "sink", site=1)
        self.batches = []

    def on_remote_stable_batch(self, msg, src):
        self.batches.append(msg)

    @property
    def ops(self):
        return [op for batch in self.batches for op in batch.ops]


class ShardSink(Process):
    """Collects ShardStableBatch (stands in for the coordinator)."""

    def __init__(self, env):
        super().__init__(env, "shard-sink", site=0)
        self.batches = []

    def is_leader(self):
        return True

    def on_shard_stable_batch(self, msg, src):
        self.batches.append(msg)


class DedupSink(Process):
    """A remote sink with Algorithm 5's per-origin dedup.

    A new leader legitimately re-ships the window between the last prune
    gossip and the crash; real receivers drop that overlap against the
    highest ``(ts, origin, seq)`` key already enqueued per origin DC
    (see ``repro.geo.receiver``), so the equivalence tests compare the
    *deduplicated* stream.
    """

    def __init__(self, env):
        super().__init__(env, "sink", site=1)
        self.ops = []
        self.duplicates = 0
        self._last = {}

    def on_remote_stable_batch(self, msg, src):
        last = self._last.get(msg.origin_dc, (0, -1, -1))
        for op in msg.ops:
            key = ORDER_KEY(op)
            if key <= last:
                self.duplicates += 1
                continue
            last = key
            self.ops.append(op)
        self._last[msg.origin_dc] = last


class AckFeeder(Process):
    """Feeds batches directly and swallows the replicas' Alg. 4 acks."""

    def on_batch_ack(self, msg, src):
        pass


# ----------------------------------------------------------------------
# ShardMap / config validation
# ----------------------------------------------------------------------
class TestShardAssignment:
    def test_stride_policy_round_robins(self):
        m = ShardMap(range(8), 4)
        assert [m.shard_of(p) for p in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert m.owned_by(1) == [1, 5]

    def test_every_shard_owns_something(self):
        for n_parts in (2, 3, 8, 13):
            for k in range(1, n_parts + 1):
                m = ShardMap(range(n_parts), k)
                assert all(m.owned_by(s) for s in range(k))
                assert sorted(sum((m.owned_by(s) for s in range(k)), [])) \
                    == list(range(n_parts))

    def test_more_shards_than_partitions_rejected(self):
        with pytest.raises(ValueError, match="some shards would track no"):
            ShardMap(range(2), 4)

    def test_zero_shards_rejected_by_config(self):
        with pytest.raises(ValueError, match="at least one Eunomia shard"):
            EunomiaConfig(n_shards=0).validate()

    def test_sharding_composes_with_fault_tolerance(self):
        """The Alg. 4 × K composition validates (PR 1's rejection lifted)."""
        EunomiaConfig(n_shards=4, fault_tolerant=True,
                      n_replicas=3).validate()

    def test_oversharded_deployment_rejected_at_build(self):
        with pytest.raises(ValueError, match="some shards would track no"):
            build_geo_system(
                "eunomia",
                GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=1),
                WorkloadSpec(), config=EunomiaConfig(n_shards=4))


# ----------------------------------------------------------------------
# Determinism: K-shard output == K=1 output, op for op
# ----------------------------------------------------------------------
@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.004)
def run_stabilization(ts_by_partition, n_shards, batch_size=3):
    """Feed fixed per-partition timelines; return the emitted stable order."""
    env = Environment(seed=42)
    Network(env, ConstantLatency(0.0001))
    n_parts = len(ts_by_partition)
    config = EunomiaConfig(n_shards=n_shards)
    sink = Sink(env)

    if n_shards == 1:
        service = EunomiaService(env, "eunomia", 0, n_parts, config)
        service.add_destination(sink)
        service.start()
        targets = {p: service for p in range(n_parts)}
    else:
        shard_map = ShardMap(range(n_parts), n_shards)
        coordinator = ShardCoordinator(env, "coord", 0, n_shards, config)
        coordinator.add_destination(sink)
        targets = {}
        for sid in range(n_shards):
            shard = EunomiaShard(env, f"shard{sid}", 0, n_parts, config,
                                 shard_id=sid, owned=shard_map.owned_by(sid))
            shard.set_coordinator(coordinator)
            shard.start()
            for p in shard.tracked:
                targets[p] = shard
        coordinator.start()

    feeder = Process(env, "feeder")
    top = 0
    for p, ts_list in enumerate(ts_by_partition):
        ops = [make_op(ts, p, seq=i + 1) for i, ts in enumerate(ts_list)]
        prev = 0
        for i in range(0, len(ops), batch_size):
            chunk = ops[i:i + batch_size]
            feeder.send(targets[p], AddOpBatch(p, tuple(chunk), prev_ts=prev))
            prev = chunk[-1].ts
        if ts_list:
            top = max(top, ts_list[-1])
    # Final heartbeats push every PartitionTime past the last op so the
    # entire timeline becomes stable and drains.
    for p in range(n_parts):
        feeder.send(targets[p], PartitionHeartbeat(p, top + 1))
    env.run(until=1.0)
    return [op.uid for op in sink.ops]


timelines = st.lists(
    st.lists(st.integers(min_value=1, max_value=500),
             min_size=0, max_size=24),
    min_size=4, max_size=8,
).map(lambda per_part: [sorted(set(ts)) for ts in per_part])


@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.004)
def run_replicated_stabilization(ts_by_partition, n_shards, n_replicas,
                                 crash_leader=False, batch_size=3):
    """Feed fixed timelines into an Alg. 4 × K deployment; return the
    deduplicated delivered stable order (uids) plus the sink."""
    env = Environment(seed=42)
    Network(env, ConstantLatency(0.0001))
    n_parts = len(ts_by_partition)
    config = EunomiaConfig(n_shards=n_shards, n_replicas=n_replicas,
                           fault_tolerant=True,
                           replica_alive_interval=0.03,
                           replica_suspect_timeout=0.1)
    config.validate()
    stack = build_stabilizer_stack(env, 0, n_parts, config)
    sink = DedupSink(env)
    for propagator in stack.propagators():
        propagator.add_destination(sink)
    for proc in stack.processes():
        proc.start()

    feeder = AckFeeder(env, "feeder")

    def feed(p, chunk, prev):
        batch = AddOpBatch(p, tuple(chunk), prev_ts=prev)
        for target in stack.uplink_targets(p):
            feeder.send(target, batch)

    # Chunk every partition's timeline, then feed round-robin across
    # partitions so the first half advances *every* shard's stable floor
    # (the crashing leader then ships a real prefix before it dies).
    per_part = []        # per partition: [(chunk, prev_ts), ...]
    top = 0
    for p, ts_list in enumerate(ts_by_partition):
        ops = [make_op(ts, p, seq=i + 1) for i, ts in enumerate(ts_list)]
        prev, entries = 0, []
        for i in range(0, len(ops), batch_size):
            chunk = ops[i:i + batch_size]
            entries.append((chunk, prev))
            prev = chunk[-1].ts
        per_part.append(entries)
        if ts_list:
            top = max(top, ts_list[-1])
    chunks = []          # (partition, chunk, prev_ts), round-robin order
    for round_i in range(max((len(e) for e in per_part), default=0)):
        for p, entries in enumerate(per_part):
            if round_i < len(entries):
                chunks.append((p, *entries[round_i]))
    half = len(chunks) // 2
    for p, chunk, prev in chunks[:half]:
        feed(p, chunk, prev)

    if crash_leader:
        # Let the initial leader ship part of the stream, then kill it —
        # the whole replica group (coordinator + K shards) when sharded,
        # the Alg. 4 replica when K=1.
        env.run(until=0.05)
        stack.crash_units()[0].crash()

    for p, chunk, prev in chunks[half:]:
        feed(p, chunk, prev)
    for p in range(n_parts):
        beat = PartitionHeartbeat(p, top + 1)
        for target in stack.uplink_targets(p):
            feeder.send(target, beat)
    # Past the suspicion timeout + several stabilization rounds.
    env.run(until=1.0)
    return [op.uid for op in sink.ops], sink, stack


class TestMergeDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(timelines=timelines, n_shards=st.sampled_from([2, 3, 4]))
    def test_sharded_output_identical_to_single_stabilizer(
            self, timelines, n_shards):
        """Property 1 + determinism: identical stable serialization for any
        K — the K-way merge re-creates the (ts, origin, seq) total order."""
        reference = run_stabilization(timelines, n_shards=1)
        assert run_stabilization(timelines, n_shards=n_shards) == reference

    def test_laggard_shard_holds_back_global_stable_time(self):
        """An op above min(ShardStableTime) must wait at the coordinator."""
        env = Environment(seed=7)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2)
        coordinator = ShardCoordinator(env, "coord", 0, 2, config)
        sink = Sink(env)
        coordinator.add_destination(sink)
        feeder = Process(env, "feeder")
        feeder.send(coordinator, ShardStableBatch(0, 100, (make_op(80, 0),)))
        env.run(until=0.01)
        # shard 1 silent: min(ShardStableTime) == 0, nothing released
        assert sink.ops == []
        assert coordinator.stable_time == 0
        feeder.send(coordinator, ShardStableBatch(1, 90, (make_op(85, 1),)))
        env.run(until=0.02)
        # global StableTime = min(100, 90) = 90 releases both queued runs
        assert coordinator.stable_time == 90
        assert [op.ts for op in sink.ops] == [80, 85]

    def test_empty_announcements_advance_stable_time(self):
        env = Environment(seed=8)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2)
        coordinator = ShardCoordinator(env, "coord", 0, 2, config)
        sink = Sink(env)
        coordinator.add_destination(sink)
        feeder = Process(env, "feeder")
        feeder.send(coordinator, ShardStableBatch(0, 50, (make_op(42, 0),)))
        feeder.send(coordinator, ShardStableBatch(1, 40, ()))  # idle shard
        env.run(until=0.01)
        assert coordinator.stable_time == 40
        assert sink.ops == []          # 42 > 40 still unstable
        feeder.send(coordinator, ShardStableBatch(1, 60, ()))
        env.run(until=0.02)
        assert [op.ts for op in sink.ops] == [42]

    @mock.patch.object(EunomiaConfig, "stabilization_interval", 0.004)
    def test_shard_only_bounded_by_owned_partitions(self):
        """A shard's ShardStableTime ignores partitions it does not own."""
        env = Environment(seed=9)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2)
        shard = EunomiaShard(env, "shard0", 0, 4, config,
                             shard_id=0, owned=[0, 2])
        shard_sink = ShardSink(env)
        shard.set_coordinator(shard_sink)
        shard.start()
        feeder = Process(env, "feeder")
        feeder.send(shard, AddOpBatch(0, (make_op(10, 0),)))
        feeder.send(shard, AddOpBatch(2, (make_op(20, 2),)))
        env.run(until=0.05)
        # partitions 1 and 3 are silent but unowned — stability unaffected
        assert shard.announced == 10
        assert [op.ts for b in shard_sink.batches for op in b.ops] == [10]


# ----------------------------------------------------------------------
# The coordinator's sort is the K-way heapq.merge, ties included
# ----------------------------------------------------------------------
def tagged_op(tag, ts, partition, seq):
    """An op whose ``key`` names it, so equal order keys stay tellable."""
    return Update(key=tag, value=None, origin_dc=0, partition_index=partition,
                  seq=seq, ts=ts, vts=(ts,))


def drain_through_coordinator(runs):
    """Announce one stable run per shard, in shard order, and return the
    ops the coordinator ships; only the last announcement lifts
    min(ShardStableTime), so every run is merged in one drain."""
    env = Environment(seed=5)
    Network(env, ConstantLatency(0.0001))
    coordinator = ShardCoordinator(env, "coord", 0, len(runs),
                                   EunomiaConfig(n_shards=len(runs)))
    sink = Sink(env)
    coordinator.add_destination(sink)
    feeder = Process(env, "feeder")
    top = 1 + max((op.ts for run in runs for op in run), default=0)
    for shard_id, run in enumerate(runs):
        feeder.send(coordinator, ShardStableBatch(shard_id, top, tuple(run)))
    env.run(until=0.01)
    assert len(sink.batches) <= 1
    return sink.ops


#: 2–4 shards, each an ORDER_KEY-sorted run over a tiny key space, so equal
#: (ts, partition, seq) keys across shards are common
shard_key_runs = st.lists(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2),
                       st.integers(0, 2)), max_size=8).map(sorted),
    min_size=2, max_size=4,
)


class TestCoordinatorMergeOrder:
    @settings(max_examples=80, deadline=None)
    @given(keys=shard_key_runs)
    def test_drain_equals_heapq_merge(self, keys):
        runs = [[tagged_op(f"s{k}#{i}", *key) for i, key in enumerate(run)]
                for k, run in enumerate(keys)]
        expected = heapq.merge(*runs, key=ORDER_KEY)
        assert ([op.key for op in drain_through_coordinator(runs)]
                == [op.key for op in expected])

    def test_equal_keys_across_shards_release_earlier_shard_first(self):
        runs = [
            [tagged_op("a0", 3, 1, 1), tagged_op("a1", 5, 0, 1)],
            [tagged_op("b0", 5, 0, 1), tagged_op("b1", 7, 0, 2)],
            [tagged_op("c0", 5, 0, 1)],
        ]
        shipped = [op.key for op in drain_through_coordinator(runs)]
        assert shipped == ["a0", "a1", "b0", "c0", "b1"]
        assert shipped == [op.key for op in
                           heapq.merge(*runs, key=ORDER_KEY)]


# ----------------------------------------------------------------------
# Replicated sharding (Algorithm 4 × K): equivalence + failover
# ----------------------------------------------------------------------
class TestReplicatedSharding:
    @settings(max_examples=12, deadline=None)
    @given(timelines=timelines,
           shape=st.sampled_from([(2, 2), (4, 3), (1, 3)]))
    def test_replicated_output_identical_even_under_leader_crash(
            self, timelines, shape):
        """The K×R leader's deduplicated output is op-for-op identical to
        the K=1 single stabilizer and the unreplicated K-shard service —
        with the initial leader group crashed mid-run or left alone."""
        n_shards, n_replicas = shape
        reference = run_stabilization(timelines, n_shards=1)
        assert run_stabilization(timelines, n_shards=max(n_shards, 1)) \
            == reference
        healthy, sink, _ = run_replicated_stabilization(
            timelines, n_shards, n_replicas)
        assert healthy == reference
        crashed, sink, _ = run_replicated_stabilization(
            timelines, n_shards, n_replicas, crash_leader=True)
        assert crashed == reference

    def test_failover_resumes_with_survivor_leader(self):
        tls = [[10, 30, 50, 70, 90], [20, 40, 60, 80],
               [15, 35, 55, 75], [25, 45, 65, 85]]
        uids, sink, stack = run_replicated_stabilization(
            tls, n_shards=2, n_replicas=3, crash_leader=True)
        assert uids == run_stabilization(tls, n_shards=1)
        assert stack.groups[0].crashed
        survivors = [g for g in stack.groups if not g.crashed]
        assert [g.is_leader() for g in survivors] == [True, False]
        assert stack.leader() is stack.groups[1].head

    def test_follower_shards_never_serialize(self):
        tls = [[10, 30], [20, 40]]
        _, _, stack = run_replicated_stabilization(tls, n_shards=2,
                                                   n_replicas=2)
        leader, follower = stack.groups
        assert leader.ops_stabilized == 4
        assert follower.ops_stabilized == 0
        assert all(s.announced == 0 for s in follower.shards)
        # ...but followers still pruned on gossip: nothing stable lingers.
        assert all(len(s.buffer) == 0 for s in follower.shards)

    def test_crashed_group_recovers_and_reclaims_leadership(self):
        """recover() must re-arm stab ticks + election (no zombie replica);
        the rejoined lowest-id group reclaims leadership, its stale
        re-ships dedup away, and the stream still matches K=1."""
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True,
                               replica_alive_interval=0.05,
                               replica_suspect_timeout=0.16)

        def collect(cfg, crash_recover):
            rig = build_eunomia_rig(4, config=cfg, seed=33)
            rig.sink.record = True
            if crash_recover:
                rig.env.loop.schedule_at(0.15, rig.groups[0].crash)
                rig.env.loop.schedule_at(0.45, rig.groups[0].recover)
            rig.run(0.8)
            for driver in rig.drivers:
                driver.stop()
            rig.env.run(until=rig.env.now + 0.8)
            return rig

        # Reference: the same FT config, no crash.  (A non-FT rig would
        # generate a different op count — FT uplinks pay transmit CPU per
        # replica, which slows the closed-loop drivers slightly.)
        reference = collect(config, False).sink.collected
        rig = collect(config, True)
        assert rig.groups[0].is_leader()       # lowest id reclaimed Ω
        assert not rig.groups[1].is_leader()
        assert rig.groups[0].head.merge_rounds > 0
        seen, deduped = set(), []
        for uid in rig.sink.collected:         # Alg. 5 dedup, first copy wins
            if uid not in seen:
                seen.add(uid)
                deduped.append(uid)
        assert deduped == reference

    def test_prune_floor_capped_at_shipped_stable_time(self):
        """A leader shard's floor may outrun the released StableTime while
        its popped ops sit in the merge queues; follower shards must keep
        exactly those ops (they die with the leader otherwise)."""
        env = Environment(seed=13)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True)
        leader = ShardCoordinator(env, "lead", 0, 2, config, replica_id=0)
        follower = ShardCoordinator(env, "follow", 0, 2, config,
                                    replica_id=1)
        leader.set_peers([leader, follower])
        follower.set_peers([leader, follower])
        fshards = [EunomiaShard(env, f"f-shard{s}", 0, 2, config,
                                shard_id=s, owned=[s])
                   for s in range(2)]
        for shard in fshards:
            shard.set_coordinator(follower)
        follower.set_shards(fshards)
        sink = Sink(env)
        leader.add_destination(sink)
        # The follower's shard 0 holds ops at 40 and 80.
        fshards[0].buffer.add(40, 0, 1, make_op(40, 0, seq=1))
        fshards[0].buffer.add(80, 0, 2, make_op(80, 0, seq=2))
        feeder = Process(env, "feeder")
        # Leader shard 0 announces floor 100 (ops 40 + 80 popped), shard 1
        # only 50 (op 45): global StableTime 50 releases 40 and 45; op 80
        # stays queued at the leader, unshipped.
        feeder.send(leader, ShardStableBatch(
            0, 100, (make_op(40, 0, seq=1), make_op(80, 0, seq=2))))
        feeder.send(leader, ShardStableBatch(1, 50, (make_op(45, 1, seq=1),)))
        env.run(until=0.05)
        assert [op.ts for op in sink.ops] == [40, 45]
        # Gossip pruned the follower's ts=40 but kept the unshipped ts=80.
        assert len(fshards[0].buffer) == 1
        assert min_ts(fshards[0].buffer) == 80
        assert fshards[0].stable_time == 50
        assert follower.stable_time == 50

    def test_the_prune_cap_test_kills_a_prune_above_the_shipped_floor(self):
        with MUTANTS["prune_above_shipped_floor"].applied():
            with pytest.raises(AssertionError):
                self.test_prune_floor_capped_at_shipped_stable_time()


# ----------------------------------------------------------------------
# End-to-end: rigs and geo deployments
# ----------------------------------------------------------------------
class TestShardedEndToEnd:
    @staticmethod
    def _drained_rig_sequence(n_shards):
        rig = build_eunomia_rig(8, config=EunomiaConfig(n_shards=n_shards),
                                seed=21)
        rig.sink.record = True
        rig.run(0.4)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 0.6)   # drain: heartbeats stabilize all
        return rig.sink.collected

    def test_rig_sequence_identical_across_shard_counts(self):
        """End-to-end determinism: same seed, same ops, K ∈ {1, 2, 4}."""
        reference = self._drained_rig_sequence(1)
        assert reference, "K=1 emitted nothing"
        for k in (2, 4):
            assert self._drained_rig_sequence(k) == reference, \
                f"K={k} diverged from K=1"

    def test_sharded_geo_system_converges_and_is_causal(self):
        config = EunomiaConfig(n_shards=2)
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
        dc = system.datacenters[0]
        assert len(dc.stack.shards) == 2
        (coordinator,) = dc.heads
        assert isinstance(coordinator, ShardCoordinator)
        assert coordinator.ops_stabilized > 0
        assert dc.leader() is coordinator

    def test_ft_sharded_geo_system_converges_and_is_causal(self):
        """Acceptance shape: n_shards=4 × n_replicas=3 runs end-to-end."""
        config = EunomiaConfig(n_shards=4, n_replicas=3, fault_tolerant=True)
        history = SessionHistory()
        system = build_geo_system(
            "eunomia",
            GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=3,
                          seed=15),
            WorkloadSpec(read_ratio=0.8, n_keys=60),
            config=config, history=history)
        system.run(3.0)
        system.quiesce(3.0)
        assert system.converged()
        assert CausalChecker(history).check() == []
        dc = system.datacenters[0]
        assert len(dc.replica_groups) == 3
        assert len(dc.stack.shards) == 12 and len(dc.heads) == 3
        assert dc.leader() is dc.replica_groups[0].head
        assert dc.replica_groups[0].ops_stabilized > 0
        # Followers never serialized, but their shards were pruned.
        for group in dc.replica_groups[1:]:
            assert group.ops_stabilized == 0

    def test_ft_sharded_geo_leader_crash_loses_and_duplicates_nothing(self):
        """Kill dc0's leading replica group mid-run: the survivors take
        over and every datacenter still converges causally — no stable op
        is lost, and the re-shipped overlap is deduplicated remotely."""
        config = EunomiaConfig(n_shards=2, n_replicas=3, fault_tolerant=True,
                               replica_alive_interval=0.25,
                               replica_suspect_timeout=0.8)
        history = SessionHistory()
        system = build_geo_system(
            "eunomia",
            GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=3,
                          seed=16),
            WorkloadSpec(read_ratio=0.8, n_keys=60),
            config=config, history=history)
        dc0 = system.datacenters[0]
        system.env.loop.schedule_at(1.5, dc0.replica_groups[0].crash)
        system.run(4.0)
        system.quiesce(4.0)
        assert dc0.replica_groups[0].crashed
        assert system.converged()
        assert CausalChecker(history).check() == []
        assert dc0.leader() is dc0.replica_groups[1].head
        assert dc0.replica_groups[1].ops_stabilized > 0
        # Exact accounting at every remote receiver: each op committed in
        # a remote DC applied exactly once (a duplicate apply would push
        # the count over, a lost op would leave it under).
        for dc in system.datacenters:
            expected = sum(p.local_updates
                           for other in system.datacenters
                           if other is not dc
                           for p in other.partitions)
            assert dc.receiver.applied == expected

    def test_gossip_loss_path_fires_dedup_end_to_end(self):
        """ShardStableVector gossip under intra-site message loss.

        The per-origin dedup at remote receivers is the safety net for
        prune gossip that never arrived: a follower that missed the
        leader's last vectors still holds (and, on failover, re-ships)
        ops the dead leader already delivered.  Dropping 80% of the
        coordinator↔coordinator traffic (gossip *and* Ω heartbeats, so
        spurious flaps can double-ship too) and then crashing the leader
        makes that path actually fire in an end-to-end run: duplicates
        reach the sink, and the deduplicated stream is still op-for-op
        the loss-free, crash-free serialization.
        """
        config = EunomiaConfig(n_shards=2, n_replicas=3, fault_tolerant=True,
                               replica_alive_interval=0.05,
                               replica_suspect_timeout=0.3)

        def collect(inject):
            rig = build_eunomia_rig(4, config=config, seed=91)
            rig.sink.record = True
            if inject:
                net = rig.env.network
                coordinators = [g.head for g in rig.groups]
                for a in coordinators:
                    for b in coordinators:
                        if a is not b:
                            net.set_link_loss(a, b, 0.8)
                rig.env.loop.schedule_at(0.4, rig.groups[0].crash)
            rig.run(0.9)
            for driver in rig.drivers:
                driver.stop()
            rig.env.run(until=rig.env.now + 0.8)
            return rig

        reference = collect(False).sink.collected
        rig = collect(True)
        raw = rig.sink.collected
        seen, deduped = set(), []
        for uid in raw:
            if uid not in seen:
                seen.add(uid)
                deduped.append(uid)
        # The loss made followers miss prune floors, so the failover
        # re-shipped a window the gossip would have pruned — the dedup
        # path demonstrably fired...
        assert len(raw) > len(deduped)
        # ...and absorbed it: same serialization as the healthy run.
        assert deduped == reference

    def test_single_shard_config_uses_plain_service(self):
        system = build_geo_system(
            "eunomia",
            GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=1,
                          seed=3),
            WorkloadSpec(), config=EunomiaConfig(n_shards=1))
        dc = system.datacenters[0]
        assert dc.stack.shards == [] and dc.stack.shard_map is None
        assert isinstance(dc.heads[0], EunomiaService)
