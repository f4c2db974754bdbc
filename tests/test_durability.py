"""Tests for the durability subsystem: WAL, checkpoints, crash recovery.

The load-bearing property: with ``durability="wal"``, an *amnesia* crash
(``crash(lose_state=True)`` — protocol state wiped, only the WAL and
checkpoints survive) of a leader replica/group, followed by a rejoin
(checkpoint + log-suffix replay, then peer state transfer, then re-entering
the Ω election), yields a deduplicated delivered stable stream op-for-op
identical to the crash-free run.  The hypothesis property checks it at
K ∈ {1, 4} × R ∈ {2, 3}.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutants import MUTANTS

from repro.calibration import Calibration
from repro.core import EunomiaConfig, build_stabilizer_stack
from repro.core.messages import AddOpBatch, PartitionHeartbeat
from repro.durability import (
    Checkpoint,
    CheckpointStore,
    RecoveryManager,
    WriteAheadLog,
)
from repro.harness.loadgen import build_eunomia_rig
from repro.sim import (
    ConstantLatency,
    DiskModel,
    Environment,
    FailureSchedule,
    Network,
    Process,
)
from repro.kvstore.types import ORDER_KEY, Update


def make_op(ts, partition=0, seq=None):
    return Update(key=f"k{ts}", value=None, origin_dc=0,
                  partition_index=partition,
                  seq=seq if seq is not None else ts,
                  ts=ts, vts=(ts,), commit_time=0.0)


class DedupSink(Process):
    """A remote sink with Algorithm 5's per-origin dedup (see
    ``tests/test_sharded_stabilization.py`` for the rationale)."""

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


def dedup_uids(collected):
    seen, out = set(), []
    for uid in collected:
        if uid not in seen:
            seen.add(uid)
            out.append(uid)
    return out


# ----------------------------------------------------------------------
# WAL unit behaviour
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_staged_records_are_volatile_until_commit(self):
        wal = WriteAheadLog("w", DiskModel(Calibration()))
        wal.stage_op(10, 0, 1, make_op(10))
        wal.stage_partition_time(1, 20)
        assert wal.staged == 2 and len(wal) == 0
        wal.lose_volatile()                     # amnesia before any fsync
        assert wal.staged == 0 and len(wal) == 0
        wal.stage_op(10, 0, 1, make_op(10))
        wal.commit()
        wal.lose_volatile()                     # committed records survive
        assert len(wal) == 1

    def test_flush_cost_covers_only_new_bytes(self):
        disk = DiskModel(Calibration(wal_fsync_us=1000.0, wal_byte_us=0.0))
        wal = WriteAheadLog("w", disk)
        wal.stage_op(10, 0, 1, make_op(10))
        assert wal.flush_cost() == pytest.approx(1e-3)
        # Nothing staged since the last scheduled flush: no second barrier.
        assert wal.flush_cost() == 0.0
        wal.stage_op(20, 0, 2, make_op(20))
        assert wal.flush_cost() == pytest.approx(1e-3)
        wal.commit()
        assert wal.flush_cost() == 0.0

    def test_a_partition_time_record_pins_its_delta_bytes(self):
        """A PartitionTime record is a tag byte, then the partition index
        and the timestamp delta as zigzag varints: a delta of −64 still
        fits one byte (zigzag 127), −65 does not, and −8192 fits two."""
        added = {}
        for delta in (-63, -64, -65, -8192, 63, 64):
            wal = WriteAheadLog("w", DiskModel(Calibration()))
            wal.stage_partition_time(1, 10_000)
            before = wal.unflushed_bytes
            wal.stage_partition_time(1, 10_000 + delta)
            added[delta] = wal.unflushed_bytes - before
        assert added == {-63: 3, -64: 3, -65: 4, -8192: 4, 63: 3, 64: 4}

    def test_truncate_drops_shipped_ops_and_all_pt_records(self):
        wal = WriteAheadLog("w", DiskModel(Calibration()))
        for ts in (10, 20, 30):
            wal.stage_op(ts, 0, ts, make_op(ts))
        wal.stage_partition_time(1, 40)
        wal.commit()
        assert wal.truncate(20) == 3            # ops 10, 20 + the PT record
        assert [r[1] for r in wal.records] == [30]

    def test_replay_rebuilds_partition_time_and_filters_floor(self):
        wal = WriteAheadLog("w", DiskModel(Calibration()))
        wal.stage_op(10, 0, 1, make_op(10))
        wal.stage_op(30, 0, 2, make_op(30, 0, 2))
        wal.stage_op(25, 1, 1, make_op(25, 1))
        wal.stage_partition_time(2, 50)
        wal.commit()
        partition_time = [0, 0, 0]
        entries = wal.replay(partition_time, floor_ts=10)
        assert partition_time == [30, 25, 50]
        assert [(e[0], e[1]) for e in entries] == [(30, 0), (25, 1)]


def _varint_len(value: int) -> int:
    """Bytes a zigzag varint encoding of ``value`` occupies (≥ 1): the
    reference the WAL's inline sizing is held to."""
    return ((~value if value < 0 else value).bit_length() + 7) // 7


def _zigzag_varint(value: int) -> bytes:
    """Reference encoder: zigzag, then 7 bits per byte, low group first,
    the high bit set on every byte but the last."""
    value = (-value << 1) - 1 if value < 0 else value << 1
    out = bytearray()
    while True:
        low, value = value & 0x7F, value >> 7
        if not value:
            out.append(low)
            return bytes(out)
        out.append(low | 0x80)


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.integers(-2**70, 2**70),
                       st.integers(-2**300, 2**300),
                       st.integers(0, 300).map(lambda k: 2**k),
                       st.integers(0, 300).map(lambda k: -2**k),
                       st.integers(0, 300).map(lambda k: 2**k - 1)))
def test_varint_len_is_the_encoded_length(value):
    """The WAL's byte count is the length of the record it stands for:
    negative deltas, the 7-bit boundaries and values past 2**63 included."""
    assert _varint_len(value) == len(_zigzag_varint(value))


#: negative deltas, every 7-bit boundary from 2**7 to 2**70 (each side),
#: and values past 2**63
_FIELD = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(1, 10).map(lambda k: 2**(7 * k)),
    st.integers(1, 10).map(lambda k: 2**(7 * k) - 1),
    st.integers(1, 10).map(lambda k: -2**(7 * k)),
    st.integers(1, 10).map(lambda k: -2**(7 * k) - 1),
    st.integers(2**63, 2**80))
#: one staging call: a ``stage_ops`` run of ``(ts, origin, seq)`` or a
#: ``stage_partition_time(index, ts)``
_CALLS = st.lists(
    st.one_of(st.lists(st.tuples(_FIELD, _FIELD, _FIELD), min_size=1,
                       max_size=4),
              st.tuples(_FIELD, _FIELD)),
    max_size=8)


def _staged_sizes(calls):
    """The staged byte count after each call, and the per-field
    ``_varint_len`` sum the codec defines for it: tag (+ digest) bytes,
    then each field, the timestamp delta-encoded against the previous
    staged record."""
    wal = WriteAheadLog("w", DiskModel(Calibration()))
    staged, expected = [], []
    total = last = 0
    for call in calls:
        if isinstance(call, list):
            wal.stage_ops([(ts, origin, seq, None)
                           for ts, origin, seq in call])
            for ts, origin, seq in call:
                total += (1 + 8 + _varint_len(ts - last)
                          + _varint_len(origin) + _varint_len(seq))
                last = ts
        else:
            index, ts = call
            wal.stage_partition_time(index, ts)
            total += 1 + _varint_len(index) + _varint_len(ts - last)
            last = ts
        staged.append(wal.unflushed_bytes)
        expected.append(total)
    return staged, expected


@settings(max_examples=100, deadline=None)
@given(calls=_CALLS)
def test_staged_bytes_are_the_per_field_varint_sum(calls):
    """``stage_ops`` and ``stage_partition_time`` size their records inline;
    what they stage is, record for record, the tag and digest bytes plus
    each field's ``_varint_len`` with the timestamp delta-encoded against
    the previous staged record."""
    staged, expected = _staged_sizes(calls)
    assert staged == expected


def test_the_staging_oracle_kills_a_pt_size_without_zigzag():
    """``delta`` for ``~delta`` sizes a negative heartbeat delta by its
    magnitude: -64 takes two bytes instead of one."""
    with MUTANTS["wal_pt_size_drops_zigzag"].applied():
        staged, expected = _staged_sizes([[(100, 0, 1)], (0, 36)])
        assert staged != expected


class TestCheckpointStore:
    def test_latest_wins(self):
        store = CheckpointStore("c")
        store.write(Checkpoint((1, 2), 1, 0.1))
        store.write(Checkpoint((3, 4), 3, 0.2))
        assert store.latest.partition_time == (3, 4)
        assert store.latest.floor == 3
        assert store.writes == 2


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestDurabilityConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="durability"):
            EunomiaConfig(durability="fsync-maybe").validate()

    def test_intervals_validated(self):
        with pytest.raises(ValueError, match="checkpoint"):
            EunomiaConfig(checkpoint_interval=0.0).validate()
        with pytest.raises(ValueError, match="state transfer"):
            EunomiaConfig(state_transfer_timeout=0.0).validate()

    def test_stack_attaches_durable_media_to_every_stabilizer(self):
        env = Environment(seed=1)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True,
                               durability="wal")
        stack = build_stabilizer_stack(env, 0, 4, config)
        assert stack.recovery is not None
        assert all(s.wal is not None and s.checkpoints is not None
                   for s in stack.shards)
        # Coordinators hold no durable state (rebuilt from their shards).
        assert all(getattr(c, "wal", None) is None
                   for c in stack.heads)
        assert all(g.recovery is stack.recovery for g in stack.groups)

    def test_amnesia_recover_without_durability_raises(self):
        env = Environment(seed=2)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True)
        stack = build_stabilizer_stack(env, 0, 4, config)
        group = stack.groups[0]
        group.crash(lose_state=True)
        with pytest.raises(RuntimeError, match="durability"):
            group.recover()


# ----------------------------------------------------------------------
# Ack-after-fsync: an acked op is always recoverable
# ----------------------------------------------------------------------
class TestAckDurability:
    def _shard_stack(self):
        env = Environment(seed=3)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True,
                               durability="wal", checkpoint_interval=0.05)
        stack = build_stabilizer_stack(env, 0, 4, config)
        for proc in stack.processes():
            proc.start()
        return env, stack

    def test_ack_implies_durability(self):
        """Every op covered by an emitted BatchAck survives an amnesia
        crash: acks ride the disk lane behind the WAL flush."""
        acked = []

        class AckProbe(AckFeeder):
            def on_batch_ack(self, msg, src):
                acked.append((src, msg.ack_ts))

        env, stack = self._shard_stack()
        feeder = AckProbe(env, "feeder")
        for target in stack.uplink_targets(0):
            feeder.send(target, AddOpBatch(0, (make_op(100, 0, 1),)))
        env.run(until=0.02)
        assert acked and all(ts == 100 for _, ts in acked)
        shard = stack.groups[0].shards[0]
        shard.crash(lose_state=True)
        # The staged record was committed before the ack left the shard.
        partition_time = [0, 0, 0, 0]
        entries = shard.wal.replay(partition_time, floor_ts=0)
        assert partition_time[0] == 100
        assert [(e[0], e[1], e[2]) for e in entries] == [(100, 0, 1)]

    def test_the_ack_test_kills_ack_before_fsync(self):
        """An ack sent without the commit leaves the acked op staged, and
        the amnesia crash loses it."""
        self.test_ack_implies_durability()
        with MUTANTS["ack_before_fsync"].applied():
            with pytest.raises(AssertionError):
                self.test_ack_implies_durability()

    def test_heartbeat_advances_are_staged_not_flushed(self):
        env, stack = self._shard_stack()
        feeder = AckFeeder(env, "feeder")
        shard = stack.groups[0].shards[0]
        feeder.send(shard, PartitionHeartbeat(0, 500))
        env.run(until=0.01)
        assert shard.partition_time[0] == 500
        assert shard.wal.staged == 1        # no fsync of its own
        shard.crash(lose_state=True)
        assert shard.wal.staged == 0        # lost with the crash — safe


# ----------------------------------------------------------------------
# Checkpoint floor: shipped, never the shard's own running floor
# ----------------------------------------------------------------------
def test_checkpoint_floor_capped_at_shipped_stable_time():
    """A leader shard's announced floor runs ahead of the shipped stream
    while popped ops wait in the coordinator's merge queues; truncating
    the WAL at that optimistic floor would destroy exactly the ops a
    crash loses.  The durable floor must stay at what was shipped."""
    env = Environment(seed=4)
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True,
                           durability="wal")
    stack = build_stabilizer_stack(env, 0, 4, config)
    sink = DedupSink(env)
    for propagator in stack.propagators():
        propagator.add_destination(sink)
    for proc in stack.processes():
        proc.start()
    feeder = AckFeeder(env, "feeder")
    # Shard 0 (partitions 0, 2) sees ops at 40 and 80 and its partitions
    # heartbeat to 100; shard 1 (partitions 1, 3) only reaches 50 — the
    # released StableTime is 50, so ts=80 is popped but never shipped.
    def feed(p, msg):
        for target in stack.uplink_targets(p):
            feeder.send(target, msg)
    feed(0, AddOpBatch(0, (make_op(40, 0, 1), make_op(80, 0, 2))))
    feed(1, AddOpBatch(1, (make_op(45, 1, 1),)))
    feed(0, PartitionHeartbeat(0, 100))
    feed(2, PartitionHeartbeat(2, 100))
    feed(1, PartitionHeartbeat(1, 50))
    feed(3, PartitionHeartbeat(3, 50))
    env.run(until=0.3)   # several stabilization + checkpoint intervals
    assert [op.ts for op in sink.ops] == [40, 45]
    leader_shard = stack.groups[0].shards[0]
    assert leader_shard.announced == 100          # optimistic floor
    assert leader_shard._durable_floor() == 50    # shipped floor
    assert leader_shard.checkpoints.latest.floor == 50
    # ts=80 must still be recoverable from the WAL after truncations.
    entries = leader_shard.wal.replay([0, 0, 0, 0], floor_ts=50)
    assert [e[0] for e in entries] == [80]


def test_plain_checkpoint_keeps_popped_but_unshipped_ops():
    """A plain stabilizer pops a stable run in one round and ships it from
    a later lane slot.  A checkpoint taken in between must record the
    shipped floor, not StableTime, or its truncation drops the run an
    amnesia crash before the ship would then lose."""
    env = Environment(seed=4)
    Network(env, ConstantLatency(0.0001))
    stack = build_stabilizer_stack(env, 0, 1, EunomiaConfig(durability="wal"))
    service, = stack.heads
    sink = DedupSink(env)
    service.add_destination(sink)
    feeder = AckFeeder(env, "feeder")
    feeder.send(service, AddOpBatch(0, (make_op(40), make_op(80))))
    feeder.send(service, PartitionHeartbeat(0, 100))
    env.run(until=0.01)                 # ingested and logged, never started
    service._stabilize()                # pops both; the ship is queued
    assert (service.stable_time, service.shipped_stable) == (100, 0)
    service._checkpoint_tick()
    env.run(until=0.02)
    assert [op.ts for op in sink.ops] == [40, 80]
    assert service.checkpoints.latest.floor == 0
    assert [e[0] for e in service.wal.replay([0], floor_ts=0)] == [40, 80]


def test_the_floor_test_kills_checkpoint_above_shipped_floor():
    with MUTANTS["checkpoint_above_shipped_floor"].applied():
        with pytest.raises(AssertionError):
            test_plain_checkpoint_keeps_popped_but_unshipped_ops()


# ----------------------------------------------------------------------
# Amnesia crash + rejoin: op-for-op identical delivered stream
# ----------------------------------------------------------------------
@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.004)
def run_reference(ts_by_partition, batch_size=3):
    """K=1 single-stabilizer serialization of fixed per-partition timelines
    (the canonical reference, as in test_sharded_stabilization)."""
    from repro.core import EunomiaService

    env = Environment(seed=42)
    Network(env, ConstantLatency(0.0001))
    n_parts = len(ts_by_partition)
    config = EunomiaConfig()
    sink = DedupSink(env)
    service = EunomiaService(env, "eunomia", 0, n_parts, config)
    service.add_destination(sink)
    service.start()
    feeder = Process(env, "feeder")
    top = 0
    for p, ts_list in enumerate(ts_by_partition):
        ops = [make_op(ts, p, seq=i + 1) for i, ts in enumerate(ts_list)]
        prev = 0
        for i in range(0, len(ops), batch_size):
            chunk = ops[i:i + batch_size]
            feeder.send(service, AddOpBatch(p, tuple(chunk), prev_ts=prev))
            prev = chunk[-1].ts
        if ts_list:
            top = max(top, ts_list[-1])
    for p in range(n_parts):
        feeder.send(service, PartitionHeartbeat(p, top + 1))
    env.run(until=1.0)
    return [op.uid for op in sink.ops]


@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.004)
def run_amnesia_rejoin(ts_by_partition, n_shards, n_replicas, batch_size=3):
    """Feed fixed timelines into an Alg. 4 × K deployment with
    ``durability="wal"``; amnesia-crash the leader mid-feed, rejoin it
    after the interim leader has shipped, re-feed every chunk (the
    uplink's at-least-once retransmission, collapsed), and return the
    deduplicated delivered order plus the stack."""
    env = Environment(seed=42)
    Network(env, ConstantLatency(0.0001))
    n_parts = len(ts_by_partition)
    config = EunomiaConfig(n_shards=n_shards, n_replicas=n_replicas,
                           fault_tolerant=True, durability="wal",
                           checkpoint_interval=0.02,
                           state_transfer_timeout=0.1,
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

    per_part, top = [], 0
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
    chunks = []
    for round_i in range(max((len(e) for e in per_part), default=0)):
        for p, entries in enumerate(per_part):
            if round_i < len(entries):
                chunks.append((p, *entries[round_i]))

    half = len(chunks) // 2
    for p, chunk, prev in chunks[:half]:
        feed(p, chunk, prev)
    # Let the leader commit WAL records, checkpoint, and ship a prefix —
    # then wipe it.
    env.run(until=0.06)
    unit = stack.crash_units()[0]
    unit.crash(lose_state=True)
    # Feed the rest while it is down; the interim leader ships it.
    for p, chunk, prev in chunks[half:]:
        feed(p, chunk, prev)
    env.run(until=0.3)
    unit.recover()
    # At-least-once delivery: replay every chunk (what the uplink's
    # retransmission machinery does for a live rejoiner); survivors
    # deduplicate via PartitionTime, the rejoiner backfills its gaps.
    for p, chunk, prev in chunks:
        feed(p, chunk, prev)
    for p in range(n_parts):
        beat = PartitionHeartbeat(p, top + 1)
        for target in stack.uplink_targets(p):
            feeder.send(target, beat)
    env.run(until=1.2)
    return [op.uid for op in sink.ops], sink, stack


timelines = st.lists(
    st.lists(st.integers(min_value=1, max_value=500),
             min_size=0, max_size=24),
    min_size=4, max_size=8,
).map(lambda per_part: [sorted(set(ts)) for ts in per_part])


class TestAmnesiaRejoinEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(timelines=timelines,
           shape=st.sampled_from([(1, 2), (1, 3), (4, 2), (4, 3)]))
    def test_rejoined_output_identical_to_crash_free_run(
            self, timelines, shape):
        """Recovery invariant: the deduplicated stable stream with an
        amnesia crash + rejoin of the leader equals the crash-free K=1
        serialization, at K ∈ {1, 4} × R ∈ {2, 3}."""
        n_shards, n_replicas = shape
        reference = run_reference(timelines)
        uids, _, _ = run_amnesia_rejoin(timelines, n_shards, n_replicas)
        assert uids == reference

    def test_rejoined_group_reclaims_leadership_with_correct_floor(self):
        tls = [[10, 30, 50, 70, 90], [20, 40, 60, 80],
               [15, 35, 55, 75], [25, 45, 65, 85]]
        uids, sink, stack = run_amnesia_rejoin(tls, n_shards=4, n_replicas=3)
        assert uids == run_reference(tls)
        group = stack.groups[0]
        assert group.is_leader()               # lowest id reclaimed Ω
        assert not group.head._rejoining
        # Restores actually happened, from durable state.
        reports = stack.recovery.reports
        assert [r.name for r in reports] == [s.name for s in group.shards]
        # Each shard came back from durable state: a checkpoint, a log
        # suffix, or both (a freshly-truncated log can be legally empty).
        assert all(r.had_checkpoint or r.records_replayed > 0
                   for r in reports)
        # The adopted floor came from the survivors' shipped vector, not
        # the stale checkpoint: nothing below it was re-shipped into the
        # sink twice without being dropped.
        assert sink.ops == sorted(sink.ops, key=ORDER_KEY)


# ----------------------------------------------------------------------
# End-to-end on the §7.1 rig (real uplinks, retransmission, acks)
# ----------------------------------------------------------------------
class TestRigAmnesiaRejoin:
    @staticmethod
    def _collect(config, crash, seed=33, run_for=0.8, drain=0.8,
                 crash_at=0.15, rejoin_at=0.45):
        rig = build_eunomia_rig(4, config=config, seed=seed)
        rig.sink.record = True
        if crash:
            unit = rig.groups[0]
            rig.env.loop.schedule_at(
                crash_at, lambda: unit.crash(lose_state=True))
            rig.env.loop.schedule_at(rejoin_at, unit.recover)
        rig.run(run_for)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + drain)
        return rig

    def test_sharded_group_amnesia_rejoin_end_to_end(self):
        """The acceptance drill in miniature: amnesia crash + rejoin of a
        sharded leader group under live uplink traffic (real acks and
        retransmissions) leaves the deduplicated stream identical."""
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True,
                               durability="wal", checkpoint_interval=0.1,
                               replica_alive_interval=0.05,
                               replica_suspect_timeout=0.16,
                               state_transfer_timeout=0.2)
        reference = self._collect(config, False).sink.collected
        rig = self._collect(config, True)
        assert rig.groups[0].is_leader()
        assert dedup_uids(rig.sink.collected) == reference

    def test_crash_during_transfer_window_rejoins_on_retry(self, n_shards=1):
        """A crash that interrupts the state-transfer window must not
        strand the replica: the epoch bump killed the pending transfer
        timeout, so the next recover() has to re-drive the handshake (a
        stuck ``_rejoining`` would silently keep the replica out of the
        election forever)."""
        config = EunomiaConfig(n_replicas=3, fault_tolerant=True,
                               n_shards=n_shards,
                               durability="wal", checkpoint_interval=0.1,
                               replica_alive_interval=0.05,
                               replica_suspect_timeout=0.16,
                               state_transfer_timeout=0.2)
        rig = build_eunomia_rig(4, config=config, seed=33)
        loop = rig.env.loop
        unit = rig.groups[0]
        loop.schedule_at(0.15, lambda: unit.crash(lose_state=True))
        # Take every peer down, so the transfer window at 0.45 has nobody
        # to answer it — then crash the rejoiner inside that window.
        loop.schedule_at(0.40, rig.groups[1].crash)
        loop.schedule_at(0.40, rig.groups[2].crash)
        loop.schedule_at(0.45, unit.recover)
        loop.schedule_at(0.50, unit.crash)          # plain crash-stop
        loop.schedule_at(0.80, unit.recover)
        loop.schedule_at(0.85, rig.groups[1].recover)
        loop.schedule_at(0.85, rig.groups[2].recover)
        rig.run(2.0)
        assert not unit.head._rejoining
        assert unit.is_leader()

    def test_crash_during_transfer_window_rejoins_on_retry_sharded(self):
        """The same schedule against K=2 groups: one rejoin path."""
        self.test_crash_during_transfer_window_rejoins_on_retry(n_shards=2)

    def test_k1_replica_amnesia_rejoin_end_to_end(self):
        config = EunomiaConfig(n_replicas=3, fault_tolerant=True,
                               durability="wal", checkpoint_interval=0.1,
                               replica_alive_interval=0.05,
                               replica_suspect_timeout=0.16,
                               state_transfer_timeout=0.2)
        reference = self._collect(config, False).sink.collected
        rig = self._collect(config, True)
        assert rig.groups[0].is_leader()
        assert dedup_uids(rig.sink.collected) == reference


# ----------------------------------------------------------------------
# Partial-group failures: one shard, not the whole pipeline
# ----------------------------------------------------------------------
class TestPartialGroupFailure:
    CONFIG = dict(n_shards=2, n_replicas=2, fault_tolerant=True,
                  replica_alive_interval=0.05, replica_suspect_timeout=0.16)

    @staticmethod
    def _collect(config, schedule_fn=None, seed=55):
        rig = build_eunomia_rig(4, config=config, seed=seed)
        rig.sink.record = True
        if schedule_fn is not None:
            schedule = FailureSchedule(rig.env)
            schedule_fn(schedule, rig)
            schedule.arm()
        rig.run(0.9)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 0.8)
        return rig

    def test_single_shard_crash_stalls_coordinator_then_resumes(self):
        """Killing one EunomiaShard of the leader group stalls the whole
        site's stable output (min over ShardStableTime stops moving; no
        failover — the Ω election watches coordinators), and the shard's
        rejoin resumes it with an unchanged serialization."""
        config = EunomiaConfig(**self.CONFIG)
        reference = self._collect(config).sink.collected

        def schedule(sched, rig):
            sched.crash_shard_at(0.15, rig.groups[0], 1)
            sched.recover_shard_at(0.5, rig.groups[0], 1)

        rig = self._collect(config, schedule)
        marks = rig.metrics.mark_times("eunomia_stable:dc0")
        # Stalled: nothing went stable between the crash (plus the
        # in-flight slack) and the shard's rejoin.
        assert not [t for t in marks if 0.2 <= t <= 0.5]
        # ...but output flowed again afterwards,
        assert [t for t in marks if t > 0.55]
        # with no failover (the group's coordinator never lost the lease),
        assert rig.groups[0].is_leader()
        assert not rig.groups[1].ops_stabilized
        # and the delivered stream is unchanged.
        assert dedup_uids(rig.sink.collected) == reference

    def test_single_shard_amnesia_rejoin_restores_from_wal(self):
        config = EunomiaConfig(durability="wal", checkpoint_interval=0.1,
                               **self.CONFIG)
        reference = self._collect(config).sink.collected

        def schedule(sched, rig):
            sched.crash_shard_at(0.15, rig.groups[0], 1, lose_state=True)
            sched.recover_shard_at(0.5, rig.groups[0], 1)

        rig = self._collect(config, schedule)
        shard = rig.groups[0].shards[1]
        assert not shard.state_lost
        reports = rig.groups[0].recovery.reports
        assert [r.name for r in reports] == [shard.name]
        # The live coordinator's shipped floor raised the recovery floor.
        assert reports[0].floor >= rig.groups[0].head.shipped_floors[1] \
            or reports[0].floor > 0
        assert dedup_uids(rig.sink.collected) == reference

    def test_amnesia_shard_recover_without_durability_raises(self):
        env = Environment(seed=6)
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(n_shards=2, n_replicas=2, fault_tolerant=True)
        stack = build_stabilizer_stack(env, 0, 4, config)
        group = stack.groups[0]
        group.crash_shard(0, lose_state=True)
        with pytest.raises(RuntimeError, match="durability"):
            group.recover_shard(0)
