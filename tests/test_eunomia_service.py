"""Tests for the Eunomia service (Algorithm 3) and the partition uplink."""

from unittest import mock

import pytest
import test_replica_ft
from mutants import MUTANTS

from repro.core import EunomiaConfig, EunomiaService
from repro.core.messages import AddOpBatch, PartitionHeartbeat, StableAnnounce
from repro.kvstore.types import Update
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network, Process


def make_op(ts, partition=0, seq=None, dc=0):
    return Update(key=f"k{ts}", value=None, origin_dc=dc,
                  partition_index=partition, seq=seq if seq is not None else ts,
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


@pytest.fixture
def service_env():
    return _service_env()


@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.01)
def _service_env():
    env = Environment(seed=5)
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    service = EunomiaService(env, "eunomia", 0, n_partitions=3, config=config,
                             metrics=MetricsHub())
    sink = Sink(env)
    service.add_destination(sink)
    service.start()
    return env, service, sink


class Feeder(Process):
    """Driver that injects batches/heartbeats into the service."""

    def __init__(self, env):
        super().__init__(env, "feeder")


def test_stable_time_is_min_partition_time(service_env):
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(0, (make_op(100, 0),)))
    feeder.send(service, AddOpBatch(1, (make_op(200, 1),)))
    # partition 2 silent: PartitionTime[2] == 0, nothing stabilizes
    env.run(until=0.1)
    assert service.stable_time == 0
    assert sink.ops == []
    feeder.send(service, PartitionHeartbeat(2, 150))
    env.run(until=0.2)
    # min(PartitionTime) = min(100, 200, 150) = 100
    assert service.stable_time == 100
    assert [op.ts for op in sink.ops] == [100]


def test_ops_emitted_in_timestamp_order(service_env):
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(0, (make_op(10, 0, 1), make_op(30, 0, 2))))
    feeder.send(service, AddOpBatch(1, (make_op(20, 1, 1), make_op(40, 1, 2))))
    feeder.send(service, AddOpBatch(2, (make_op(50, 2, 1),)))
    env.run(until=0.1)
    assert [op.ts for op in sink.ops] == [10, 20, 30]
    assert service.stable_time == 30  # min(30, 40, 50)


def test_equal_timestamps_break_ties_by_partition(service_env):
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(1, (make_op(10, 1),)))
    feeder.send(service, AddOpBatch(0, (make_op(10, 0),)))
    feeder.send(service, AddOpBatch(2, (make_op(10, 2),)))
    env.run(until=0.1)
    assert [(op.ts, op.partition_index) for op in sink.ops] == [
        (10, 0), (10, 1), (10, 2)]


def test_duplicate_ops_are_filtered(service_env):
    env, service, sink = service_env
    feeder = Feeder(env)
    batch = AddOpBatch(0, (make_op(10, 0, 1), make_op(20, 0, 2)))
    feeder.send(service, batch)
    feeder.send(service, batch)  # at-least-once duplicate
    feeder.send(service, AddOpBatch(1, (make_op(99, 1),)))
    feeder.send(service, AddOpBatch(2, (make_op(99, 2),)))
    env.run(until=0.1)
    assert [op.ts for op in sink.ops] == [10, 20]
    assert service.buffer.total_added == 4  # 2 + the two 99s


def test_frame_after_a_lost_frame_is_refused(service_env):
    """A frame whose ``prev_ts`` is above PartitionTime follows a lost one:
    it is dropped whole, so PartitionTime never passes an op the service
    did not see (the prefix property)."""
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(0, (make_op(10, 0, 1),)))
    # the frame holding seq 2 (ts 20) was lost
    feeder.send(service, AddOpBatch(0, (make_op(30, 0, 3),), prev_ts=20))
    feeder.send(service, AddOpBatch(1, (make_op(99, 1),)))
    feeder.send(service, AddOpBatch(2, (make_op(99, 2),)))
    env.run(until=0.1)
    assert service.gap_frames_dropped == 1
    assert service.partition_time[0] == 10
    assert [op.ts for op in sink.ops] == [10]


def test_a_frame_out_of_timestamp_order_is_refused(service_env):
    """The unstable set checks the ingestion contract: a frame whose ops
    do not ascend (a FIFO/Property-2 violation upstream) fails loudly at
    ingest instead of entering the buffer out of order."""
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(0, (make_op(30, 0, 1), make_op(20, 0, 2))))
    with pytest.raises(ValueError, match="non-monotone insert"):
        env.run(until=0.1)
    assert len(service.buffer) == 0


def test_ops_at_or_below_stable_time_only_advance_partition_time(service_env):
    """StableTime pruned to an announced floor of 20 — a follower's state,
    ahead of PartitionTime — then a frame that straddles it: 10 and 20
    were shipped already, so they only advance PartitionTime; 30 alone
    enters the buffer, and nothing is shipped again."""
    env, service, sink = service_env
    feeder = Feeder(env)
    feeder.send(service, StableAnnounce(20))
    feeder.send(service, AddOpBatch(0, tuple(make_op(ts, 0) for ts in
                                             (10, 20, 30))))
    env.run(until=0.1)
    assert service.partition_time[0] == 30
    assert service.buffer.total_added == 1
    assert sink.ops == []


def test_heartbeat_never_regresses_partition_time(service_env):
    env, service, _ = service_env
    feeder = Feeder(env)
    feeder.send(service, PartitionHeartbeat(0, 500))
    feeder.send(service, PartitionHeartbeat(0, 400))  # stale
    env.run(until=0.05)
    assert service.partition_time[0] == 500


def test_stabilization_marks_throughput(service_env):
    env, service, sink = service_env
    feeder = Feeder(env)
    for p in range(3):
        feeder.send(service, AddOpBatch(p, (make_op(10 + p, p),)))
    env.run(until=0.1)
    marks = service.metrics.mark_times(service.stable_mark)
    assert len(marks) == len(sink.ops) == 1  # only min is stable


def test_batch_cost_skips_duplicate_prefix():
    env = Environment(seed=1)
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    service = EunomiaService(env, "e", 0, 1, config,
                             insert_op_cost=1.0, batch_cost=0.5)
    ops = tuple(make_op(t, 0, t) for t in (1, 2, 3, 4))
    assert service._batch_cost_of(AddOpBatch(0, ops)) == pytest.approx(4.5)
    service.partition_time[0] = 2
    assert service._batch_cost_of(AddOpBatch(0, ops)) == pytest.approx(2.5)
    service.partition_time[0] = 100
    assert service._batch_cost_of(AddOpBatch(0, ops)) == pytest.approx(0.5)


@mock.patch.object(EunomiaConfig, "stabilization_interval", 0.01)
def test_multiple_destinations_each_get_the_stream():
    env = Environment(seed=2)
    Network(env, ConstantLatency(0.0001))
    service = EunomiaService(env, "e", 0, 1, EunomiaConfig())
    sinks = [Sink(env), Sink(env)]
    for sink in sinks:
        service.add_destination(sink)
    service.start()
    feeder = Feeder(env)
    feeder.send(service, AddOpBatch(0, (make_op(5),)))
    env.run(until=0.05)
    assert [op.ts for op in sinks[0].ops] == [5]
    assert [op.ts for op in sinks[1].ops] == [5]


# ----------------------------------------------------------------------
# The ingest guards have teeth: each seeded fault of ``on_add_op_batch``
# fails the test named beside it — an assertion, or the run buffer's
# FIFO guard (``ValueError``) when a duplicate reaches it.
# ----------------------------------------------------------------------

def _ft_pipeline_with_loss():
    with pytest.MonkeyPatch.context() as monkeypatch:
        test_replica_ft.test_end_to_end_ft_pipeline_with_loss(
            Environment(seed=1234), monkeypatch)


@pytest.mark.parametrize("mutant, must_fail", [
    ("dedup_skipped_on_retransmit",
     lambda: test_duplicate_ops_are_filtered(_service_env())),
    ("gap_frame_accepted",
     lambda: test_frame_after_a_lost_frame_is_refused(_service_env())),
    ("gap_frame_accepted", _ft_pipeline_with_loss),
], ids=["dedup_skipped_on_retransmit-test_duplicate_ops_are_filtered",
        "gap_frame_accepted-test_frame_after_a_lost_frame_is_refused",
        "gap_frame_accepted-test_end_to_end_ft_pipeline_with_loss"])
def test_the_ingest_guards_kill_each_seeded_fault(mutant, must_fail):
    must_fail()
    with MUTANTS[mutant].applied():
        with pytest.raises((AssertionError, ValueError)):
            must_fail()


def test_the_buffer_cut_kills_stable_prefix_enters_buffer():
    """The buffer is fed from the StableTime cut: fed from the
    PartitionTime cut instead, it buffers ops already shipped, and the
    next round ships them again."""
    test_ops_at_or_below_stable_time_only_advance_partition_time(
        _service_env())
    with MUTANTS["stable_prefix_enters_buffer"].applied():
        with pytest.raises(AssertionError):
            test_ops_at_or_below_stable_time_only_advance_partition_time(
                _service_env())


def test_the_stable_cut_kills_stable_cut_one_tick_high():
    """Ops at 10, 11 and 12 from three partitions: only 10 is stable.  A
    cut one tick above min(PartitionTime) ships 11 too."""
    test_stabilization_marks_throughput(_service_env())
    with MUTANTS["stable_cut_one_tick_high"].applied():
        with pytest.raises(AssertionError):
            test_stabilization_marks_throughput(_service_env())
