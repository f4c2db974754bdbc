"""The reliable stream's rule, both halves together (Alg. 4 l.1–6).

An uplink's :class:`~repro.core.stream.ReliableStream` ships to replicas
that keep only what the receive half accepts (``accepted_from`` keyed by
``ts``) and acknowledge the highest position they hold.  Under any finite
stretch of frame and ack loss, every replica ends up holding every
recorded op exactly once, in order, and the sender prunes the whole run.
"""

from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutants import MUTANTS
from test_uplink import Host, make_op

from repro.core import EunomiaConfig
from repro.core.messages import BatchAck
from repro.core.stream import GAP, ReliableStream
from repro.sim import ConstantLatency, Environment, Network, Process

_TS = attrgetter("ts")


class PrefixReplica(Process):
    """Holds the contiguous prefix of one partition's stream and acks it."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.held = []

    def on_add_op_batch(self, msg, src):
        floor = self.held[-1].ts if self.held else 0
        lo = ReliableStream.accepted_from(msg.ops, floor, msg.prev_ts, _TS)
        if lo != GAP:
            self.held.extend(msg.ops[lo:])
        self.send(src, BatchAck(msg.partition_index,
                                self.held[-1].ts if self.held else 0))

    def on_partition_heartbeat(self, msg, src):
        pass


def _stream(env, n_replicas):
    net = Network(env, ConstantLatency(0.0001))
    host = Host(env, EunomiaConfig(fault_tolerant=True,
                                   n_replicas=n_replicas))
    replicas = [PrefixReplica(env, f"r{i}") for i in range(n_replicas)]
    host.uplink.set_replicas(replicas)
    host.uplink.start()
    return net, host, replicas


def _record(host, log):
    op = make_op(host)
    log.append(op)
    host.uplink.record(op)


#: (replica, direction, start ms, length ms): a stretch in which every
#: frame to that replica, or every ack from it, is lost
_OUTAGES = st.lists(st.tuples(st.integers(0, 1), st.booleans(),
                              st.integers(0, 40), st.integers(1, 80)),
                    max_size=3)


@settings(max_examples=25, deadline=None)
@given(n_replicas=st.integers(1, 2),
       op_ms=st.lists(st.integers(0, 50), min_size=1, max_size=30),
       outages=_OUTAGES)
@example(n_replicas=2, op_ms=[0, 1, 2, 5, 20, 40],
         outages=[(1, True, 0, 10), (0, False, 30, 80)])
def test_every_op_is_held_once_in_order_after_loss(n_replicas, op_ms,
                                                   outages):
    env = Environment(seed=7)
    net, host, replicas = _stream(env, n_replicas)
    log = []
    for ms in sorted(op_ms):
        env.loop.schedule_at(ms / 1000 + 0.0005, _record, host, log)
    for which, frames, start, length in outages:
        replica = replicas[which % n_replicas]
        src, dst = (host, replica) if frames else (replica, host)
        env.loop.schedule_at(start / 1000, net.set_link_loss, src, dst, 1.0)
        env.loop.schedule_at((start + length) / 1000, net.set_link_loss,
                             src, dst, 0.0)
    env.run(until=1.0)
    for replica in replicas:
        assert [op.uid for op in replica.held] == [op.uid for op in log]
    assert host.uplink.pending_count() == 0


@pytest.mark.parametrize("mutant", [
    "dedup_skipped_on_retransmit", "gap_frame_accepted",
    "receiver_reenqueues_last_key", "resend_skips_acked_floor",
    "prune_at_fastest_replica"])
def test_the_stream_property_kills_each_seeded_fault(mutant):
    """The explicit example loses frames to one replica while the other
    acks, then, for longer than the stall timeout, the other's acks (so a
    window it holds is resent): each seeded fault of either half loses or
    repeats an op."""
    case = dict(n_replicas=2, op_ms=[0, 1, 2, 5, 20, 40],
                outages=[(1, True, 0, 10), (0, False, 30, 80)])
    test_every_op_is_held_once_in_order_after_loss.hypothesis.inner_test(
        **case)
    with MUTANTS[mutant].applied():
        with pytest.raises((AssertionError, ValueError)):
            test_every_op_is_held_once_in_order_after_loss.hypothesis \
                .inner_test(**case)


def test_a_lost_frame_is_resent_while_new_frames_flow():
    """The stall timer covers the *oldest* unacknowledged frame: a tick
    that ships new ops does not postpone the resend of a lost one, so
    the replica holds the first op one stall timeout after the loss,
    while ops are still being recorded."""
    env = Environment(seed=7)
    net, host, (replica,) = _stream(env, 1)
    log = []
    for ms in range(200):
        env.loop.schedule_at(ms / 1000 + 0.0005, _record, host, log)
    net.set_link_loss(host, replica, 1.0)
    env.run(until=0.0015)                  # the first frame is lost
    net.set_link_loss(host, replica, 0.0)
    env.run(until=0.1)
    assert replica.held and replica.held[0].uid == log[0].uid
    assert host.uplink.retransmissions >= 1


def test_the_steady_stream_test_kills_stall_timer_rearmed_every_send():
    test_a_lost_frame_is_resent_while_new_frames_flow()
    with MUTANTS["stall_timer_rearmed_every_send"].applied():
        with pytest.raises(AssertionError):
            test_a_lost_frame_is_resent_while_new_frames_flow()


def test_the_filter_returns_gap_or_the_suffix_start():
    ops = tuple(range(10, 15))               # keys 10 … 14
    key = int
    assert ReliableStream.accepted_from(ops, 9, 9, key) == 0
    assert ReliableStream.accepted_from(ops, 12, 9, key) == 3
    assert ReliableStream.accepted_from(ops, 20, 12, key) == 5
    assert ReliableStream.accepted_from(ops, 9, 10, key) == GAP
