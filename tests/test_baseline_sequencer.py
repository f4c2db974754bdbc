"""Tests for the sequencer service and its chain-replicated variant."""

import pytest

from repro.baselines.messages import SeqReply, SeqRequest
from repro.baselines.sequencer import build_chain
from repro.calibration import Calibration
from repro.core.messages import RemoteStableBatch
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process


class Requester(Process):
    def __init__(self, env, name="req"):
        super().__init__(env, name)
        self.replies = []

    def on_seq_reply(self, msg, src):
        self.replies.append(msg)


class Dest(Process):
    def __init__(self, env):
        super().__init__(env, "dest", site=1)
        self.ops = []

    def on_remote_stable_batch(self, msg, src):
        self.ops.extend(msg.ops)


def make_update(seq, vts=(0, 0)):
    return Update(key=f"k{seq}", value=None, origin_dc=0, partition_index=0,
                  seq=seq, ts=0, vts=vts, commit_time=0.0)


def test_sequencer_assigns_consecutive_numbers(env, net):
    (seq,) = build_chain(env, 0, 1)
    requester = Requester(env)
    for i in range(1, 4):
        requester.send(seq, SeqRequest(make_update(i)))
    env.run()
    assert [r.vts[0] for r in requester.replies] == [1, 2, 3]
    assert seq.counter == 3


def test_sequencer_merges_client_vector(env, net):
    (seq,) = build_chain(env, 0, 1)
    requester = Requester(env)
    requester.send(seq, SeqRequest(make_update(1, vts=(0, 42))))
    env.run()
    assert requester.replies[0].vts == (1, 42)


def test_sequencer_ships_ordered_stream(env, net):
    (seq,) = build_chain(env, 0, 1)
    dest = Dest(env)
    seq.add_destination(dest)
    requester = Requester(env)
    for i in range(1, 5):
        requester.send(seq, SeqRequest(make_update(i)))
    env.run()
    assert [op.ts for op in dest.ops] == [1, 2, 3, 4]


def test_sequencer_service_cost_bounds_throughput(env):
    Network(env, ConstantLatency(0.0001))
    cal = Calibration(scale=1.0)  # real-scale: 20.8µs per request
    (seq,) = build_chain(env, 0, 1, calibration=cal)
    requester = Requester(env)
    for i in range(1, 1002):
        requester.send(seq, SeqRequest(make_update(i)))
    env.run()
    # 1001 requests serialized at 20.8µs -> last reply ~ 20.8ms later
    last_reply_at = env.now
    assert last_reply_at == pytest.approx(1001 * 20.8e-6 + 0.0002, rel=0.05)


class TestChain:
    def test_build_chain_links_nodes(self, env, net):
        nodes = build_chain(env, 0, 3)
        assert nodes[0].is_head and nodes[2].is_tail
        assert nodes[0].successor is nodes[1]
        assert nodes[1].successor is nodes[2]

    def test_chain_assigns_and_replies_from_tail(self, env, net):
        nodes = build_chain(env, 0, 3)
        dest = Dest(env)
        nodes[-1].add_destination(dest)
        requester = Requester(env)
        requester.send(nodes[0], SeqRequest(make_update(1)))
        env.run()
        assert requester.replies[0].vts[0] == 1
        assert [op.ts for op in dest.ops] == [1]

    def test_every_node_logs_every_assignment(self, env, net):
        nodes = build_chain(env, 0, 3)
        requester = Requester(env)
        for i in range(1, 4):
            requester.send(nodes[0], SeqRequest(make_update(i)))
        env.run()
        assert all(len(node.log) == 3 for node in nodes)

    def test_requests_must_enter_at_head(self, env, net):
        nodes = build_chain(env, 0, 2)
        requester = Requester(env)
        requester.send(nodes[1], SeqRequest(make_update(1)))
        with pytest.raises(RuntimeError):
            env.run()

    def test_chain_rejects_zero_length(self, env):
        with pytest.raises(ValueError):
            build_chain(env, 0, 0)
