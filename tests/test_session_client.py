"""Unit tests for the generic session client (Algorithm 1)."""

import pytest

from repro.checker import SessionHistory
from repro.core.client import SessionClient
from repro.core.messages import (
    ClientRead,
    ClientReadReply,
    ClientUpdate,
    ClientUpdateReply,
)
from repro.kvstore.ring import ConsistentHashRing
from repro.sim import ConstantLatency, Environment, Network, Process


class ScriptedPartition(Process):
    """Replies to reads/updates with scripted vectors."""

    def __init__(self, env, name, read_vts=(0, 0), update_bump=10):
        super().__init__(env, name)
        self.read_vts = read_vts
        self.update_bump = update_bump
        self.reads = []
        self.updates = []

    def on_client_read(self, msg, src):
        self.reads.append(msg)
        self.send(src, ClientReadReply(msg.key, "value", self.read_vts,
                                       msg.request_id))

    def on_client_update(self, msg, src):
        self.updates.append(msg)
        vts = tuple(v + self.update_bump for v in msg.client_vts)
        self.send(src, ClientUpdateReply(vts, msg.request_id))


class FixedWorkload:
    """Deterministic op script, cycling."""

    def __init__(self, script):
        self.script = script
        self.i = 0

    def next(self, rng):
        op = self.script[self.i % len(self.script)]
        self.i += 1
        return op


def make_client(env, script, history=None, think=0.0):
    Network(env, ConstantLatency(0.0001))
    partition = ScriptedPartition(env, "p0")
    client = SessionClient(
        env, "c0", dc_id=0, n_entries=2, partitions=[partition],
        ring=ConsistentHashRing(1), workload=FixedWorkload(script),
        history=history, think_time=think,
    )
    return client, partition


def test_closed_loop_issues_serially(env):
    client, partition = make_client(
        env, [("read", 1, 0), ("update", 2, 10)])
    client.start()
    env.run(until=0.05)
    # strictly alternating read/update per the script
    assert len(partition.reads) == pytest.approx(len(partition.updates), abs=1)
    assert client.ops_done > 10


def test_session_clock_merges_read_vectors(env):
    client, partition = make_client(env, [("read", 1, 0)])
    partition.read_vts = (7, 3)
    client.start()
    env.run(until=0.002)
    assert client.vclock == (7, 3)


def test_update_piggybacks_session_clock(env):
    client, partition = make_client(
        env, [("read", 1, 0), ("update", 2, 10)])
    partition.read_vts = (5, 5)
    client.start()
    env.run(until=0.01)
    assert partition.updates[0].client_vts == (5, 5)


def test_latency_and_marks_recorded(env):
    client, _ = make_client(env, [("update", 1, 10)])
    client.start()
    env.run(until=0.01)
    assert len(env.metrics.point_series("latency_ms:update:dc0")) == (
        client.ops_done)
    assert len(env.metrics.mark_times("ops")) == client.ops_done
    assert len(env.metrics.mark_times("ops:dc0")) == client.ops_done


def test_history_records_session_vts_before_merge(env):
    history = SessionHistory()
    client, partition = make_client(env, [("update", 1, 10)],
                                    history=history)
    client.start()
    env.run(until=0.005)
    records = history.session("c0")
    assert records[0].session_vts == (0, 0)      # clock before the op
    assert records[0].vts == (10, 10)            # what the system returned
    assert records[1].session_vts == (10, 10)


def test_stop_finishes_current_op_only(env):
    client, _ = make_client(env, [("read", 1, 0)])
    client.start()
    env.run(until=0.01)
    done = client.ops_done
    client.stop()
    env.run(until=0.05)
    assert client.ops_done <= done + 1


def test_think_time_slows_rate(env):
    fast, _ = make_client(env, [("read", 1, 0)])
    fast.start()
    env.run(until=0.2)
    env2 = Environment(seed=1)
    slow, _ = make_client(env2, [("read", 1, 0)], think=0.01)
    slow.start()
    env2.run(until=0.2)
    assert slow.ops_done < fast.ops_done / 2


def test_stale_replies_ignored(env):
    client, partition = make_client(env, [("read", 1, 0)])
    client.start()
    env.run(until=0.005)
    done = client.ops_done
    # a duplicate of an old reply must not double-complete
    client.deliver(ClientReadReply("k", "v", (0, 0), request_id=1), partition)
    env.run(until=0.006)
    assert client.ops_done <= done + 2  # no runaway double-loop
