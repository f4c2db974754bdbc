"""Tests for wire-size accounting and the S-Seq/A-Seq partition logic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.messages import SeqReply, SeqRequest
from repro.baselines.seqstore import SeqPartition
from repro.clocks import PhysicalClock
from repro.core.messages import (
    AddOpBatch,
    ApplyRemote,
    ClientUpdate,
    RemoteData,
    RemoteStableBatch,
    ShardStableBatch,
)
from repro.kvstore.types import METADATA_OVERHEAD_BYTES, Update
from repro.sim import ConstantLatency, Environment, Network, Process


def make_update(value="v", value_bytes=100, vts=(5, 0, 0)):
    return Update(key="k", value=value, origin_dc=0, partition_index=0,
                  seq=1, ts=5, vts=vts, value_bytes=value_bytes)


class TestWireSizes:
    def test_metadata_only_batch_is_value_independent(self):
        meta = make_update(value=None, value_bytes=10_000)
        batch = AddOpBatch(0, (meta,))
        assert batch.size_bytes == meta.metadata_bytes

    def test_full_batch_includes_payload(self):
        full = make_update(value="x", value_bytes=100)
        batch = AddOpBatch(0, (full,))
        assert batch.size_bytes == full.size_bytes
        assert batch.size_bytes > full.metadata_bytes

    def test_remote_stable_batch_sums_ops(self):
        ops = (make_update(value=None), make_update(value=None))
        batch = RemoteStableBatch(0, ops)
        assert batch.size_bytes == 2 * ops[0].metadata_bytes

    def test_remote_data_carries_payload(self):
        data = RemoteData(make_update(value_bytes=256))
        assert data.size_bytes == 256 + 8 * 3 + METADATA_OVERHEAD_BYTES

    def test_apply_remote_is_metadata_sized(self):
        apply = ApplyRemote(make_update(value=None, value_bytes=999))
        assert apply.size_bytes == 8 * 3 + METADATA_OVERHEAD_BYTES

    def test_client_update_size(self):
        msg = ClientUpdate("k", "v", (0, 0, 0), value_bytes=64)
        assert msg.size_bytes == 64 + 24 + METADATA_OVERHEAD_BYTES

    def test_seq_request_metadata_sized(self):
        request = SeqRequest(make_update(value=None, value_bytes=5000))
        assert request.size_bytes == 8 * 3 + METADATA_OVERHEAD_BYTES

    @given(ops=st.lists(st.builds(
        make_update,
        value=st.sampled_from([None, "v", 0, b"", ()]),
        value_bytes=st.integers(min_value=0, max_value=10_000),
        vts=st.lists(st.integers(min_value=0, max_value=10**9),
                     max_size=6).map(tuple)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_every_frame_is_sized_by_the_update_properties(self, ops):
        """A frame that mixes payload and metadata-only ops (falsy payloads
        included) is the per-op sum of ``Update``'s own size properties."""
        ops = tuple(ops)
        expected = sum(op.size_bytes if op.value is not None
                       else op.metadata_bytes for op in ops)
        assert AddOpBatch(0, ops).size_bytes == expected
        assert RemoteStableBatch(0, ops).size_bytes == expected
        assert ShardStableBatch(0, 0, ops).size_bytes == 16 + expected


class FakeSequencer(Process):
    """Assigns numbers with a controllable delay."""

    def __init__(self, env, site=0):
        super().__init__(env, "seq", site=site)
        self.counter = 0
        self.requests = []

    def on_seq_request(self, msg, src):
        self.requests.append(msg)
        self.counter += 1
        m = 0
        vts = (self.counter,) + msg.update.vts[1:]
        self.send(src, SeqReply(msg.update.uid, vts))


class FakeClient(Process):
    def __init__(self, env):
        super().__init__(env, "client")
        self.replies = []

    def on_client_update_reply(self, msg, src):
        self.replies.append((self.now, msg.vts))


@pytest.fixture
def seq_rig(env):
    Network(env, ConstantLatency(0.001))
    sequencer = FakeSequencer(env)
    client = FakeClient(env)

    def build(synchronous):
        partition = SeqPartition(env, "p0", 0, 0, 3, PhysicalClock(env),
                                 synchronous=synchronous)
        partition.set_sequencer(sequencer)
        return partition

    return env, sequencer, client, build


class TestSeqPartition:
    def test_sync_replies_after_sequencer(self, seq_rig):
        env, sequencer, client, build = seq_rig
        partition = build(synchronous=True)
        client.send(partition, ClientUpdate("k", "v", (0, 0, 0),
                                            request_id=1))
        env.run()
        reply_time, vts = client.replies[0]
        assert vts[0] == 1                     # sequencer-assigned
        # partition service (~4.1ms) + sequencer round trip (~2.2ms)
        assert reply_time > 0.007

    def test_async_replies_immediately(self, seq_rig):
        env, sequencer, client, build = seq_rig
        partition = build(synchronous=False)
        client.send(partition, ClientUpdate("k", "v", (0, 0, 0),
                                            request_id=1))
        env.run()
        reply_time, vts = client.replies[0]
        # partition service (~4.1ms) + one network hop; no sequencer wait
        assert reply_time < 0.0065
        assert vts == (0, 0, 0)                # client vector echoed
        assert sequencer.requests              # but the sequencer was told

    def test_store_write_waits_for_assignment(self, seq_rig):
        env, sequencer, client, build = seq_rig
        partition = build(synchronous=True)
        client.send(partition, ClientUpdate("k", "v", (0, 0, 0),
                                            request_id=1))
        env.run(until=0.004)                  # request still in flight
        assert partition.store.get("k") is None
        env.run()
        stored = partition.store.get("k")
        assert stored.value == "v"
        assert stored.vts[0] == 1

    def test_payload_ships_at_request_time(self, seq_rig):
        env, sequencer, client, build = seq_rig
        partition = build(synchronous=True)

        class Sink(Process):
            def __init__(self, e):
                super().__init__(e, "sink", site=1)
                self.got = []

            def on_remote_data(self, msg, src):
                self.got.append((self.now, msg.update))

        sink = Sink(env)
        partition.set_sibling(1, sink)
        client.send(partition, ClientUpdate("k", "v", (0, 0, 0),
                                            request_id=1))
        env.run()
        arrival, update = sink.got[0]
        # shipped before the sequencer round trip completed (~7.3ms)
        assert arrival < 0.007
        assert update.value == "v"

    def test_unsolicited_reply_ignored(self, seq_rig):
        env, sequencer, client, build = seq_rig
        partition = build(synchronous=True)
        sequencer.send(partition, SeqReply((0, 0, 99), (5, 0, 0)))
        env.run()
        assert partition.store.get("k") is None
