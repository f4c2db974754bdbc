"""Tests for the Eunomia-aware partition (Algorithms 1–2, §4, §5)."""

import pytest

from repro.calibration import Calibration
from repro.clocks import PhysicalClock
from repro.core import EunomiaConfig, EunomiaPartition
from repro.core.messages import (
    ApplyRemote,
    ClientRead,
    ClientUpdate,
    RemoteData,
)
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process


class FakeClient(Process):
    def __init__(self, env, name="client"):
        super().__init__(env, name)
        self.read_replies = []
        self.update_replies = []

    def on_client_read_reply(self, msg, src):
        self.read_replies.append(msg)

    def on_client_update_reply(self, msg, src):
        self.update_replies.append(msg)


class FakeReceiver(Process):
    def __init__(self, env):
        super().__init__(env, "receiver")
        self.oks = []

    def on_apply_remote_ok(self, msg, src):
        self.oks.append(msg.uid)


class SiblingSink(Process):
    def __init__(self, env, name):
        super().__init__(env, name, site=1)
        self.data = []

    def on_remote_data(self, msg, src):
        self.data.append(msg.update)


@pytest.fixture
def rig(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    partition = EunomiaPartition(env, "p0", dc_id=0, index=0, n_dcs=3,
                                 clock=PhysicalClock(env), config=config)
    client = FakeClient(env)
    return env, partition, client


def update_msg(key="k", value="v", vts=(0, 0, 0)):
    return ClientUpdate(key, value, vts, value_bytes=10, request_id=1)


def remote_update(key="rk", value="rv", vts=(0, 500, 0), dc=1, seq=1,
                  metadata_only=True):
    return Update(key=key, value=None if metadata_only else value,
                  origin_dc=dc, partition_index=0, seq=seq,
                  ts=vts[dc], vts=vts, commit_time=0.0)


class TestClientPath:
    def test_read_missing_key_returns_zero_vector(self, rig):
        env, partition, client = rig
        client.send(partition, ClientRead("nope", request_id=1))
        env.run()
        reply = client.read_replies[0]
        assert reply.value is None
        assert reply.vts == (0, 0, 0)

    def test_update_vector_structure(self, rig):
        env, partition, client = rig
        client.send(partition, update_msg(vts=(5, 7, 9)))
        env.run()
        vts = client.update_replies[0].vts
        # remote entries copied from the client, local entry fresh & greater
        assert vts[1] == 7 and vts[2] == 9
        assert vts[0] > 5

    def test_update_then_read_roundtrip(self, rig):
        env, partition, client = rig
        client.send(partition, update_msg(key="a", value="hello"))
        env.run()
        client.send(partition, ClientRead("a", request_id=2))
        env.run()
        reply = client.read_replies[0]
        assert reply.value == "hello"
        assert reply.vts == client.update_replies[0].vts

    def test_successive_updates_strictly_increase(self, rig):
        env, partition, client = rig
        vts = (0, 0, 0)
        for i in range(5):
            client.send(partition, ClientUpdate("k", i, vts, request_id=i))
            env.run()
            new = client.update_replies[-1].vts
            assert new[0] > vts[0]
            vts = new

    def test_update_timestamp_exceeds_client_dependency(self, rig):
        env, partition, client = rig
        dep = 10_000_000_000  # way past the physical clock
        client.send(partition, update_msg(vts=(dep, 0, 0)))
        env.run()
        assert client.update_replies[0].vts[0] == dep + 1


class TestDataMetadataSeparation:
    def test_payload_ships_to_siblings_metadata_to_uplink(self, rig):
        env, partition, client = rig
        siblings = {1: SiblingSink(env, "s1"), 2: SiblingSink(env, "s2")}
        for dc, sink in siblings.items():
            partition.set_sibling(dc, sink)
        client.send(partition, update_msg(value="payload"))
        env.run()
        for sink in siblings.values():
            assert sink.data[0].value == "payload"
        # metadata queued for Eunomia is value-free
        assert partition.uplink.stream.pending.payload[0].value is None

    def test_without_separation_value_goes_through_eunomia(self, env):
        Network(env, ConstantLatency(0.0001))
        config = EunomiaConfig(separate_data_metadata=False)
        partition = EunomiaPartition(env, "p0", 0, 0, 3, PhysicalClock(env),
                                     config)
        client = FakeClient(env)
        client.send(partition, update_msg(value="inline"))
        env.run()
        assert partition.uplink.stream.pending.payload[0].value == "inline"

    def test_sibling_registration_ignores_self(self, rig):
        env, partition, _ = rig
        partition.set_sibling(0, partition)
        assert 0 not in partition.siblings


class TestRemoteExecution:
    def test_apply_waits_for_data(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        meta = remote_update()
        receiver.send(partition, ApplyRemote(meta))
        env.run()
        assert receiver.oks == []  # no data yet
        data = remote_update(metadata_only=False)
        receiver.send(partition, RemoteData(data))
        env.run()
        assert receiver.oks == [meta.uid]
        assert partition.store.get("rk").value == "rv"

    def test_data_then_apply(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        receiver.send(partition, RemoteData(remote_update(metadata_only=False)))
        env.run()
        assert partition.store.get("rk") is None  # staged, not applied
        receiver.send(partition, ApplyRemote(remote_update()))
        env.run()
        assert partition.store.get("rk").value == "rv"

    def test_visibility_extra_zero_when_data_arrives_last(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        receiver.send(partition, ApplyRemote(remote_update()))
        env.run()
        receiver.send(partition, RemoteData(remote_update(metadata_only=False)))
        env.run()
        points = partition.metrics.point_series("vis_extra_ms:1->0")
        assert len(points) == 1
        assert points[0][1] == pytest.approx(0.0)

    def test_visibility_extra_positive_when_metadata_lags(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        receiver.send(partition, RemoteData(remote_update(metadata_only=False)))
        env.run()
        env.loop.schedule(0.050, lambda: receiver.send(
            partition, ApplyRemote(remote_update())))
        env.run()
        points = partition.metrics.point_series("vis_extra_ms:1->0")
        assert points[0][1] == pytest.approx(50.0, abs=5.0)

    def test_lww_remote_does_not_clobber_causally_newer_local(self, rig):
        env, partition, client = rig
        receiver = FakeReceiver(env)
        # install remote version, read it, overwrite it locally
        receiver.send(partition,
                      RemoteData(remote_update(key="x", metadata_only=False)))
        receiver.send(partition, ApplyRemote(remote_update(key="x")))
        env.run()
        remote_vts = partition.store.get("x").vts
        client.send(partition, ClientUpdate("x", "mine", remote_vts,
                                            request_id=9))
        env.run()
        assert partition.store.get("x").value == "mine"
        # a replay of the remote version must lose
        receiver.send(partition,
                      RemoteData(remote_update(key="x", seq=2,
                                               metadata_only=False)))
        receiver.send(partition, ApplyRemote(remote_update(key="x", seq=2)))
        env.run()
        assert partition.store.get("x").value == "mine"

    def test_remote_counters(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        receiver.send(partition, RemoteData(remote_update(metadata_only=False)))
        receiver.send(partition, ApplyRemote(remote_update()))
        env.run()
        assert partition.remote_applies == 1
        assert partition.datastore() is partition.store


class TestWhereTheRemoteWriteIsCharged:
    """The storage write rides the message that carries the payload
    (``StoragePartition._install``); a release costs the publish."""

    LAN = 0.0001
    WRITE = Calibration().cost("partition_apply_remote")      # 1.0 ms
    PUBLISH = Calibration().cost("partition_remote_data")     # 0.2 ms

    @pytest.mark.parametrize("separate, unrelated, release_cost", [
        # the payload was written when it landed, long before
        pytest.param(True, False, PUBLISH, id="separated"),
        # ApplyRemote carries the value, so the write too (as at PR 23)
        pytest.param(False, False, WRITE, id="unseparated"),
        # another update's payload lands with the release: its write is
        # not the release's wait (releases have a lane of their own)
        pytest.param(True, True, PUBLISH, id="separated-unrelated-payload"),
    ])
    def test_release_to_install(self, env, separate, unrelated,
                                release_cost):
        Network(env, ConstantLatency(self.LAN))
        config = EunomiaConfig(separate_data_metadata=separate)
        partition = EunomiaPartition(env, "p0", 0, 0, 3, PhysicalClock(env),
                                     config)
        receiver = FakeReceiver(env)
        if separate:
            receiver.send(partition,
                          RemoteData(remote_update(metadata_only=False)))
            env.run()
        released = env.now
        if unrelated:
            receiver.send(partition, RemoteData(remote_update(
                key="other", seq=2, metadata_only=False)))
        receiver.send(partition,
                      ApplyRemote(remote_update(metadata_only=separate)))
        env.run()
        (installed, _), = env.metrics.point_series("vis_extra_ms:1->0")
        assert installed - released == pytest.approx(self.LAN + release_cost)
        assert partition.store.get("rk").value == "rv"

    def test_metadata_first_installs_when_the_payload_is_written(self, rig):
        env, partition, _ = rig
        receiver = FakeReceiver(env)
        receiver.send(partition, ApplyRemote(remote_update()))
        env.run()
        sent = env.now
        receiver.send(partition, RemoteData(remote_update(metadata_only=False)))
        env.run()
        (installed, extra_ms), = partition.metrics.point_series(
            "vis_extra_ms:1->0")
        assert installed - sent == pytest.approx(self.LAN + self.WRITE)
        assert extra_ms == 0.0
        assert receiver.oks == [remote_update().uid]
