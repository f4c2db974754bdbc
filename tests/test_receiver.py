"""Tests for the geo receiver (Algorithm 5)."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import CausalChecker, SessionHistory
from repro.core.config import EunomiaConfig
from repro.core.messages import ApplyRemote, ApplyRemoteOk, RemoteStableBatch
from repro.geo.receiver import Receiver
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.kvstore.ring import ConsistentHashRing
from repro.kvstore.types import Update
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.sim.latency import JitteredLatency
from repro.workload import WorkloadSpec


class RecordingPartition(Process):
    """Applies instantly and acks, recording the order."""

    def __init__(self, env, name, log):
        super().__init__(env, name)
        self.log = log

    def on_apply_remote(self, msg, src):
        self.log.append(msg.update.uid)
        self.send(src, ApplyRemoteOk(msg.update.uid))


def make_update(dc, ts, vts, seq=None, partition=0, key="k"):
    return Update(key=key, value="v", origin_dc=dc, partition_index=partition,
                  seq=seq if seq is not None else ts, ts=ts, vts=vts,
                  commit_time=0.0)


@pytest.fixture
def rig(env, metrics):
    Network(env, ConstantLatency(0.0001))
    receiver = Receiver(env, "recv", dc_id=0, n_dcs=3, check_interval=0.001,
                        metrics=metrics)
    log = []
    partitions = [RecordingPartition(env, f"p{i}", log) for i in range(2)]
    receiver.set_partitions(ConsistentHashRing(2), partitions)
    receiver.start()
    sender = Process(env, "eunomia-remote")
    return env, receiver, sender, log


def test_applies_in_origin_order(rig):
    env, receiver, sender, log = rig
    ops = tuple(make_update(1, ts, (0, ts, 0), key=f"k{ts}")
                for ts in (10, 20, 30))
    sender.send(receiver, RemoteStableBatch(1, ops))
    env.run(until=0.1)
    assert log == [op.uid for op in ops]
    assert receiver.site_time[1] == 30
    assert receiver.applied == 3


def test_cross_origin_dependency_gates_apply(rig):
    env, receiver, sender, log = rig
    # An update from dc1 that depends on dc2's ts 50.
    dependent = make_update(1, 10, (0, 10, 50))
    sender.send(receiver, RemoteStableBatch(1, (dependent,)))
    env.run(until=0.05)
    assert log == []  # blocked: SiteTime[2] < 50
    provider = make_update(2, 50, (0, 0, 50))
    sender.send(receiver, RemoteStableBatch(2, (provider,)))
    env.run(until=0.1)
    assert log == [provider.uid, dependent.uid]


def test_dependency_on_local_dc_entry_is_ignored(rig):
    env, receiver, sender, log = rig
    # vts[0] (the local DC) is non-zero: locally visible by construction.
    update = make_update(1, 10, (999, 10, 0))
    sender.send(receiver, RemoteStableBatch(1, (update,)))
    env.run(until=0.05)
    assert log == [update.uid]


def test_duplicates_are_dropped(rig):
    env, receiver, sender, log = rig
    op = make_update(1, 10, (0, 10, 0))
    sender.send(receiver, RemoteStableBatch(1, (op,)))
    sender.send(receiver, RemoteStableBatch(1, (op,)))  # failover re-ship
    env.run(until=0.1)
    assert log == [op.uid]
    assert receiver.duplicates_dropped == 1


def test_timestamp_ties_across_partitions_both_apply(rig):
    env, receiver, sender, log = rig
    a = make_update(1, 10, (0, 10, 0), seq=1, partition=0)
    b = make_update(1, 10, (0, 10, 0), seq=1, partition=1)
    sender.send(receiver, RemoteStableBatch(1, (a, b)))
    env.run(until=0.1)
    assert log == [a.uid, b.uid]
    assert receiver.site_time[1] == 10


def test_site_time_held_back_until_tie_fully_applied(rig):
    env, receiver, sender, log = rig
    a = make_update(1, 10, (0, 10, 0), seq=1, partition=0)
    b = make_update(1, 10, (0, 10, 0), seq=1, partition=1)
    sender.send(receiver, RemoteStableBatch(1, (a, b)))

    observed = []

    def spy():
        observed.append((len(log), receiver.site_time[1]))

    env.loop.schedule(0.0002, spy)  # between the two applies (RTT ~0.2ms)
    env.run(until=0.1)
    # whenever only one tied op had been applied, SiteTime must be < 10
    for applied, site in observed:
        if applied == 1:
            assert site == 9


def test_origins_progress_independently(rig):
    env, receiver, sender, log = rig
    blocked = make_update(1, 10, (0, 10, 99))  # waits on dc2 ts 99
    free = make_update(2, 5, (0, 0, 5))
    sender.send(receiver, RemoteStableBatch(1, (blocked,)))
    sender.send(receiver, RemoteStableBatch(2, (free,)))
    env.run(until=0.05)
    assert free.uid in log          # dc2's stream is not head-blocked
    assert blocked.uid not in log
    assert receiver.backlog() == 1


def test_unexpected_ack_raises(rig):
    env, receiver, sender, log = rig
    sender.send(receiver, ApplyRemoteOk((1, 0, 77)))
    with pytest.raises(RuntimeError):
        env.run(until=0.01)


# ----------------------------------------------------------------------
# At-least-once streams: scripted frames against a real Receiver
# ----------------------------------------------------------------------
@st.composite
def _stream_plans(draw):
    """An at-least-once stable-stream schedule for a 3-DC receiver.

    Returns (per-origin update lists, per-origin frame schedule).  Ops are
    generated in one global interleaving; each op's cross-DC dependency
    (when drawn) names a timestamp some *earlier-generated* op of the
    other origin carries, so a topological apply order always exists and
    the run must fully drain.  Frames chunk each stream with drawn overlap
    (re-shipped prefixes — the observable form of loss + at-least-once
    retry on this lane) and staggered send times.
    """
    origins = (1, 2)
    n_ops = draw(st.integers(min_value=12, max_value=48))
    order = draw(st.lists(st.sampled_from(origins),
                          min_size=n_ops, max_size=n_ops))
    dep_flags = draw(st.lists(st.booleans(), min_size=n_ops, max_size=n_ops))
    keys = draw(st.lists(st.integers(min_value=0, max_value=15),
                         min_size=n_ops, max_size=n_ops))
    parts = draw(st.lists(st.integers(min_value=0, max_value=1),
                          min_size=n_ops, max_size=n_ops))
    streams: dict[int, list[Update]] = {k: [] for k in origins}
    last_ts = {k: 0 for k in origins}
    seq = defaultdict(int)
    for i, k in enumerate(order):
        ts = last_ts[k] + 1 + (i % 3)
        last_ts[k] = ts
        other = origins[1 - origins.index(k)]
        vts = [0, 0, 0]
        vts[k] = ts
        if dep_flags[i] and last_ts[other]:
            vts[other] = last_ts[other]
        key = (parts[i], keys[i])
        s = seq[(k, parts[i])]
        seq[(k, parts[i])] = s + 1
        streams[k].append(Update(
            key=key, value=f"v{k}.{parts[i]}.{s}", origin_dc=k,
            partition_index=parts[i], seq=s, ts=ts, vts=tuple(vts)))

    schedule: dict[int, list[tuple[float, int, int]]] = {}
    for k in origins:
        n = len(streams[k])
        frames, pos, t = [], 0, 0.0
        while pos < n:
            size = draw(st.integers(min_value=1, max_value=6))
            overlap = draw(st.integers(min_value=0, max_value=3))
            t += draw(st.floats(min_value=0.0005, max_value=0.01))
            frames.append((t, max(0, pos - overlap), min(n, pos + size)))
            pos += size
        schedule[k] = frames
    return streams, schedule


@settings(max_examples=30, deadline=None)
@given(plan=_stream_plans())
def test_reshipped_streams_drain_in_stream_order(plan):
    """Whatever the framing, overlap and cross-origin dependencies, every
    update is released exactly once, in its origin's stream order, and the
    re-shipped prefixes are counted as duplicates."""
    streams, schedule = plan
    env = Environment(seed=5)
    net = Network(env, JitteredLatency(base_s=0.001, jitter_s=0.0004))
    log: list[tuple] = []
    partitions = [RecordingPartition(env, f"p{i}", log) for i in range(2)]
    origins = {k: Process(env, f"origin{k}") for k in schedule}
    receiver = Receiver(env, "r0", dc_id=0, n_dcs=3, check_interval=0.005)
    receiver.set_partitions(ConsistentHashRing(2), partitions)
    receiver.start()
    shipped = 0
    for k, frames in schedule.items():
        for when, lo, hi in frames:
            shipped += hi - lo
            env.loop.schedule_at(
                when, net.send, origins[k], receiver,
                RemoteStableBatch(origin_dc=k, ops=tuple(streams[k][lo:hi])))
    env.run(until=2.0)
    for k, stream in streams.items():
        assert [uid for uid in log if uid[0] == k] == [u.uid for u in stream]
    total = sum(len(stream) for stream in streams.values())
    assert receiver.applied == total
    assert receiver.duplicates_dropped == shipped - total
    assert receiver.backlog() == 0
    assert receiver.site_time[1:] == [streams[k][-1].ts if streams[k] else 0
                                      for k in (1, 2)]


# ----------------------------------------------------------------------
# Crash-stop and recovery of the receiver itself
# ----------------------------------------------------------------------
def test_second_ack_of_a_rereleased_update_is_dropped(rig):
    """An outage shorter than the receiver–partition round trip: the head
    is released again on recovery and *both* releases are acknowledged."""
    env, receiver, sender, log = rig
    ops = tuple(make_update(1, ts, (0, ts, 0), key=f"k{ts}")
                for ts in (10, 20, 30))
    sender.send(receiver, RemoteStableBatch(1, ops))
    env.run(until=0.00015)          # frame in, first ApplyRemote on its way
    assert 1 in receiver._inflight
    receiver.crash()
    receiver.recover()
    env.run(until=0.1)
    # this stub partition applies whatever it is sent, so the log shows the
    # two releases; a real partition installs once (see the system test)
    assert log == [ops[0].uid] + [op.uid for op in ops]
    assert receiver.applied == 3
    assert receiver.backlog() == 0
    # any other stray ack is still an error
    sender.send(receiver, ApplyRemoteOk(ops[1].uid))
    with pytest.raises(RuntimeError, match="unexpected apply ack"):
        env.run(until=0.2)


def _hold_stream_while_down(receiver):
    """Re-offer, on recovery, the stream frames that reached ``receiver``
    while it was down.  The propagator → receiver lane is fire-and-forget
    (a frame dropped at a crashed receiver is gone for good, which is why
    the chaos matrix only crashes receivers that have no inbound stream),
    so without this the outage would lose updates by design and the test
    would be about that, not about the receiver's own recovery."""
    held = []
    deliver, recover = receiver.deliver, receiver.recover

    def gate(msg, src):
        if receiver.crashed and isinstance(msg, RemoteStableBatch):
            held.append((msg, src))
        else:
            deliver(msg, src)

    def recover_and_replay():
        recover()
        for msg, src in held:
            deliver(msg, src)
        held.clear()

    receiver.deliver, receiver.recover = gate, recover_and_replay


#: 20 outages 50 ms apart, cycling below / around / above the ~0.3 ms
#: receiver–partition round trip
_BLIPS = [(0.6 + 0.05 * i, 0.6 + 0.05 * i + (0.00005, 0.0003, 0.001)[i % 3])
          for i in range(20)]


@pytest.mark.parametrize("outages", [[(0.6, 0.7)], _BLIPS],
                         ids=["one-100ms-outage", "20-blips"])
@pytest.mark.parametrize("separate", [True, False],
                         ids=["data-out-of-band", "data-inline"])
def test_receiver_crash_and_recovery_does_not_stall_its_dc(separate, outages):
    """Regression: ``recover()`` releases every in-flight head again.  With
    §5 data/metadata separation the partition had already consumed the
    payload, parked the second release for good and never acknowledged it —
    that origin's queue (and the DC's view of it) stopped forever; outages
    shorter than the round trip instead delivered two acks and raised."""
    history = SessionHistory()
    system = build_geo_system(
        "eunomia",
        GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8, seed=1),
        WorkloadSpec(read_ratio=0.1), history=history,
        config=EunomiaConfig(separate_data_metadata=separate))
    receiver = system.datacenters[0].receiver
    _hold_stream_while_down(receiver)
    for down, up in outages:
        system.failures().crash_at(down, receiver).recover_at(up, receiver)
    system.run(2.0)
    system.quiesce(2.0)
    assert receiver.backlog() == 0 and not receiver._inflight
    remote = sum(p.local_updates for dc in system.datacenters[1:]
                 for p in dc.partitions)
    assert receiver.applied == remote
    assert sum(p.remote_applies
               for p in system.datacenters[0].partitions) == remote
    assert system.converged()
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
