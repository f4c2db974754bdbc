"""Tests for the geo receiver (Algorithm 5)."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutants import MUTANTS

from repro.checker import CausalChecker, SessionHistory
from repro.core.config import EunomiaConfig
from repro.core.messages import ApplyRemote, ApplyRemoteOk, RemoteStableBatch
from repro.core.placement import PlacementMap
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
    return _rig(env, metrics)


def _rig(env, metrics):
    Network(env, ConstantLatency(0.0001))
    receiver = Receiver(env, "recv", dc_id=0, n_dcs=3,
                        placement=PlacementMap.full(3, 2), metrics=metrics)
    log = []
    partitions = [RecordingPartition(env, f"p{i}", log) for i in range(2)]
    receiver.set_partitions(ConsistentHashRing(2), partitions)
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


def test_the_dependency_gate_kills_receiver_ignores_site_time():
    """Alg. 5 l.12 has teeth: a receiver that releases without checking
    SiteTime applies the dependent update before its provider."""
    def gate():
        test_cross_origin_dependency_gates_apply(
            _rig(Environment(seed=1234), MetricsHub()))

    gate()
    with MUTANTS["receiver_ignores_site_time"].applied():
        with pytest.raises(AssertionError):
            gate()


def test_the_dependency_gate_kills_receiver_ack_skips_flush():
    """An apply ack is the only event that can release a head waiting on
    the applied timestamp: without its rescan the dependent stays queued
    (no periodic check runs to pick it up later)."""
    def gate():
        test_cross_origin_dependency_gates_apply(
            _rig(Environment(seed=1234), MetricsHub()))

    gate()
    with MUTANTS["receiver_ack_skips_flush"].applied():
        with pytest.raises(AssertionError):
            gate()


def test_a_skipped_head_releases_what_waited_on_it():
    """Partial placement: dc0 stores partition 0 only.  Origin 2's head
    depends on origin 1's ts 10, which only an op for partition 1 carries.
    The frame that brings that op skips it, advancing SiteTime[1], and the
    same handler releases origin 2's head — no later event is needed."""
    env = Environment(seed=1234)
    Network(env, ConstantLatency(0.0001))
    placement = PlacementMap(3, 2, {0: [0], 1: [0, 1], 2: [0, 1]})
    receiver = Receiver(env, "recv", dc_id=0, n_dcs=3, placement=placement)
    log = []
    receiver.set_partitions(ConsistentHashRing(2), [
        RecordingPartition(env, f"p{i}", log) for i in range(2)])
    sender = Process(env, "eunomia-remote")
    dependent = make_update(2, 5, (0, 10, 5), partition=0)
    sender.send(receiver, RemoteStableBatch(2, (dependent,)))
    env.run(until=0.05)
    assert log == [] and receiver.backlog() == 1     # waits on SiteTime[1]
    provider = make_update(1, 10, (0, 10, 0), partition=1)
    receiver.on_remote_stable_batch(RemoteStableBatch(1, (provider,)), sender)
    assert receiver.skipped_nonresident == 1
    assert receiver.site_time[1] == 10
    assert receiver._inflight.get(2) is dependent
    env.run(until=0.1)
    assert log == [dependent.uid]
    assert receiver.backlog() == 0 and receiver.applied == 1


def test_the_skip_test_kills_receiver_batch_drops_skip_progress():
    """A frame whose skip advances SiteTime but rescans no other origin
    leaves the dependent head queued with nothing left to release it."""
    test_a_skipped_head_releases_what_waited_on_it()
    with MUTANTS["receiver_batch_drops_skip_progress"].applied():
        with pytest.raises(AssertionError):
            test_a_skipped_head_releases_what_waited_on_it()


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


def test_the_duplicate_filter_kills_receiver_reenqueues_last_key():
    """A frame re-shipped whole: a prefix filter that stops *at* the last
    enqueued order key offers that update again — the queue's run refuses
    it (``ValueError``), or, past that guard, it is released twice."""
    def dedup():
        test_duplicates_are_dropped(_rig(Environment(seed=1234), MetricsHub()))

    dedup()
    with MUTANTS["receiver_reenqueues_last_key"].applied():
        with pytest.raises((AssertionError, ValueError)):
            dedup()


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

    # a is applied at 0.23 ms and its ack handled at 0.33 ms; b is applied
    # at 0.43 ms.  The spy lands between a's ack and b's apply.
    env.loop.schedule(0.00038, spy)
    env.run(until=0.1)
    # one of the tied ops applied, and SiteTime still short of 10
    assert observed == [(1, 9)]
    assert receiver.site_time[1] == 10


def test_the_tie_test_kills_receiver_claims_tied_ts():
    """A receiver that claims ts 10 while a tie at 10 is still queued
    tells dependents on (dc1, 10) that every such op is applied here."""
    def tie():
        test_site_time_held_back_until_tie_fully_applied(
            _rig(Environment(seed=1234), MetricsHub()))

    tie()
    with MUTANTS["receiver_claims_tied_ts"].applied():
        with pytest.raises(AssertionError):
            tie()


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


def test_a_frame_out_of_stream_order_is_refused(rig):
    """The queues check the stream contract: a frame whose ops do not
    ascend in order key (a broken serialization upstream) fails loudly at
    ingest instead of being released out of order."""
    env, receiver, sender, log = rig
    late = make_update(1, 20, (0, 20, 0))
    early = make_update(1, 10, (0, 10, 0))
    sender.send(receiver, RemoteStableBatch(1, (late, early)))
    with pytest.raises(ValueError, match="non-monotone insert"):
        env.run(until=0.1)
    assert receiver.backlog() == 0 and log == []


def test_unexpected_ack_raises(rig):
    env, receiver, sender, log = rig
    sender.send(receiver, ApplyRemoteOk((1, 0, 77)))
    with pytest.raises(RuntimeError):
        env.run(until=0.01)


# ----------------------------------------------------------------------
# At-least-once streams: scripted frames against a real Receiver
# ----------------------------------------------------------------------
#: partitions per DC in the drawn placements
_N_PARTS = 3


@st.composite
def _placements(draw):
    """A 3-DC placement of :data:`_N_PARTS` partitions: each DC stores a
    drawn non-empty subset, and a partition no DC drew lands at DC
    ``p % 3``.  Full placement is one of the draws."""
    resident = {dc: draw(st.sets(st.integers(0, _N_PARTS - 1), min_size=1))
                for dc in range(3)}
    for p in range(_N_PARTS):
        if not any(p in parts for parts in resident.values()):
            resident[p % 3].add(p)
    return PlacementMap(3, _N_PARTS, resident)


@st.composite
def _stream_plans(draw):
    """An at-least-once stable-stream schedule for a 3-DC receiver.

    Returns (placement, per-origin update lists, per-origin frame
    schedule).  Ops are generated in one global interleaving, each on a
    partition its origin stores; each op's cross-DC dependency (when
    drawn) names a timestamp some *earlier-generated* op of the other
    origin carries — possibly one for a partition dc0 does not store, so
    a skip is what releases the dependent.  A topological apply order
    always exists and the run must fully drain.  Frames chunk each stream
    with drawn overlap (re-shipped prefixes — the observable form of loss
    + at-least-once retry on this lane) and staggered send times.  Only
    origins that share a partition with dc0 ship to it.
    """
    placement = draw(_placements())
    origins = (1, 2)
    n_ops = draw(st.integers(min_value=12, max_value=48))
    order = draw(st.lists(st.sampled_from(origins),
                          min_size=n_ops, max_size=n_ops))
    dep_flags = draw(st.lists(st.booleans(), min_size=n_ops, max_size=n_ops))
    keys = draw(st.lists(st.integers(min_value=0, max_value=15),
                         min_size=n_ops, max_size=n_ops))
    picks = draw(st.lists(st.integers(min_value=0, max_value=_N_PARTS - 1),
                          min_size=n_ops, max_size=n_ops))
    parts = []
    for k, pick in zip(order, picks):
        own = placement.resident_partitions(k)
        parts.append(own[pick % len(own)])
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
        if not placement.overlaps(k, 0):
            continue
        n = len(streams[k])
        frames, pos, t = [], 0, 0.0
        while pos < n:
            size = draw(st.integers(min_value=1, max_value=6))
            overlap = draw(st.integers(min_value=0, max_value=3))
            t += draw(st.floats(min_value=0.0005, max_value=0.01))
            frames.append((t, max(0, pos - overlap), min(n, pos + size)))
            pos += size
        schedule[k] = frames
    return placement, streams, schedule


@settings(max_examples=30, deadline=None)
@given(plan=_stream_plans())
def test_reshipped_streams_drain_in_stream_order(plan):
    """Whatever the placement, framing, overlap and cross-origin
    dependencies, every update dc0 stores is released exactly once, in its
    origin's stream order, every other one is skipped, and the re-shipped
    prefixes are counted as duplicates."""
    placement, streams, schedule = plan
    stored = placement.resident_partitions(0)
    env = Environment(seed=5)
    net = Network(env, JitteredLatency(base_s=0.001, jitter_s=0.0004))
    log: list[tuple] = []
    partitions = [RecordingPartition(env, f"p{i}", log)
                  for i in range(_N_PARTS)]
    origins = {k: Process(env, f"origin{k}") for k in schedule}
    receiver = Receiver(env, "r0", dc_id=0, n_dcs=3, placement=placement)
    receiver.set_partitions(ConsistentHashRing(_N_PARTS), partitions)
    shipped = 0
    for k, frames in schedule.items():
        for when, lo, hi in frames:
            shipped += hi - lo
            env.loop.schedule_at(
                when, net.send, origins[k], receiver,
                RemoteStableBatch(origin_dc=k, ops=tuple(streams[k][lo:hi])))
    env.run(until=2.0)
    total = applied = 0
    for k in schedule:
        resident = [u.uid for u in streams[k] if u.partition_index in stored]
        assert [uid for uid in log if uid[0] == k] == resident
        total += len(streams[k])
        applied += len(resident)
    assert len(log) == applied
    assert receiver.applied == applied
    assert receiver.skipped_nonresident == total - applied
    assert receiver.duplicates_dropped == shipped - total
    assert receiver.backlog() == 0
    assert receiver.site_time[1:] == [
        streams[k][-1].ts if k in schedule and streams[k] else 0
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


def test_the_rerelease_test_kills_a_recover_that_keeps_inflight_heads():
    """A receiver that keeps its in-flight heads across a crash releases
    the head once, not again, and the dropped first ack is never sent."""
    def rerelease():
        test_second_ack_of_a_rereleased_update_is_dropped(
            _rig(Environment(seed=1234), MetricsHub()))

    rerelease()
    with MUTANTS["receiver_recover_keeps_inflight"].applied():
        with pytest.raises(AssertionError):
            rerelease()


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
