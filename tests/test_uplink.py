"""Tests for the partition → Eunomia uplink (batching, acks, heartbeats)."""

import bisect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutants import MUTANTS

from repro.clocks import HybridLogicalClock, PhysicalClock
from repro.core import EunomiaConfig
from repro.core.messages import AddOpBatch, BatchAck, PartitionHeartbeat
from repro.core.service import StabilizerBase
from repro.core import stream as stream_module
from repro.core.uplink import EunomiaUplink
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.sim.failure import FailureSchedule, Straggler


class Host(Process):
    """Minimal uplink host (partition stand-in)."""

    def __init__(self, env, config, batch_cost=0.0, **kw):
        super().__init__(env, "host", **kw)
        self.batch_interval = config.batch_interval
        self.clock = PhysicalClock(env)
        self.hlc = HybridLogicalClock(self.clock)
        self.uplink = EunomiaUplink(self, 0, config, self.hlc, self.clock,
                                    op_cost=0.0, batch_cost=batch_cost)

    def on_batch_ack(self, msg, src):
        self.uplink.on_ack(msg, src)


class FakeReplica(Process):
    def __init__(self, env, name, ack=True):
        super().__init__(env, name)
        self.ack_enabled = ack
        self.batches = []
        self.heartbeats = []

    def on_add_op_batch(self, msg, src):
        self.batches.append(msg)
        if self.ack_enabled:
            self.send(src, BatchAck(msg.partition_index, msg.ops[-1].ts))

    def on_partition_heartbeat(self, msg, src):
        self.heartbeats.append(msg)


def make_op(host, key="k"):
    ts = host.hlc.tick()
    return Update(key=key, value=None, origin_dc=0, partition_index=0,
                  seq=ts, ts=ts, vts=(ts,), commit_time=host.now)


@pytest.fixture
def rig(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    host = Host(env, config)
    replicas = [FakeReplica(env, "r0"), FakeReplica(env, "r1")]
    host.uplink.set_replicas(replicas)
    host.uplink.start()
    return env, host, replicas


def test_batches_ship_to_all_replicas(rig):
    env, host, replicas = rig
    host.uplink.record(make_op(host))
    env.run(until=0.01)
    assert len(replicas[0].batches) == 1
    assert len(replicas[1].batches) == 1


def test_acked_ops_are_pruned(rig):
    env, host, replicas = rig
    for _ in range(5):
        host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert host.uplink.pending_count() == 0
    assert host.uplink.stream.windows[replicas[0].pid].ack > 0


def test_unacked_ops_retransmit_after_timeout(rig):
    env, host, replicas = rig
    replicas[1].ack_enabled = False
    host.uplink.record(make_op(host))
    env.run(until=0.2)
    # replica 1 never acks: the op is retransmitted on RTO, kept pending
    assert host.uplink.retransmissions >= 1
    assert host.uplink.pending_count() == 1
    assert len(replicas[1].batches) >= 2


def test_no_retransmissions_when_acks_flow(rig):
    env, host, replicas = rig
    for _ in range(20):
        host.uplink.record(make_op(host))
    env.run(until=0.3)
    assert host.uplink.retransmissions == 0


def test_lost_batches_recovered_by_retransmission(env, monkeypatch):
    monkeypatch.setattr(stream_module, "RESEND_TIMEOUT", 0.02)
    net = Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1)
    host = Host(env, config)
    replica = FakeReplica(env, "r0")
    host.uplink.set_replicas([replica])
    host.uplink.start()
    # First transmission window is lost entirely.
    net.set_link_loss(host, replica, 1.0)
    host.uplink.record(make_op(host))
    env.run(until=0.01)
    net.set_link_loss(host, replica, 0.0)
    env.run(until=0.1)
    assert len(replica.batches) >= 1          # recovered
    assert host.uplink.pending_count() == 0   # and acked


def test_batch_respects_max_batch_ops(env, monkeypatch):
    monkeypatch.setattr(stream_module, "MAX_BATCH_OPS", 3)
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1)
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.uplink.start()
    for _ in range(10):
        host.uplink.record(make_op(host))
    env.run(until=0.0015)
    assert len(replica.batches[0].ops) == 3


def test_heartbeats_fire_when_idle(rig):
    env, host, replicas = rig
    env.run(until=0.05)  # no ops at all
    assert replicas[0].heartbeats
    assert replicas[1].heartbeats
    ts_seq = [hb.ts for hb in replicas[0].heartbeats]
    assert ts_seq == sorted(ts_seq)


def test_heartbeat_timestamps_below_future_updates(rig):
    env, host, replicas = rig
    env.run(until=0.01)  # a few heartbeats first
    last_hb = replicas[0].heartbeats[-1].ts
    op = make_op(host)
    assert op.ts > last_hb


def test_heartbeats_pause_while_ops_outstanding(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1)
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)  # never acks
    host.uplink.set_replicas([replica])
    host.uplink.start()
    host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert replica.heartbeats == []  # outstanding op blocks heartbeats


def test_non_ft_mode_ships_once_and_clears(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()  # fault_tolerant=False
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.uplink.start()
    host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert len(replica.batches) == 1
    assert host.uplink.pending_count() == 0


def test_non_monotone_record_rejected(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    host = Host(env, config)
    op = make_op(host)
    host.uplink.record(op)
    stale = Update(key="k", value=None, origin_dc=0, partition_index=0,
                   seq=op.seq + 1, ts=op.ts, vts=(op.ts,), commit_time=0.0)
    with pytest.raises(ValueError):
        host.uplink.record(stale)


def test_straggler_interval_respected(env):
    """Mutating host.batch_interval (Fig. 7) slows the shipping cadence."""
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.batch_interval = 0.05  # straggle before the first tick is armed
    host.uplink.start()
    for _ in range(3):
        host.uplink.record(make_op(host))
    env.run(until=0.04)
    assert replica.batches == []  # nothing shipped before the long tick
    env.run(until=0.11)
    assert len(replica.batches) == 1


# ----------------------------------------------------------------------
# The tick is ``Process.periodic`` written out flat; its contract, case by
# case.  (Re-arming *after* the body is what the goldens hold.)
# ----------------------------------------------------------------------

def _idle_host(env, **config):
    """A started non-FT uplink with nothing to ship: one heartbeat a tick."""
    Network(env, ConstantLatency(0.0001))
    host = Host(env, EunomiaConfig(**config))
    replica = FakeReplica(env, "r0")
    host.uplink.set_replicas([replica])
    host.uplink.start()
    return host, replica


def test_tick_interval_mutated_at_runtime_is_read_at_the_next_rearm(env):
    host, replica = _idle_host(env)
    env.run(until=0.0035)                   # ticks at 1, 2, 3 ms
    host.batch_interval = 0.01              # the tick at 4 ms is armed already
    env.run(until=0.0249)
    assert host.uplink.heartbeats_sent == 3 + 1 + 2     # 4, then 14 and 24 ms


def test_tick_interval_not_positive_raises_naming_task_and_host(env):
    from repro.sim import SimulationError

    host, _ = _idle_host(env)
    env.loop.schedule_at(0.0025, setattr, host, "batch_interval", 0.0)
    with pytest.raises(SimulationError,
                       match=r"_tick of host has non-positive period 0\.0"):
        env.run(until=0.01)
    assert host.uplink.heartbeats_sent == 3             # it fired, then raised
    host.batch_interval = -1
    with pytest.raises(SimulationError, match="non-positive period -1"):
        host.uplink.start()


def test_restart_retires_the_old_chain_even_without_a_crash(env):
    host, _ = _idle_host(env)
    env.run(until=0.0025)
    host.uplink.restart()                   # old chain still queued for 3 ms
    env.run(until=0.0109)
    assert host.uplink.heartbeats_sent == 2 + 8         # 3.5 … 10.5 ms, once


def test_crash_retires_the_chain_and_restart_is_a_noop_if_never_started(env):
    host, replica = _idle_host(env)
    env.run(until=0.0025)
    host.crash()
    env.run(until=0.01)
    assert host.uplink.heartbeats_sent == 2
    assert env.loop.pending() == 0          # the tick at 3 ms did not re-arm
    host.recover()
    env.run(until=0.02)
    assert host.uplink.heartbeats_sent == 2             # nobody restarted it
    host.uplink.restart()
    env.run(until=0.0225)
    assert host.uplink.heartbeats_sent == 4
    idle = Host(env, EunomiaConfig())       # never started (an S-Seq host)
    idle.uplink.restart()
    assert env.loop.pending() == 1          # still only ``host``'s tick


# ----------------------------------------------------------------------
# Δ (Alg. 2 l.11) is the configured batch interval, read once.
# ----------------------------------------------------------------------

def test_idle_heartbeat_waits_one_configured_interval(env):
    """Δ = ``batch_interval``: a tick heartbeats only once the clock is
    4 ms past the hybrid clock's last timestamp."""
    host, replica = _idle_host(env, batch_interval=0.004)
    env.loop.schedule_at(0.005, host.hlc.tick)  # a timestamp at 5 ms
    env.run(until=0.013)                        # ticks at 4, 8 and 12 ms
    assert [beat.ts for beat in replica.heartbeats] == [4000, 12000]


def test_a_straggler_leaves_delta_at_the_configured_interval(env):
    """Fig. 7's straggler inflates the host's interval, which paces the
    ticks; Δ stays at the config's 1 ms, so a tick 3 ms after the last
    timestamp still heartbeats."""
    host, replica = _idle_host(env)
    schedule = FailureSchedule(env)
    Straggler(host, 0.0005, 1.0, straggle_interval=0.01).arm(schedule)
    schedule.arm()
    env.loop.schedule_at(0.028, host.hlc.tick)  # a timestamp at 28 ms
    env.run(until=0.035)                        # ticks at 1, 11, 21, 31 ms
    assert host.batch_interval == 0.01
    assert [round(beat.ts, -3) for beat in replica.heartbeats] == [
        1000, 11000, 21000, 31000]


# ----------------------------------------------------------------------
# Never overtake your own frame.  A heartbeat costs no CPU and leaves from
# the tick, a frame waits in a service lane of the host — ``cpu``, behind
# whatever the host is serving, unless the host class declares a background
# ``UPLINK_LANE`` the way storage partitions do; a heartbeat that reached
# the stabilizer first would lift PartitionTime past the frame's ops and
# the dedup would throw them away.  The property keeps ``cpu`` randomly
# occupied and checks the stabilizer's side of Alg. 2's contract: a
# heartbeat with timestamp h promises that every op up to h has already
# arrived.
# ----------------------------------------------------------------------

class BusyHost(Host):
    """Notes when its uplink's last queued frame reaches the wire, and
    which heartbeats went through the service queue."""

    def __init__(self, env, config):
        super().__init__(env, config, batch_cost=_UNIT)
        self.frame_due = 0.0
        self.frame_slots = []      # (queued at, service cost, on the wire at)
        self.queued_beats = {}     # id -> beat (kept alive, so ids stay unique)

    def _enqueue(self, fn, cost, *args, lane="cpu"):
        done = super()._enqueue(fn, cost, *args, lane=lane)
        if args and isinstance(args[-1], AddOpBatch):
            self.frame_due = done
            self.frame_slots.append((self.now, cost, done))
        elif args and isinstance(args[-1], PartitionHeartbeat):
            self.queued_beats[id(args[-1])] = args[-1]
        return done


class LaneHost(BusyHost):
    """Declares the background lane the way ``EunomiaPartition`` does."""

    UPLINK_LANE = "uplink"
    LANES = {"BatchAck": UPLINK_LANE}


class SplitLanesHost(BusyHost):
    """The mutant: frames wait in ``cpu``, queued heartbeats in ``uplink``,
    so a queued heartbeat no longer waits for the frame it was queued
    behind.  Routed by message type here, so it is the same mutant
    whichever lane the uplink asked for."""

    def _enqueue(self, fn, cost, *args, lane="cpu"):
        if args and isinstance(args[-1], AddOpBatch):
            lane = "cpu"
        elif args and isinstance(args[-1], PartitionHeartbeat):
            lane = "uplink"
        return super()._enqueue(fn, cost, *args, lane=lane)


class WatchedNetwork(Network):
    """Asserts that a heartbeat sent straight from the tick (one that never
    went through the host's queue) leaves only after the last queued frame
    of its uplink did."""

    def send(self, src, dst, msg):
        if (isinstance(msg, PartitionHeartbeat)
                and id(msg) not in src.queued_beats):
            assert src.now > src.frame_due, (
                f"heartbeat {msg.ts} left the tick at {src.now} with a "
                f"frame queued until {src.frame_due}")
        super().send(src, dst, msg)


class Ingest(StabilizerBase):
    """Algorithm 3 ingestion only (never stabilizes, so every accepted op
    stays in the buffer); logs what a heartbeat found on arrival.  Acks
    every frame when fault-tolerant, as any stabilizer does."""

    def __init__(self, env, name, config):
        super().__init__(env, name, 0, 1, config, insert_op_cost=1e-6,
                         batch_cost=2e-6, heartbeat_cost=0.2e-6)
        self.beats = []        # (heartbeat ts, ops ingested before it)

    def _should_stabilize(self):
        return False

    def on_partition_heartbeat(self, msg, src):
        self.beats.append((msg.ts, len(self.buffer)))
        super().on_partition_heartbeat(msg, src)


#: Every time in the property is a multiple of this (exact in binary), the
#: tick period and the frame cost included, so ``now == due`` ties between
#: a tick and a queued frame occur instead of being measure-zero.
_UNIT = 1.0 / 4096                                   # ~0.24 ms
_SCHEDULE = st.lists(
    st.tuples(st.integers(0, 160),                   # when, units (~39 ms)
              st.sampled_from(["work", "op", "served_op"]),
              st.integers(1, 24)),                   # service time, units
    min_size=1, max_size=40)
#: a tick at exactly the queued frame's due time: not yet past it, so queue
_TIE = [(19, "work", 24), (28, "op", 1)]


def _drive(host_cls, schedule, fault_tolerant):
    """Run ``schedule`` against a ``host_cls`` uplink; returns the host, the
    stabilizers it feeds and the ops recorded, in commit order."""
    env = Environment(seed=7)
    WatchedNetwork(env, ConstantLatency(0.0001))
    config = EunomiaConfig(batch_interval=4 * _UNIT,
                           fault_tolerant=fault_tolerant,
                           n_replicas=2 if fault_tolerant else 1)
    host = host_cls(env, config)
    sinks = [Ingest(env, f"r{i}", config) for i in range(config.n_replicas)]
    host.uplink.set_replicas(sinks)
    host.uplink.start()
    recorded = []

    def record():
        op = make_op(host)
        recorded.append(op)
        host.uplink.record(op)

    for when, kind, service in schedule:
        if kind == "op":          # committed at this very instant
            env.loop.schedule_at(when * _UNIT, record)
        else:                     # foreground work, an update at its end
            env.loop.schedule_at(
                when * _UNIT, host._enqueue,
                record if kind == "served_op" else int, service * _UNIT)
    env.run(until=0.5)            # far past the last slot and any resend
    return host, sinks, recorded


def _assert_in_order_exactly_once(host, sinks, recorded, fault_tolerant):
    recorded_ts = [op.ts for op in recorded]
    assert recorded_ts == sorted(recorded_ts)
    assert host.uplink.heartbeats_sent > len(host.queued_beats)
    for sink in sinks:
        # every recorded op ingested exactly once, in order
        assert sink.buffer.pop_stable(2 ** 62) == recorded
        assert sink.partition_time[0] >= (recorded_ts or [0])[-1]
        for beat_ts, ingested in sink.beats:
            assert ingested >= bisect.bisect_right(recorded_ts, beat_ts), (
                f"heartbeat {beat_ts} arrived before an op it covers")
        if not fault_tolerant:    # nothing is ever retransmitted
            assert sink.duplicate_ops_dropped == 0
            assert sink.gap_frames_dropped == 0


@settings(max_examples=200, deadline=None)
@given(host_cls=st.sampled_from([BusyHost, LaneHost]), schedule=_SCHEDULE,
       fault_tolerant=st.booleans())
@example(host_cls=BusyHost, schedule=_TIE, fault_tolerant=False)
@example(host_cls=LaneHost, schedule=_TIE, fault_tolerant=False)
def test_heartbeat_never_overtakes_a_queued_frame(host_cls, schedule,
                                                  fault_tolerant):
    host, sinks, recorded = _drive(host_cls, schedule, fault_tolerant)
    _assert_in_order_exactly_once(host, sinks, recorded, fault_tolerant)


def test_frames_on_cpu_with_heartbeats_on_uplink_is_caught():
    """The property has teeth: split the two over two lanes and the queued
    heartbeat of ``_TIE`` passes the frame it was queued behind."""
    host, sinks, recorded = _drive(SplitLanesHost, _TIE, False)
    assert sinks[0].duplicate_ops_dropped == 1      # the op is lost
    with pytest.raises(AssertionError):
        _assert_in_order_exactly_once(host, sinks, recorded, False)


@settings(max_examples=100, deadline=None)
@given(schedule=_SCHEDULE, fault_tolerant=st.booleans())
def test_frames_leave_within_their_ticks_uplink_costs(schedule,
                                                      fault_tolerant):
    """On a declared ``uplink`` lane a frame waits for the frames queued
    before it at its own tick and for nothing else — whatever ``cpu``
    holds, and with every ``BatchAck`` served on the same lane."""
    host, _, recorded = _drive(LaneHost, schedule, fault_tolerant)
    assert bool(host.frame_slots) == bool(recorded)
    tick, spent = None, 0.0
    for queued_at, cost, on_wire_at in host.frame_slots:
        if queued_at != tick:
            tick, spent = queued_at, 0.0
        spent += cost
        assert on_wire_at == queued_at + spent      # multiples of _UNIT


def test_restart_forgets_the_frame_the_crash_dropped(env):
    """The crash dropped the queued frame and ``recover()`` emptied the
    lanes: the first heartbeats after a restart have nothing to wait
    behind, so none of them goes through the queue."""
    Network(env, ConstantLatency(0.0001))
    host = BusyHost(env, EunomiaConfig())
    replica = FakeReplica(env, "r0")
    host.uplink.set_replicas([replica])
    host.uplink.start()
    host._enqueue(int, 0.05)              # foreground work holds ``cpu``
    host.uplink.record(make_op(host))
    env.run(until=0.0015)                 # the 1 ms tick queued the frame
    assert host.frame_due > 0.05
    host.crash()
    env.run(until=0.003)
    host.recover()
    host.uplink.restart()
    env.run(until=0.02)
    assert replica.batches == []          # that frame died with the crash
    assert len(replica.heartbeats) >= 10  # one per tick since, on time
    assert host.queued_beats == {}


@pytest.mark.parametrize("mutant", [None, "heartbeat_always_from_tick",
                                    "heartbeat_from_tick_at_frame_due"])
def test_the_overtake_property_kills_each_seeded_fault(mutant):
    """The property above has teeth against the flattened tick: it fails
    with the from-tick decision forced true or with its ``>`` against the
    queued frame's due time read as ``>=``, and passes unmutated."""
    if mutant is None:
        test_heartbeat_never_overtakes_a_queued_frame()
        return
    with MUTANTS[mutant].applied():
        with pytest.raises(AssertionError):
            test_heartbeat_never_overtakes_a_queued_frame()


class StreamReplica(Process):
    """Every op and heartbeat timestamp, in arrival order."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.stream = []

    def on_add_op_batch(self, msg, src):
        self.stream.extend(op.ts for op in msg.ops)

    def on_partition_heartbeat(self, msg, src):
        self.stream.append(msg.ts)


def test_a_lagging_clock_still_stamps_an_increasing_stream(env):
    """Property 2 on a partition whose physical clock runs 3 ms behind
    true time: its ops and heartbeats reach the stabilizer in strictly
    increasing timestamp order.  A heartbeat carries the reading the Δ
    guard made and the hybrid clock observes (Alg. 2 l.10–12), so the
    update committed right after it is tagged above it."""
    Network(env, ConstantLatency(0.0001))
    host = Host(env, EunomiaConfig())
    host.clock.offset_us = -3000.0
    replica = StreamReplica(env, "r0")
    host.uplink.set_replicas([replica])
    host.uplink.start()
    for k in range(1, 6):
        env.run(until=0.01 * k)
        host.uplink.record(make_op(host))
    env.run(until=0.06)
    stream = replica.stream
    assert len(stream) > 40 and host.uplink.ops_shipped == 5
    assert all(a < b for a, b in zip(stream, stream[1:]))


def test_the_lagging_clock_test_kills_a_heartbeat_from_true_time(env):
    test_a_lagging_clock_still_stamps_an_increasing_stream(env)
    with MUTANTS["heartbeat_stamped_from_true_time"].applied():
        with pytest.raises(AssertionError):
            test_a_lagging_clock_still_stamps_an_increasing_stream(
                Environment(seed=1234))
