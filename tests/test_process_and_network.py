"""Tests for the process service-queue model and the network."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ConstantLatency, Environment, Network, RttMatrix
from repro.sim.process import CostModel, Process


@dataclass
class Ping:
    payload: int = 0
    size_bytes: int = 10


@dataclass
class Pong:
    payload: int = 0


class Echo(Process):
    def __init__(self, env, name, **kw):
        super().__init__(env, name, **kw)
        self.seen = []

    def on_ping(self, msg, src):
        self.seen.append((self.now, msg.payload))
        self.send(src, Pong(msg.payload))


class Caller(Process):
    def __init__(self, env, name, **kw):
        super().__init__(env, name, **kw)
        self.replies = []

    def on_pong(self, msg, src):
        self.replies.append((self.now, msg.payload))


@pytest.fixture
def pair(env):
    Network(env, ConstantLatency(0.001))
    return Echo(env, "echo"), Caller(env, "caller")


def test_message_roundtrip(env, pair):
    echo, caller = pair
    caller.send(echo, Ping(7))
    env.run()
    assert echo.seen == [(0.001, 7)]
    assert caller.replies == [(0.002, 7)]


def test_service_cost_delays_handling(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 0.5}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen[0][0] == pytest.approx(0.501)


def test_service_queue_serializes_work(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    caller = Caller(env, "caller")
    for i in range(3):
        caller.send(echo, Ping(i))
    env.run()
    times = [t for t, _ in echo.seen]
    # back-to-back service slots: 0.101, 0.201, 0.301
    assert times == pytest.approx([0.101, 0.201, 0.301])


def test_lanes_are_independent_servers(env):
    Network(env, ConstantLatency(0.001))

    class TwoLane(Echo):
        def lane_of(self, msg):
            return "replication" if msg.payload % 2 else "cpu"

    echo = TwoLane(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(0))  # cpu lane
    caller.send(echo, Ping(1))  # replication lane
    env.run()
    times = sorted(t for t, _ in echo.seen)
    # both served in parallel, not 0.101 then 0.201
    assert times == pytest.approx([0.101, 0.101])


def test_cost_model_callable_and_per_byte():
    model = CostModel(default=1.0,
                      costs={"Ping": lambda msg: msg.payload * 0.5},
                      per_byte=0.01)
    assert model.cost_of(Ping(4)) == pytest.approx(4 * 0.5 + 10 * 0.01)
    assert model.cost_of(Pong()) == pytest.approx(1.0)  # no size_bytes


# ----------------------------------------------------------------------
# Delivery plans: (lane, fixed cost, handler, fusable) cached per message
# type.
# Each test sends one message first so the plan exists, then shows that
# what a plan must NOT cache is still evaluated per message.
# ----------------------------------------------------------------------

def _completions(env, echo, msgs):
    """Send ``msgs`` at t=0 over a 1 ms link; return the handler completion
    times in arrival order."""
    caller = Caller(env, "caller")
    for msg in msgs:
        caller.send(echo, msg)
    env.run()
    return [round(t, 6) for t, _ in echo.seen]


def test_plan_caches_fixed_cost_lane_and_handler(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    assert _completions(env, echo, [Ping(0), Ping(1), Ping(2)]) == [
        0.101, 0.201, 0.301]
    assert echo._plans[Ping] == ("cpu", 0.1, echo.on_ping, False)
    # the reply costs the caller nothing, so it may be handled on arrival
    caller = env.network.processes()[-1]
    assert caller._plans[Pong] == ("cpu", 0.0, caller.on_pong, True)


def test_callable_cost_is_evaluated_per_message(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(
        costs={"Ping": lambda msg: 0.1 * msg.payload}))
    # slots of 0.1, 0.3, 0.2 back to back: a cached first cost would
    # give 0.101, 0.201, 0.301
    assert _completions(env, echo, [Ping(1), Ping(3), Ping(2)]) == [
        0.101, 0.401, 0.601]
    assert echo._plans[Ping][1] is None


def test_per_byte_cost_is_evaluated_per_message(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(default=0.1, per_byte=0.01))
    # 0.1 + 0.01 * size: slots of 0.2, 0.5, 0.1
    msgs = [Ping(0, size_bytes=10), Ping(1, size_bytes=40), Ping(2, size_bytes=0)]
    assert _completions(env, echo, msgs) == [0.201, 0.701, 0.801]
    assert echo._plans[Ping][1] is None


def test_payload_dependent_lane_override_is_called_per_message(env):
    Network(env, ConstantLatency(0.001))

    class TwoLane(Echo):
        def lane_of(self, msg):
            return "replication" if msg.payload % 2 else "cpu"

    echo = TwoLane(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    # the first message would pin the type to "cpu" if the lane were cached
    assert _completions(env, echo, [Ping(i) for i in range(4)]) == [
        0.101, 0.101, 0.201, 0.201]
    assert echo._plans[Ping][0] is None


def test_lane_table_declares_lanes_by_type(env):
    Network(env, ConstantLatency(0.001))

    class Store(Echo):
        LANES = {"Pong": "replication"}

        def on_pong(self, msg, src):
            self.seen.append((self.now, -msg.payload))

    store = Store(env, "store", cost_model=CostModel(default=0.1))
    caller = Caller(env, "caller")
    for msg in (Ping(1), Pong(1), Ping(2), Pong(2)):
        caller.send(store, msg)
    env.run()
    # the two types are served in parallel, each FIFO on its own lane
    assert [(round(t, 6), p) for t, p in store.seen] == [
        (0.101, 1), (0.101, -1), (0.201, 2), (0.201, -2)]
    assert store.lane_of(Pong()) == "replication"
    assert store.lane_of(Ping()) == "cpu"


def test_missing_handler_raises_at_dispatch_not_at_plan_build(env):
    Network(env, ConstantLatency(0.001))
    caller = Caller(env, "caller", cost_model=CostModel(costs={"Ping": 0.5}))
    echo = Echo(env, "echo")
    echo.send(caller, Ping(1))      # Caller has no on_ping
    env.run(until=0.3)              # arrived at 0.001: the plan is built ...
    assert Ping in caller._plans
    with pytest.raises(NotImplementedError, match="Caller 'caller'.*Ping"):
        env.run()                   # ... and the slot completing at 0.501 raises


def test_crash_and_recover_between_arrival_and_completion_drops(env):
    """The epoch guard travels in the scheduled entry, not in the plan."""
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 1.0}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run(until=1.5)              # plan cached by a full delivery
    caller.send(echo, Ping(2))      # arrives 1.501, completes 2.501
    env.loop.schedule_at(2.0, echo.crash)
    env.loop.schedule_at(2.1, echo.recover)
    caller.send(echo, Ping(3))      # same epoch as Ping(2): dropped too
    env.loop.schedule_at(2.2, caller.send, echo, Ping(4))
    env.run()
    assert [p for _, p in echo.seen] == [1, 4]


# ----------------------------------------------------------------------
# Fused delivery: a fusable message on a strictly idle lane is handled in
# its arrival event.  The reference below is the two-event path every
# message took before; the property holds the fused path to it.
# ----------------------------------------------------------------------

@dataclass
class Free:          # fixed cost 0.0: fusable, same instant either way
    n: int
    lane: str


@dataclass
class Beat:          # EAGER with a cost: fusable, handled ``cost`` earlier
    n: int
    lane: str


@dataclass
class Work:          # fixed cost, not declared: never fused
    n: int
    lane: str


@dataclass
class Sized:         # callable cost: never fused
    n: int
    lane: str
    size: int = 1


class Fusing(Process):
    EAGER = frozenset({"Beat"})
    COSTS = {"Free": 0.0, "Beat": 1.0, "Work": 1.5,
             "Sized": lambda msg: 0.5 * msg.size}

    def __init__(self, env, name):
        super().__init__(env, name, cost_model=CostModel(costs=self.COSTS))
        self.handled = []      # (lane, n, time)

    def lane_of(self, msg):
        return msg.lane

    def _handle(self, msg, src):
        self.handled.append((msg.lane, msg.n, self.now))

    on_free = on_beat = on_work = on_sized = _handle


class TwoEvent(Fusing):
    """The pre-fusion delivery: every message queues a completion."""

    def _plan(self, kind):
        lane, cost, handler, _ = super()._plan(kind)
        plan = self._plans[kind] = (lane, cost, handler, False)
        return plan


def _drive(cls, arrivals):
    """Deliver ``arrivals`` = [(time, msg)] straight into one ``cls``
    process; return it, the events fired and per arrival the lane's
    ``_lane_busy`` before and after."""
    env = Environment(seed=1)
    proc = cls(env, "p")
    slots = []

    def arrive(msg):
        before = proc._lane_busy.get(msg.lane, 0.0)
        proc.deliver(msg, None)
        slots.append((before, proc._lane_busy[msg.lane]))

    for when, msg in arrivals:
        env.loop.schedule_at(when, arrive, msg)
    env.run()
    return proc, env.loop.processed_events, slots


# Times and costs are multiples of 0.5, so ``busy == now`` ties are exact.
_ARRIVALS = st.lists(
    st.tuples(st.integers(1, 24).map(lambda k: 0.5 * k),
              st.sampled_from([Free, Beat, Work, Sized]),
              st.sampled_from(["cpu", "replication"]),
              st.integers(0, 3)),
    min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(_ARRIVALS)
def test_fused_delivery_matches_the_two_event_path(drawn):
    drawn = sorted(drawn, key=lambda a: a[0])      # stable: ties keep order
    arrivals = [(when, kind(n, lane, size) if kind is Sized else kind(n, lane))
                for n, (when, kind, lane, size) in enumerate(drawn)]
    fused, fused_events, fused_slots = _drive(Fusing, arrivals)
    ref, ref_events, ref_slots = _drive(TwoEvent, arrivals)
    # every arrival reserves the same slot on the same lane
    assert fused_slots == ref_slots
    expected = {}
    for lane, n, at in ref.handled:
        when, msg = arrivals[n]
        before = ref_slots[n][0]
        if isinstance(msg, Beat) and before < when:
            at -= Fusing.COSTS["Beat"]             # exactly ``cost`` earlier
            assert at == when
        expected[n] = at
    assert {n: at for _, n, at in fused.handled} == expected
    for lane in ("cpu", "replication"):
        order = [n for ln, n, _ in fused.handled if ln == lane]
        assert order == [n for ln, n, _ in ref.handled if ln == lane]
        # FIFO per lane, same-instant arrivals included
        assert order == [n for n, (_, msg) in enumerate(arrivals)
                         if msg.lane == lane]
    # one event saved per fusable message that found its lane idle
    saved = sum(1 for (when, msg), (before, _) in zip(arrivals, ref_slots)
                if isinstance(msg, (Free, Beat)) and before < when)
    assert ref_events - fused_events == saved


def test_same_instant_arrivals_second_one_queues():
    """``busy == now`` is not idle: the second arrival of an instant takes
    the two-event path, so it cannot be handled before a completion of its
    lane that is queued at the same instant."""
    arrivals = [(1.0, Work(0, "cpu")),      # completes at 2.5
                (2.5, Free(1, "cpu")),      # arrives with busy == now
                (2.5, Free(2, "cpu")),
                (4.0, Free(3, "cpu")),      # strictly idle: fused
                (4.0, Free(4, "cpu"))]      # busy == now again: queued
    proc, events, _ = _drive(Fusing, arrivals)
    assert proc.handled == [("cpu", n, at) for n, at in
                            enumerate([2.5, 2.5, 2.5, 4.0, 4.0])]
    assert events == 5 + 4                  # only message 3 saved its event


def test_eager_handler_runs_at_arrival_and_still_occupies_its_slot():
    proc, events, slots = _drive(Fusing, [(1.0, Beat(0, "cpu")),
                                          (1.5, Free(1, "cpu"))])
    assert proc.handled == [("cpu", 0, 1.0), ("cpu", 1, 2.0)]
    assert slots == [(0.0, 2.0), (2.0, 2.0)]
    assert events == 2 + 1


def test_fused_delivery_to_a_crashed_process_is_a_noop():
    env = Environment(seed=1)
    proc = Fusing(env, "p")
    proc.crash()
    env.loop.schedule_at(1.0, proc.deliver, Free(0, "cpu"), None)
    env.run()
    assert proc.handled == [] and proc._lane_busy == {}


def test_crash_drops_a_fusable_message_that_had_to_queue():
    env = Environment(seed=1)
    proc = Fusing(env, "p")
    for when, msg in [(1.0, Work(0, "cpu")), (1.5, Free(1, "cpu")),
                      (1.5, Beat(2, "cpu"))]:
        env.loop.schedule_at(when, proc.deliver, msg, None)
    env.loop.schedule_at(2.0, proc.crash)   # all three complete at >= 2.5
    env.loop.schedule_at(2.1, proc.recover)
    env.loop.schedule_at(3.0, proc.deliver, Free(3, "cpu"), None)
    env.run()
    assert proc.handled == [("cpu", 3, 3.0)]


def test_missing_handler_of_a_zero_cost_message_raises_at_arrival(env):
    Network(env, ConstantLatency(0.001))
    caller = Caller(env, "caller")          # no cost model: Ping costs 0.0
    echo = Echo(env, "echo")
    echo.send(caller, Ping(1))
    env.run(until=0.0005)
    with pytest.raises(NotImplementedError, match="Caller 'caller'.*Ping"):
        env.run(until=0.001)


def test_unknown_message_raises(env, pair):
    echo, caller = pair
    echo.send(caller, Ping(1))  # Caller has no on_ping
    with pytest.raises(NotImplementedError):
        env.run()


def test_crash_drops_deliveries_and_timers(env, pair):
    echo, caller = pair
    echo.crash()
    caller.send(echo, Ping(1))
    fired = []
    caller.after(0.5, fired.append, "ok")
    env.run()
    assert echo.seen == []
    assert fired == ["ok"]


def test_crash_drops_inflight_service(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 1.0}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.loop.schedule(0.5, echo.crash)  # mid-service
    env.run()
    assert echo.seen == []


def test_recover_accepts_new_work(env, pair):
    echo, caller = pair
    echo.crash()
    caller.send(echo, Ping(1))
    env.loop.schedule(0.01, echo.recover)
    env.loop.schedule(0.02, lambda: caller.send(echo, Ping(2)))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_periodic_task_fires_and_stops(env):
    proc = Process(env, "p")
    count = []
    task = proc.periodic(0.1, lambda: count.append(proc.now))
    env.loop.run(until=0.55)
    task.stop()
    env.loop.run(until=2.0)
    assert len(count) == 5


def test_periodic_with_cost_consumes_service_time(env):
    proc = Process(env, "p")
    times = []
    proc.periodic(0.1, lambda: times.append(proc.now), cost=0.05)
    env.loop.run(until=0.36)
    # each firing runs 0.05s after its tick
    assert times == pytest.approx([0.15, 0.25, 0.35])


def test_periodic_period_mutated_to_zero_raises_naming_task_and_process(env):
    """The Fig. 7 straggler injector mutates ``batch_interval`` live; a zero
    must fail loudly instead of re-arming at ``now`` forever."""
    from repro.sim import SimulationError

    proc = Process(env, "p7")
    proc.batch_interval = 0.1
    ticks = []

    def flush():
        ticks.append(proc.now)

    task = proc.periodic(lambda: proc.batch_interval, flush)
    env.loop.schedule_at(0.25, setattr, proc, "batch_interval", 0.0)
    with pytest.raises(SimulationError,
                       match=r"flush of p7 has non-positive period 0\.0"):
        env.loop.run(until=1.0)
    assert ticks == pytest.approx([0.1, 0.2, 0.3])
    task.period = 0.5               # the handle's interval is assignable
    assert task.period == 0.5
    with pytest.raises(SimulationError, match="non-positive period -1"):
        proc.periodic(-1, flush)


def test_network_fifo_per_link(env):
    # Jittery latencies must not reorder messages on one link.
    class Jitter(ConstantLatency):
        def __init__(self):
            self.calls = 0

        def delay(self, src, dst, rng):
            self.calls += 1
            return 0.010 if self.calls % 2 else 0.001

    Network(env, Jitter())
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    for i in range(6):
        caller.send(echo, Ping(i))
    env.run()
    assert [p for _, p in echo.seen] == list(range(6))


def test_network_loss(env):
    net = Network(env, ConstantLatency(0.001), loss_rate=1.0)
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    assert net.messages_dropped == 1


def test_link_loss_is_directional(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.set_link_loss(caller, echo, 1.0)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    net.set_link_loss(caller, echo, 0.0)
    caller.send(echo, Ping(2))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_disconnect_and_reconnect(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.disconnect(caller, echo)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    net.reconnect(caller, echo)
    caller.send(echo, Ping(2))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_link_extra_delay(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.set_link_extra_delay(caller, echo, 0.5)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen[0][0] == pytest.approx(0.501)
    net.set_link_extra_delay(caller, echo, 0.0)


def test_rtt_matrix_one_way_delays():
    rtt = RttMatrix([[0, 80], [80, 0]], intra_us=100, jitter_frac=0.0)
    assert rtt.one_way_s(0, 1) == pytest.approx(0.040)
    assert rtt.one_way_s(0, 0) == pytest.approx(0.0001)


def test_rtt_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        RttMatrix([[0, 1, 2], [1, 0, 2]])


def test_bytes_accounting(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert net.bytes_sent == 10  # Ping.size_bytes; Pong has none
