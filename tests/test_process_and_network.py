"""Tests for the process service-queue model and the network."""

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import pytest
from heap_only import heap_only
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ConstantLatency, Environment, Network, RttMatrix
from repro.sim.process import Process

from mutants import MUTANTS


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
    echo = Echo(env, "echo", costs={"Ping": 0.5})
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen[0][0] == pytest.approx(0.501)


def test_service_queue_serializes_work(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", costs={"Ping": 0.1})
    caller = Caller(env, "caller")
    for i in range(3):
        caller.send(echo, Ping(i))
    env.run()
    times = [t for t, _ in echo.seen]
    # back-to-back service slots: 0.101, 0.201, 0.301
    assert times == pytest.approx([0.101, 0.201, 0.301])


@dataclass
class ReplPing(Ping):
    pass


class TwoLane(Echo):
    LANES = {"ReplPing": "replication"}

    on_repl_ping = Echo.on_ping


def test_lanes_are_independent_servers(env):
    Network(env, ConstantLatency(0.001))
    echo = TwoLane(env, "echo", costs={"Ping": 0.1, "ReplPing": 0.1})
    caller = Caller(env, "caller")
    caller.send(echo, Ping(0))      # cpu lane
    caller.send(echo, ReplPing(1))  # replication lane
    env.run()
    times = sorted(t for t, _ in echo.seen)
    # both served in parallel, not 0.101 then 0.201
    assert times == pytest.approx([0.101, 0.101])


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
    echo = Echo(env, "echo", costs={"Ping": 0.1})
    assert _completions(env, echo, [Ping(0), Ping(1), Ping(2)]) == [
        0.101, 0.201, 0.301]
    assert echo._plans[Ping] == (echo._lanes["cpu"], 0.1, echo.on_ping,
                                 False)
    # the reply costs the caller nothing, so it may be handled on arrival
    caller = env.network.processes()[-1]
    assert caller._plans[Pong] == (caller._lanes["cpu"], 0.0, caller.on_pong,
                                   True)


def test_callable_cost_is_evaluated_per_message(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", costs={"Ping": lambda msg: 0.1 * msg.payload})
    # slots of 0.1, 0.3, 0.2 back to back: a cached first cost would
    # give 0.101, 0.201, 0.301
    assert _completions(env, echo, [Ping(1), Ping(3), Ping(2)]) == [
        0.101, 0.401, 0.601]
    assert echo._plans[Ping][1] is None


def test_lane_table_declares_lanes_by_type(env):
    Network(env, ConstantLatency(0.001))

    class Store(Echo):
        LANES = {"Pong": "replication"}

        def on_pong(self, msg, src):
            self.seen.append((self.now, -msg.payload))

    store = Store(env, "store", costs={"Ping": 0.1, "Pong": 0.1})
    caller = Caller(env, "caller")
    for msg in (Ping(1), Pong(1), Ping(2), Pong(2)):
        caller.send(store, msg)
    env.run()
    # the two types are served in parallel, each FIFO on its own lane
    assert [(round(t, 6), p) for t, p in store.seen] == [
        (0.101, 1), (0.101, -1), (0.201, 2), (0.201, -2)]
    assert store._plans[Pong][0] is store._lanes["replication"]
    assert store._plans[Ping][0] is store._lanes["cpu"]


def test_missing_handler_raises_at_dispatch_not_at_plan_build(env):
    Network(env, ConstantLatency(0.001))
    caller = Caller(env, "caller", costs={"Ping": 0.5})
    echo = Echo(env, "echo")
    echo.send(caller, Ping(1))      # Caller has no on_ping
    env.run(until=0.3)              # arrived at 0.001: the plan is built ...
    assert Ping in caller._plans
    with pytest.raises(NotImplementedError, match="Caller 'caller'.*Ping"):
        env.run()                   # ... and the slot completing at 0.501 raises


def test_crash_and_recover_between_arrival_and_completion_drops(env):
    """The epoch guard travels in the scheduled entry, not in the plan."""
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", costs={"Ping": 1.0})
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


#: kind -> its twin served on the "replication" lane (lanes are by type)
_ON_REPLICATION = {kind: type(kind.__name__ + "Repl", (kind,), {})
                   for kind in (Free, Beat, Work, Sized)}


def _message(kind, n, lane, size):
    if lane == "replication":
        kind = _ON_REPLICATION[kind]
    return kind(n, lane, size) if issubclass(kind, Sized) else kind(n, lane)


class Fusing(Process):
    LANES = {twin.__name__: "replication" for twin in _ON_REPLICATION.values()}
    EAGER = frozenset({"Beat", "BeatRepl"})
    COSTS = {"Free": 0.0, "Beat": 1.0, "Work": 1.5,
             "Sized": lambda msg: 0.5 * msg.size}
    COSTS = {**COSTS, **{name + "Repl": cost for name, cost in COSTS.items()}}

    def __init__(self, env, name):
        super().__init__(env, name, costs=self.COSTS)
        self.handled = []      # (lane, n, time)

    def _handle(self, msg, src):
        self.handled.append((msg.lane, msg.n, self.now))

    on_free = on_beat = on_work = on_sized = _handle
    on_free_repl = on_beat_repl = on_work_repl = on_sized_repl = _handle


class TwoEvent(Fusing):
    """The pre-fusion delivery: every message queues a completion."""

    def _plan(self, kind):
        lane, cost, handler, _ = super()._plan(kind)
        plan = self._plans[kind] = (lane, cost, handler, False)
        return plan


def _drive(cls, arrivals):
    """Deliver ``arrivals`` = [(time, msg)] straight into one ``cls``
    process; return it, the events fired and per arrival the lane's
    busy clock before and after."""
    env = Environment(seed=1)
    proc = cls(env, "p")
    slots = []

    def arrive(msg):
        lane = proc._lanes[msg.lane]
        before = lane.busy
        proc.deliver(msg, None)
        slots.append((before, lane.busy))

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
    arrivals = [(when, _message(kind, n, lane, size))
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
    assert proc.handled == [] and proc._lanes == {}


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


# ----------------------------------------------------------------------
# Parked lanes: a lane keeps only its head completion on the heap and
# parks the rest in its FIFO.  The reference, ``heap_only``, schedules
# every completion through ``schedule_at``, as every completion was
# before; the property holds the parked lanes to it, counters included.
# ----------------------------------------------------------------------

class Parking(Fusing):
    """:class:`Fusing` that also logs ``_enqueue`` slots and unrelated
    events, and answers every ``Work`` with an unrelated event at the
    instant it is handled (a same-time tie with parked completions)."""

    def log(self, tag, n):
        self.handled.append((tag, n, self.now))

    def _handle(self, msg, src):
        super()._handle(msg, src)
        if isinstance(msg, Work):
            self._loop.schedule_at(self.now, self.log, "echo", msg.n)

    on_free = on_beat = on_work = on_sized = _handle
    on_free_repl = on_beat_repl = on_work_repl = on_sized_repl = _handle


def _scripted(arrivals, slots=(), events=(), faults=()):
    """One :class:`Parking` process with everything scheduled up front:
    ``arrivals`` = [(time, msg)] delivered, ``slots`` = [(time, cost,
    lane)] enqueued, ``events`` = [time] unrelated loop events, ``faults``
    = [(time, "crash" | "recover")]."""
    env = Environment(seed=1)
    proc = Parking(env, "p")
    loop = env.loop
    for when, msg in arrivals:
        loop.schedule_at(when, proc.deliver, msg, None)
    for n, (when, cost, lane) in enumerate(slots):
        loop.schedule_at(when, partial(proc._enqueue, proc.log, cost,
                                       "slot:" + lane, n, lane=lane))
    for n, when in enumerate(events):
        loop.schedule_at(when, proc.log, "event", n)
    for when, fault in faults:
        loop.schedule_at(when, getattr(proc, fault))
    return proc


def _observed(proc):
    loop = proc._loop
    return list(proc.handled), loop.processed_events, loop.pending()


_HALVES = st.integers(1, 24).map(lambda k: 0.5 * k)


@settings(max_examples=200, deadline=None)
@given(_ARRIVALS,
       st.lists(st.tuples(_HALVES, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          st.sampled_from(["cpu", "replication"])),
                max_size=12),
       st.lists(_HALVES, max_size=8),
       st.lists(st.tuples(_HALVES, st.sampled_from(["crash", "recover"])),
                max_size=3),
       st.lists(_HALVES, max_size=4))
def test_parked_lanes_fire_what_the_heap_alone_fires(drawn, slots, events,
                                                     faults, cuts):
    drawn = sorted(drawn, key=lambda a: a[0])
    arrivals = [(when, _message(kind, n, lane, size))
                for n, (when, kind, lane, size) in enumerate(drawn)]
    sides = [_scripted(arrivals, slots, events, faults) for _ in range(2)]
    for until in sorted(cuts) + [None]:
        sides[0]._loop.run(until)
        with heap_only():
            sides[1]._loop.run(until)
        parked, reference = (_observed(proc) for proc in sides)
        assert parked == reference
    assert sides[0]._loop.pending() == 0


def test_a_backlog_waits_in_its_lane_not_on_the_heap():
    proc = _scripted([(1.0, Work(n, "cpu")) for n in range(50)])
    loop = proc._loop
    loop.run(until=1.0)
    assert (len(loop._heap), loop._parked(), loop.pending()) == (1, 49, 50)
    lane = proc._lanes["cpu"]
    assert lane.queued == 50 and len(lane.parked) == 49
    loop.run(until=4.0)             # Work 0 and 1 done, each with its echo
    assert [n for tag, n, _ in proc.handled if tag == "cpu"] == [0, 1]
    assert lane.queued == 48 and loop.pending() == 48
    loop.run()
    assert lane.queued == 0 and not lane.parked and loop._parked() == 0
    assert loop.processed_events == 50 + 50 + 50    # arrival, slot, echo


def test_a_parked_completion_keeps_the_seq_of_its_reservation():
    """Work 1 is reserved at 1.0 and parked; the event scheduled at 1.5
    for the instant Work 1 completes is sequenced after it, so it fires
    after it, as it would with both on the heap."""
    for side in (nullcontext, heap_only):
        proc = _scripted([(1.0, Work(0, "cpu")), (1.0, Work(1, "cpu"))])
        proc._loop.schedule_at(1.5, proc._loop.schedule_at, 4.0, proc.log,
                               "event", 0)
        with side():
            proc._loop.run()
        assert proc.handled == [("cpu", 0, 2.5), ("echo", 0, 2.5),
                                ("cpu", 1, 4.0), ("event", 0, 4.0),
                                ("echo", 1, 4.0)]
        assert proc._loop.processed_events == 2 + 2 + 2 + 2


def test_crash_moves_a_parked_backlog_onto_the_heap():
    """The backlog fires as stale no-ops at its own times: nothing stays
    parked behind a head whose epoch went stale."""
    counts = []
    for side in (nullcontext, heap_only):
        proc = _scripted([(1.0, Work(n, "cpu")) for n in range(4)],
                         slots=[(1.0, 1.0, "cpu")], faults=[(3.0, "crash")])
        loop = proc._loop
        with side():
            loop.run(until=3.0)
            assert loop.pending() == 4 and loop._parked() == 0
            loop.run(until=6.0)
            counts.append((loop.processed_events, loop.pending()))
            loop.run()
        assert proc.handled == [("cpu", 0, 2.5), ("echo", 0, 2.5)]
        assert loop.pending() == 0 and loop.now == 8.0
    assert counts[0] == counts[1] == (5 + 1 + 1 + 2 + 1, 2)


def test_a_stale_completion_neither_runs_nor_counts():
    """Slot 0 is the head when the process crashes and recovers; when it
    fires, stale, it runs nothing and leaves the count of slot 1, the new
    generation's head, alone."""
    proc = _scripted([], slots=[(1.0, 2.0, "cpu"), (2.0, 2.0, "cpu")],
                     faults=[(1.5, "crash"), (1.5, "recover")])
    loop = proc._loop
    loop.run(until=3.0)
    assert proc.handled == [] and proc._lanes["cpu"].queued == 1
    loop.run()
    assert proc.handled == [("slot:cpu", 1, 4.0)]
    assert proc._lanes["cpu"].queued == 0 and loop.pending() == 0


def test_a_slot_reserved_while_crashed_runs_nothing():
    """Slot 0 is reserved while down and fires while still down; slot 1
    is reserved while down and fires after the recovery, stale; slot 2
    runs."""
    proc = _scripted([], slots=[(1.5, 1.0, "cpu"),
                                (1.5, 3.0, "replication"),
                                (5.0, 1.0, "cpu")],
                     faults=[(1.0, "crash"), (3.0, "recover")])
    proc._loop.run()
    assert proc.handled == [("slot:cpu", 2, 6.0)]


def test_the_parked_seq_test_kills_a_fresh_seq():
    """Re-entering a parked entry through ``schedule_at`` gives it a new
    seq when its head fires, behind the event scheduled at 1.5."""
    test_a_parked_completion_keeps_the_seq_of_its_reservation()
    with MUTANTS["parked_entry_gets_fresh_seq"].applied():
        with pytest.raises(AssertionError):
            test_a_parked_completion_keeps_the_seq_of_its_reservation()


def test_a_backlog_fires_in_place_up_to_the_heap_head_and_the_bound():
    """A 1.5 s Work and three 1.0 s completions reserved at 1.0 fall due
    at 2.5 … 5.5; the Work's echo at 2.5 and the cut at 4.0 interleave
    with them.  The completion at 3.5 waits for the echo its predecessor
    scheduled, and the one at 4.5, next in place after 3.5, waits for the
    next segment."""
    arrivals = [(1.0, Work(0, "cpu"))] + [
        (1.0, _message(Sized, n, "cpu", 2)) for n in (1, 2, 3)]
    for side in (nullcontext, heap_only):
        proc = _scripted(arrivals)
        loop = proc._loop
        with side():
            loop.run(until=4.0)
            assert proc.handled == [("cpu", 0, 2.5), ("echo", 0, 2.5),
                                    ("cpu", 1, 3.5)]
            assert (loop.now, loop.pending()) == (4.0, 2)
            loop.run()
        assert proc.handled[3:] == [("cpu", 2, 4.5), ("cpu", 3, 5.5)]
        assert loop.processed_events == 4 + 4 + 1


class Raising(Parking):
    """:class:`Parking` whose handler raises on message 1, after logging."""

    def _handle(self, msg, src):
        super()._handle(msg, src)
        if msg.n == 1:
            raise RuntimeError("handler failed")

    on_sized = _handle


def test_a_body_that_raises_leaves_its_lane_next_entry_queued():
    """Completion 1 is fired in place after completion 0 and raises out of
    ``run``; completion 2 must still fire in the next ``run``."""
    for side in (nullcontext, heap_only):
        env = Environment(seed=1)
        proc = Raising(env, "p")
        for n in range(3):
            env.loop.schedule_at(1.0, proc.deliver,
                                 _message(Sized, n, "cpu", 2), None)
        with side():
            with pytest.raises(RuntimeError, match="handler failed"):
                env.loop.run()
            env.loop.run()
        assert proc.handled == [("cpu", 0, 2.0), ("cpu", 1, 3.0),
                                ("cpu", 2, 4.0)]
        assert env.loop.pending() == 0


@pytest.mark.parametrize("mutant", ["drain_fires_past_heap_head",
                                    "drain_ignores_until"])
def test_the_in_place_test_kills_a_drain_past_its_bounds(mutant):
    """Fired in place ahead of the heap's head, the completion at 3.5
    overtakes the echo at 2.5; fired past ``run(until=...)``'s bound,
    the one at 4.5 runs in the first segment."""
    test_a_backlog_fires_in_place_up_to_the_heap_head_and_the_bound()
    with MUTANTS[mutant].applied():
        with pytest.raises(AssertionError):
            test_a_backlog_fires_in_place_up_to_the_heap_head_and_the_bound()


def test_the_crash_backlog_test_kills_a_lane_left_parked():
    test_crash_moves_a_parked_backlog_onto_the_heap()
    with MUTANTS["crash_keeps_lane_parked"].applied():
        with pytest.raises(AssertionError):
            test_crash_moves_a_parked_backlog_onto_the_heap()


def test_the_stale_completion_test_kills_a_stale_entry_that_releases():
    """Without the generation check the stale slot 0 runs at 3.0 and
    counts the new head out."""
    test_a_stale_completion_neither_runs_nor_counts()
    with MUTANTS["stale_entry_releases"].applied():
        with pytest.raises(AssertionError):
            test_a_stale_completion_neither_runs_nor_counts()


def test_the_crashed_slot_test_kills_a_slot_reserved_while_crashed_running():
    """Without the no-op body slot 0 runs at 2.5 on a crashed process."""
    test_a_slot_reserved_while_crashed_runs_nothing()
    with MUTANTS["slot_reserved_while_crashed_runs"].applied():
        with pytest.raises(AssertionError):
            test_a_slot_reserved_while_crashed_runs_nothing()


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
    echo = Echo(env, "echo", costs={"Ping": 1.0})
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
    task.cancel()
    env.loop.run(until=2.0)
    assert len(count) == 5


def test_periodic_task_dies_with_a_crash(env):
    """The crash guard cancels the chain at its next firing; recovery
    re-arms by calling ``periodic`` again."""
    proc = Process(env, "p")
    ticks = []
    task = proc.periodic(0.1, lambda: ticks.append(round(proc.now, 6)))
    env.loop.schedule_at(0.25, proc.crash)
    env.loop.schedule_at(0.35, proc.recover)
    env.loop.run(until=1.0)
    assert ticks == [0.1, 0.2] and task.cancelled
    assert env.loop.pending() == 0


def test_periodic_non_positive_period_raises_naming_task_and_process(env):
    """A zero period must fail loudly at arm time instead of re-arming at
    ``now`` forever."""
    from repro.sim import SimulationError

    proc = Process(env, "p7")

    def flush():
        pass

    with pytest.raises(SimulationError,
                       match=r"flush of p7 has non-positive period 0\.0"):
        proc.periodic(0.0, flush)
    with pytest.raises(SimulationError, match="non-positive period -1"):
        proc.periodic(-1, flush)
    assert env.loop.pending() == 0


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
