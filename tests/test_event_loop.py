"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.loop import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, fired.append, "c")
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(2.0, fired.append, "b")
    loop.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for label in "abcde":
        loop.schedule(1.0, fired.append, label)
    loop.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "early")
    loop.schedule(5.0, fired.append, "late")
    loop.run(until=2.0)
    assert fired == ["early"]
    assert loop.now == 2.0  # clock advances to the boundary
    loop.run()
    assert fired == ["early", "late"]


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    keep = loop.schedule(1.0, fired.append, "keep")
    drop = loop.schedule(1.0, fired.append, "drop")
    drop.cancel()
    loop.run()
    assert fired == ["keep"]
    assert keep.time == 1.0


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()
    assert loop.processed_events == 0


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)


def test_events_scheduled_during_execution_fire():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            loop.schedule(1.0, chain, n + 1)

    loop.schedule(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_step_executes_one_event():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, 1)
    loop.schedule(2.0, fired.append, 2)
    assert loop.step() is True
    assert fired == [1]
    assert loop.step() is True
    assert loop.step() is False


def test_max_events_bound():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(float(i), fired.append, i)
    loop.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_event_budget_running_out_before_until_never_moves_time_back():
    """``run(until=T, max_events=N)`` whose budget runs out first stays at
    the last event fired: jumping to T would leave entries before T queued,
    and the next run would fire them with ``now`` going backwards."""
    loop = EventLoop()
    seen = []
    for t in (1.0, 2.0, 3.0):
        loop.schedule_at(t, lambda: seen.append(loop.now))
    loop.run(until=10.0, max_events=1)
    assert loop.now == 1.0
    loop.run(until=10.0, max_events=5)
    assert seen == [1.0, 2.0, 3.0]
    assert loop.now == 10.0           # drained: the window is closed
    loop.schedule_at(12.0, seen.append, 12.0)
    loop.run(until=11.0, max_events=1)
    assert loop.now == 11.0           # the head lies beyond ``until``


def test_pending_excludes_cancelled():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    event = loop.schedule(2.0, lambda: None)
    event.cancel()
    assert loop.pending() == 1


def test_pending_counter_tracks_schedule_cancel_and_pop():
    """pending() is a live counter (O(1)), not a heap scan — it must stay
    exact through every combination of firing, cancellation (including
    double-cancel), and partial runs."""
    loop = EventLoop()
    events = [loop.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert loop.pending() == 6
    events[4].cancel()
    events[4].cancel()          # idempotent: must not decrement twice
    assert loop.pending() == 5
    loop.step()                 # fires t=1
    assert loop.pending() == 4
    loop.run(until=3.0)         # fires t=2, t=3
    assert loop.pending() == 2
    events[5].cancel()
    assert loop.pending() == 1
    loop.run()                  # fires t=4; cancelled t=5/t=6 lazily popped
    assert loop.pending() == 0
    assert not loop._heap


def test_cancel_after_fire_does_not_corrupt_pending():
    """A handle cancelled after its event already fired (e.g. a timeout
    cancelled on completion) must be a no-op, not a double decrement."""
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.pending() == 0
    event.cancel()
    event.cancel()
    assert loop.pending() == 0
    assert event.cancelled  # the flag still reads as cancelled (harmless)
    loop.schedule(2.0, lambda: None)
    assert loop.pending() == 1


def test_pending_is_constant_time_under_large_heaps():
    """The counter must not degrade into an O(heap) scan again: polling
    pending() many times against a large heap has to stay far cheaper than
    the equivalent scans."""
    import time

    loop = EventLoop()
    for i in range(50_000):
        loop.schedule(float(i), lambda: None)
    polls = 10_000
    start = time.perf_counter()
    for _ in range(polls):
        loop.pending()
    elapsed = time.perf_counter() - start
    # 10k O(1) polls are microseconds each even on slow CI; 10k O(heap)
    # scans of a 50k heap would take tens of seconds.
    assert elapsed < 1.0
    assert loop.pending() == 50_000


def test_loop_is_not_reentrant():
    loop = EventLoop()
    errors = []

    def reenter():
        try:
            loop.run()
        except SimulationError:
            errors.append(True)

    loop.schedule(1.0, reenter)
    loop.run()
    assert errors == [True]


def test_determinism_same_schedule_same_history():
    def history():
        loop = EventLoop()
        out = []
        for i in range(50):
            loop.schedule((i * 7919 % 13) / 10.0, out.append, i)
        loop.run()
        return out

    assert history() == history()


# ----------------------------------------------------------------------
# schedule_periodic
# ----------------------------------------------------------------------

def test_periodic_fires_every_interval():
    loop = EventLoop()
    times = []
    handle = loop.schedule_periodic(1.0, lambda: times.append(loop.now))
    loop.run(until=3.5)
    handle.cancel()
    loop.run()
    assert times == [1.0, 2.0, 3.0]
    assert not handle.active


def test_periodic_phase_offsets_first_firing():
    loop = EventLoop()
    times = []
    handle = loop.schedule_periodic(1.0, lambda: times.append(loop.now),
                                    phase=0.25)
    loop.run(until=2.5)
    handle.cancel()
    assert times == [0.25, 1.25, 2.25]


def test_periodic_cancel_from_inside_callback():
    loop = EventLoop()
    fired = []
    handle = loop.schedule_periodic(1.0, lambda: (
        fired.append(loop.now),
        handle.cancel() if len(fired) == 2 else None))
    loop.run()
    assert fired == [1.0, 2.0]
    assert loop.pending() == 0


def test_periodic_callable_interval_reread_each_arming():
    loop = EventLoop()
    times = []
    step = [1.0]

    def fire():
        times.append(loop.now)
        step[0] = 0.5           # takes effect from the *next* arming on

    handle = loop.schedule_periodic(lambda: step[0], fire)
    loop.run(until=2.3)
    handle.cancel()
    assert times == [1.0, 1.5, 2.0]


def test_periodic_rearms_after_callback_returns():
    """The next firing is scheduled *after* the callback body runs, so any
    events the callback schedules at the next firing time get earlier
    sequence numbers and fire first — the order hand-rolled self-
    rescheduling loops produced."""
    loop = EventLoop()
    order = []

    def fire():
        order.append(("tick", loop.now))
        loop.schedule(1.0, order.append, ("inner", loop.now + 1.0))

    handle = loop.schedule_periodic(1.0, fire)
    loop.run(until=2.5)
    handle.cancel()
    assert order == [("tick", 1.0), ("inner", 2.0), ("tick", 2.0)]


def test_schedule_at_returns_the_sequence_number_not_a_handle():
    """The queue holds plain ``(time, seq, fn, args)`` tuples; only
    ``schedule`` / ``schedule_periodic`` callers pay for a handle."""
    loop = EventLoop()
    assert loop.schedule_at(1.0, lambda: None) == 0
    assert loop.schedule_at(0.5, lambda: None) == 1
    assert loop._heap[0][:2] == (0.5, 1)
    assert all(type(entry) is tuple and len(entry) == 4
               for entry in loop._heap)


def test_event_cancelling_itself_from_its_callback_is_a_noop():
    loop = EventLoop()
    handles = []
    handles.append(loop.schedule(1.0, lambda: handles[0].cancel()))
    loop.schedule(2.0, lambda: None)
    loop.run(until=1.5)
    assert (loop.processed_events, loop.pending()) == (1, 1)
    loop.run()
    assert (loop.processed_events, loop.pending()) == (2, 0)


LOOPS = [EventLoop]


@pytest.mark.parametrize("make_loop", LOOPS)
@pytest.mark.parametrize("period", [0, 0.0, -0.5, float("nan")])
def test_non_positive_period_is_rejected_at_arm_time(make_loop, period):
    loop = make_loop()

    def beat():
        pass

    with pytest.raises(SimulationError, match="beat.*non-positive period"):
        loop.schedule_periodic(period, beat)
    with pytest.raises(SimulationError, match="non-positive period"):
        loop.schedule_periodic(lambda: period, beat, phase=0.25)
    assert loop.pending() == 0


@pytest.mark.parametrize("make_loop", LOOPS)
def test_period_turning_zero_raises_at_rearm_instead_of_spinning(make_loop):
    """Regression: a callable interval that later returns 0 used to re-arm
    at ``now`` forever, so ``run(until=...)`` never returned."""
    loop = make_loop()
    step = [0.001]
    fired = []

    def beat():
        fired.append(loop.now)
        if len(fired) == 3:
            step[0] = 0.0

    loop.schedule_periodic(lambda: step[0], beat, name="beat@p7")
    with pytest.raises(SimulationError, match="beat@p7.*non-positive period"):
        loop.run(until=1.0)
    assert len(fired) == 3
    assert loop.pending() == 0      # the chain is dead, not re-armed
    loop.run(until=1.0)             # and the loop is usable again
    assert loop.now == 1.0
