"""Property tests for the batched simulation core.

Two equivalence claims underpin every batching optimisation in
``repro.sim`` — if either broke, the goldens would drift and every
experiment figure would silently change:

1. **Scheduler backends are interchangeable.**  The slotted time-wheel
   (:class:`repro.sim.loop.TimeWheelLoop`) fires arbitrary mixes of
   one-shot, periodic, cancelled, and respawning events in exactly the
   same order as the reference binary heap, across ``run(until=...)``
   segment boundaries, including events beyond the wheel horizon (the
   overflow heap + migration path).

2. **``send_many`` is a loop of ``send``.**  Batched transmission over a
   link must produce byte-for-byte the same delivery log — per-message
   delivery times, per-link FIFO order, loss outcomes, and all four
   network counters — as sending the same messages one at a time,
   because both consume the network RNG in the same sequence.  Only the
   *event count* may differ (same-time groups collapse into one
   ``deliver_batch``), which is invisible at the (time, payload) level.

The protocol-level pin of the same claims is
``tests/test_protocol_goldens.py::test_time_wheel_reproduces_goldens``.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.env import Environment
from repro.sim.latency import ConstantLatency, JitteredLatency
from repro.sim.loop import EventLoop, TimeWheelLoop
from repro.sim.network import Network
from repro.sim.process import Process

# ----------------------------------------------------------------------
# Property 1: time-wheel == heap, for arbitrary schedules
# ----------------------------------------------------------------------

#: base time unit, deliberately not a multiple of the wheel resolution so
#: events land mid-slot and slot rounding errors would be caught
_U = 0.00037


def _run_program(loop, one_shots, periodics, boundaries):
    """Execute a generated schedule on ``loop``; return its firing log.

    Each boundary is ``(units, mid_shots)``: after ``run(until=units*_U)``
    the mid-shots are scheduled *between* segments — exactly the windowed
    GeoSystem.run()/quiesce() pattern, where fresh events land in a wheel
    whose cursor already advanced (possibly far ahead, via the empty-ring
    overflow jump and a pushed-back event).
    """
    log = []
    handles = []
    ids = itertools.count()

    def fire_one(i, delay_units, respawn):
        log.append((loop.now, "one", i))
        if respawn:
            loop.schedule(delay_units * 0.5 * _U + _U,
                          fire_child, i)

    def fire_child(i):
        log.append((loop.now, "child", i))

    def schedule_one(delay_units, cancel, respawn):
        i = next(ids)
        event = loop.schedule(delay_units * _U, fire_one, i, delay_units,
                              respawn)
        if cancel:
            event.cancel()

    for shot in one_shots:
        schedule_one(*shot)

    for j, (interval_units, firings, phase_units) in enumerate(periodics):
        remaining = [firings]

        def fire_periodic(j=j, remaining=remaining):
            log.append((loop.now, "periodic", j))
            remaining[0] -= 1
            if remaining[0] == 0:
                handles[j].cancel()     # cancel from inside the callback

        handles.append(loop.schedule_periodic(
            interval_units * _U, fire_periodic,
            phase=None if phase_units == 0 else phase_units * _U))

    for units, mid_shots in boundaries:
        loop.run(until=units * _U)
        log.append(("segment", loop.now, loop.pending()))
        for shot in mid_shots:
            schedule_one(*shot)
    loop.run()
    return log


@settings(max_examples=60, deadline=None)
@given(
    one_shots=st.lists(
        st.tuples(st.integers(0, 60), st.booleans(), st.booleans()),
        max_size=10),
    periodics=st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(0, 5)),
        max_size=3),
    boundaries=st.lists(
        st.tuples(
            st.integers(1, 70),
            st.lists(st.tuples(st.integers(0, 60), st.booleans(),
                               st.booleans()),
                     max_size=3)),
        max_size=3).map(lambda bs: sorted(bs, key=lambda b: b[0])),
    resolution_us=st.sampled_from([200, 1000, 5000]),
    wheel_slots=st.sampled_from([2, 4, 64]),
)
def test_time_wheel_matches_heap(one_shots, periodics, boundaries,
                                 resolution_us, wheel_slots):
    """Any mix of one-shots (some cancelled, some respawning), periodics
    (self-cancelling mid-run), and run-until segments fires identically on
    both backends.  Tiny wheels (2 slots at 200 us over delays up to ~22 ms)
    force nearly every event through the overflow heap and its migration
    path; large resolutions force many events into one slot.  Boundaries
    carry fresh one-shots scheduled *between* segments — including delays
    far shorter than the gap to the overflow head — so the wheel must keep
    its cursor sweepable after a ``run(until=...)`` push-back."""
    heap_loop = EventLoop()
    wheel_loop = TimeWheelLoop(resolution=resolution_us * 1e-6,
                               wheel_slots=wheel_slots)
    heap_log = _run_program(heap_loop, one_shots, periodics, boundaries)
    wheel_log = _run_program(wheel_loop, one_shots, periodics, boundaries)
    assert wheel_log == heap_log
    assert wheel_loop.processed_events == heap_loop.processed_events
    assert wheel_loop.now == heap_loop.now
    assert wheel_loop.pending() == heap_loop.pending() == 0


def _run_cancel_program(loop, shots, cuts):
    """Drive one cancellation program; return its log.

    ``shots`` are ``(delay_units, mode, victim)`` one-shots made through
    ``loop.schedule`` (the handle-on-demand door).  ``mode`` cancels the
    shot's own handle ``"before"`` it can fire, ``"twice"``, or from
    ``"inside"`` its own callback (already fired: a no-op); ``"other"``
    cancels shot ``victim`` from inside the callback, whatever state that
    one is in.  ``cuts`` are ``(until_units, victims)``: after each
    ``run(until=...)`` segment the victims' handles are cancelled from
    outside — fired ones (no-op), pending ones, and on the wheel the one
    that was popped past the boundary and pushed back.

    After every segment ``pending()`` and ``processed_events`` must equal
    the model: an entry is fired, dead (cancelled while queued) or pending.
    """
    log, handles, fired, dead = [], [], set(), set()

    def cancel(j):
        if j < len(handles):
            if j not in fired:
                dead.add(j)
            handles[j].cancel()

    def fire(i, mode, victim):
        assert i not in dead, "a cancelled entry fired"
        fired.add(i)
        log.append((loop.now, i))
        if mode == "inside":
            cancel(i)
        elif mode == "other":
            cancel(victim)

    def check():
        assert loop.processed_events == len(fired)
        assert loop.pending() == len(handles) - len(fired) - len(dead)

    for i, (delay_units, mode, victim) in enumerate(shots):
        handles.append(loop.schedule(delay_units * _U, fire, i, mode, victim))
        if mode in ("before", "twice"):
            cancel(i)
        if mode == "twice":
            cancel(i)
    check()
    for units, victims in cuts:
        loop.run(until=units * _U)
        check()
        for j in victims:
            cancel(j)
        check()
        log.append(("segment", loop.now, loop.pending()))
    loop.run()
    check()
    assert loop.pending() == 0
    return log


@settings(max_examples=80, deadline=None)
@given(
    shots=st.lists(
        st.tuples(st.integers(0, 60),
                  st.sampled_from(["keep", "keep", "before", "twice",
                                   "inside", "other"]),
                  st.integers(0, 11)),
        max_size=12),
    cuts=st.lists(
        st.tuples(st.integers(1, 70),
                  st.lists(st.integers(0, 11), max_size=4)),
        max_size=4).map(lambda cs: sorted(cs, key=lambda c: c[0])),
    resolution_us=st.sampled_from([200, 1000, 5000]),
    wheel_slots=st.sampled_from([2, 4, 64]),
)
def test_cancellation_is_exact_and_identical_on_both_backends(
        shots, cuts, resolution_us, wheel_slots):
    """Handles are made on demand and cancellation is a seq filed in the
    loop's cancelled set: cancel before fire, after fire, twice, from
    inside the callback and of a pushed-back wheel entry must all leave
    ``pending()`` / ``processed_events`` exact, never fire a cancelled
    entry, and behave identically on the heap and the wheel."""
    heap_log = _run_cancel_program(EventLoop(), shots, cuts)
    wheel_log = _run_cancel_program(
        TimeWheelLoop(resolution=resolution_us * 1e-6,
                      wheel_slots=wheel_slots), shots, cuts)
    assert wheel_log == heap_log


def test_wheel_cursor_rewinds_after_overflow_jump_push_back():
    """Regression: an event far beyond the wheel horizon makes the empty-ring
    fast path jump the cursor to the overflow head's slot; when that event is
    then pushed back past a ``run(until=...)`` boundary, the cursor must
    rewind — otherwise events scheduled between segments land in
    already-swept buckets, fire a whole lap late (after the far-future
    event), and drag ``now`` backwards."""
    for cls, kwargs in ((EventLoop, {}),
                        (TimeWheelLoop, {"resolution": 1e-3,
                                         "wheel_slots": 4096})):
        loop = cls(**kwargs)
        fired = []
        loop.schedule(10.0, fired.append, 10.0)   # beyond the ~4.1 s horizon
        loop.run(until=1.0)
        loop.schedule(0.5, fired.append, 1.5)     # lands behind a stale cursor
        loop.run()
        assert fired == [1.5, 10.0]
        assert loop.now == 10.0
        assert loop.pending() == 0


# ----------------------------------------------------------------------
# Property 2: send_many == loop of send
# ----------------------------------------------------------------------

class Probe:
    """Minimal network payload with an identity and a wire size."""

    __slots__ = ("ident", "size_bytes")

    def __init__(self, ident, size_bytes):
        self.ident = ident
        self.size_bytes = size_bytes


class Recorder(Process):
    """Logs every delivered probe as ``(sim_time, ident)``."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.log = []

    def on_probe(self, msg, src):
        self.log.append((self.now, msg.ident))


def _drive(batches, loss_rate, jitter, seed, batched):
    """Run one transmission schedule; return (delivery log, counters).

    Message identities are ``(batch_index, position)`` so the log exposes
    both which transmission a delivery came from and its in-batch rank.
    """
    env = Environment(seed=seed)
    latency = (JitteredLatency(0.0001, 0.0004) if jitter
               else ConstantLatency(0.0002))
    net = Network(env, latency=latency, loss_rate=loss_rate)
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    for b, (start_units, count) in enumerate(batches):
        msgs = [Probe((b, k), (b * 5 + k * 7) % 23) for k in range(count)]
        if batched:
            env.loop.schedule(start_units * 1e-3,
                              lambda m=msgs: net.send_many(sender, sink, m))
        else:
            def fire(m=msgs):
                for msg in m:
                    net.send(sender, sink, msg)
            env.loop.schedule(start_units * 1e-3, fire)
    env.run()
    counters = (net.messages_attempted, net.messages_sent,
                net.messages_dropped, net.bytes_sent)
    return sink.log, counters


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8)),
                     min_size=1, max_size=6,
                     unique_by=lambda batch: batch[0]),
    loss_rate=st.sampled_from([0.0, 0.35]),
    jitter=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_send_many_matches_send_loop(batches, loss_rate, jitter, seed):
    """Same seed, same messages: the batched and per-message transmissions
    must agree on every delivery time, each message's loss outcome, all
    four counters, and per-batch delivery order.  Constant latency makes
    whole batches collapse into ``deliver_batch`` groups (the interesting
    path); jittered latency scatters them into singletons; loss drops
    messages mid-batch, splitting groups.

    The full delivery *order* is additionally identical except for one
    documented tie-break: when two separate transmissions land at the very
    same instant (possible under jitter via the FIFO clamp), inline batch
    dispatch and the per-message service hop interleave same-time ties
    differently — times and payloads still match as a multiset, and each
    batch stays internally FIFO.  Without jitter, distinct send times give
    distinct delivery times, so the strict order must match too."""
    loop_log, loop_counters = _drive(batches, loss_rate, jitter, seed,
                                     batched=False)
    many_log, many_counters = _drive(batches, loss_rate, jitter, seed,
                                     batched=True)
    assert sorted(many_log) == sorted(loop_log)
    assert many_counters == loop_counters
    if not jitter:
        assert many_log == loop_log
    # Per-link FIFO: delivery times never decrease on a directed link.
    times = [t for t, _ in many_log]
    assert times == sorted(times)
    # Within every transmission, delivered messages keep their send order.
    for b in range(len(batches)):
        ranks = [k for _, (bb, k) in many_log if bb == b]
        assert ranks == sorted(ranks)


def test_send_many_from_crashed_source_counts_attempts():
    """The offered-load counter sees the whole batch even when the crashed
    source delivers none of it (the counter split ``send`` also honours)."""
    env = Environment(seed=3)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    sender.crashed = True
    net.send_many(sender, sink, [Probe((0, k), 0) for k in range(5)])
    env.run()
    assert sink.log == []
    assert net.messages_attempted == 5
    assert net.messages_dropped == 5
    assert net.messages_sent == 0
    assert net.bytes_sent == 0


class CrashOnFirst(Recorder):
    """Crashes itself while handling its first delivery."""

    def on_probe(self, msg, src):
        super().on_probe(msg, src)
        if len(self.log) == 1:
            self.crash()


def test_deliver_batch_stops_when_handler_crashes_mid_batch():
    """A handler that crashes the process mid-batch must drop the remaining
    messages of that batch, matching the per-message path's _enqueue guard
    (regression: the inline fast path kept dispatching after the crash)."""
    logs = []
    for batched in (False, True):
        env = Environment(seed=7)
        net = Network(env, latency=ConstantLatency(0.0001))
        sender = Recorder(env, "sender")
        sink = CrashOnFirst(env, "sink")
        msgs = [Probe((0, k), 0) for k in range(3)]
        if batched:
            net.send_many(sender, sink, msgs)
        else:
            for msg in msgs:
                net.send(sender, sink, msg)
        env.run()
        logs.append(sink.log)
    assert logs[0] == logs[1]
    assert [ident for _, ident in logs[1]] == [(0, 0)]


def test_send_many_empty_and_singleton():
    """Degenerate batch sizes fall through to the plain paths."""
    env = Environment(seed=4)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    net.send_many(sender, sink, [])
    assert net.messages_attempted == 0
    net.send_many(sender, sink, [Probe((0, 0), 11)])
    env.run()
    assert sink.log == [(0.0001, (0, 0))]
    assert net.messages_attempted == net.messages_sent == 1
    assert net.bytes_sent == 11
