"""Property tests for the simulation core's cancellation and link order.

1. **Cancellation is exact.**  Periodic tasks are the only cancellable
   entries, and a cancelled entry stays queued and fires as an uncounted
   no-op; whatever the mix of cancel before the first firing, twice, from
   inside the task's own body, from another task's body (a sibling in the
   same period's Fifo among them) and from outside between
   ``run(until=...)`` segments (a period Fifo's queued head among them),
   ``pending()`` and ``processed_events`` must match a model, no cancelled
   task may fire, and the loop must fire what the heap-only reference
   fires, with ``schedule_at`` wrapped as the host tracer wraps it or not.

2. **Links are FIFO and counted.**  Under loss and jitter, ``Network.send``
   never reorders a directed link, keeps every transmission's internal
   order, and its four counters add up.
"""

from contextlib import nullcontext

import pytest
from heap_only import heap_only, wrapped_schedule_at
from hypothesis import given, settings, strategies as st
from mutants import MUTANTS

from repro.sim.env import Environment
from repro.sim.latency import ConstantLatency, JitteredLatency
from repro.sim.loop import EventLoop
from repro.sim.network import Network
from repro.sim.process import Process

#: base time unit of the generated schedules
_U = 0.00037
#: every program ends here: what is still live is cancelled, then drained
_END_UNITS = 80


def _run_cancel_program(loop, tasks, cuts):
    """Drive one cancellation program over periodic tasks; return its log.

    ``tasks`` are ``(interval_units, phase_units, mode, victim)``, armed
    through ``loop.schedule_periodic`` (phase None: one full interval;
    tasks with one interval re-arm through one period Fifo).
    ``mode`` cancels the task ``"before"`` its first firing, ``"twice"``,
    or from ``"inside"`` its own body at its second firing; ``"other"``
    cancels task ``victim`` from inside its first firing, whatever state
    that one is in (itself included), and ``"siblings"`` cancels every
    other task of its interval there.  ``cuts`` are
    ``(until_units, victims)``: after each ``run(until=...)`` segment the
    victims are cancelled from outside, including ones already cancelled
    and the one whose entry was popped past the boundary and pushed back.

    After every step ``pending()`` and ``processed_events`` must equal the
    model: each live task has exactly one queued entry, and every firing
    is counted once.
    """
    log, handles, fired, dead = [], [], [], set()

    def cancel(j):
        if j < len(handles):
            dead.add(j)
            handles[j].cancel()

    def body(i, mode, victim):
        assert i not in dead, "a cancelled task fired"
        fired[i] += 1
        log.append((loop.now, i))
        if mode == "inside" and fired[i] == 2:
            cancel(i)
        elif mode == "other" and fired[i] == 1:
            cancel(victim)
        elif mode == "siblings" and fired[i] == 1:
            for j, task in enumerate(tasks):
                if j != i and task[0] == tasks[i][0]:
                    cancel(j)

    def check():
        assert loop.processed_events == sum(fired)
        assert loop.pending() == len(handles) - len(dead)

    for i, (interval, phase, mode, victim) in enumerate(tasks):
        fired.append(0)
        handles.append(loop.schedule_periodic(
            interval * _U, lambda i=i, m=mode, v=victim: body(i, m, v),
            phase=None if phase is None else phase * _U))
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
        log.append(("segment", loop.now, loop.pending(),
                    loop.processed_events))
    loop.run(until=_END_UNITS * _U)
    check()
    for j in range(len(handles)):
        cancel(j)
    check()
    loop.run()
    check()
    assert loop.pending() == 0 and not loop._heap and not loop._cancelled
    return log


#: the three ways to run one program: parking, the heap-only reference,
#: and parking under a tracer-style ``schedule_at`` wrapper
_SIDES = (nullcontext, heap_only, wrapped_schedule_at)


# one falsifying example is enough, and keeps the failure an
# AssertionError for the kill test below (not a group of them)
@settings(max_examples=80, deadline=None, report_multiple_bugs=False)
@given(
    tasks=st.lists(
        st.tuples(st.one_of(st.sampled_from([3, 4]), st.integers(1, 25)),
                  st.one_of(st.none(), st.integers(0, 30)),
                  st.sampled_from(["keep", "keep", "before", "twice",
                                   "inside", "other", "siblings"]),
                  st.integers(0, 7)),
        max_size=8),
    cuts=st.lists(
        st.tuples(st.integers(1, _END_UNITS - 1),
                  st.lists(st.integers(0, 7), max_size=3)),
        max_size=4).map(lambda cs: sorted(cs, key=lambda c: c[0])),
)
def test_cancellation_is_exact(tasks, cuts):
    """Cancellation leaves the cancelled entry queued as an uncounted
    no-op: cancel before the first firing, twice, from inside the task's
    own body, from another task's body and across ``run(until=...)``
    segments must all leave ``pending()`` / ``processed_events`` exact and
    never fire a cancelled task (checked inside the program).  Firings
    come in time order, each task's one ``interval`` apart, and the log
    is the heap-only reference's, with or without a wrapped
    ``schedule_at``."""
    logs = []
    for side in _SIDES:
        with side():
            logs.append(_run_cancel_program(EventLoop(), tasks, cuts))
    log = logs[0]
    assert logs[1] == log and logs[2] == log
    times = [entry[0] for entry in log if entry[0] != "segment"]
    assert times == sorted(times)
    for i, (interval, phase, _, _) in enumerate(tasks):
        mine = [t for t, j in (e for e in log if e[0] != "segment")
                if j == i]
        first = (interval if phase is None else phase) * _U
        assert mine[:1] in ([], [first])
        gaps = [b - a for a, b in zip(mine, mine[1:])]
        assert all(abs(gap - interval * _U) < 1e-12 for gap in gaps)


def test_the_cancellation_property_kills_cancelled_periodic_fires():
    """The property above has teeth against the one cancellation path the
    loop keeps: with ``run``'s cancelled-seq check dropped, a cancelled
    task fires and the model's counts stop matching."""
    test_cancellation_is_exact()
    with MUTANTS["cancelled_periodic_fires"].applied():
        with pytest.raises(AssertionError):
            test_cancellation_is_exact()


# ----------------------------------------------------------------------
# Property 2: links are FIFO and counted
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


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8)),
                     min_size=1, max_size=6,
                     unique_by=lambda batch: batch[0]),
    loss_rate=st.sampled_from([0.0, 0.35]),
    jitter=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_send_keeps_link_fifo_and_counts(batches, loss_rate, jitter, seed):
    """Bursts of ``send`` calls at distinct instants over one link, with and
    without loss and jitter.  Message identities are ``(burst, position)``,
    so the delivery log shows which burst a delivery came from and its rank
    in it."""
    env = Environment(seed=seed)
    latency = (JitteredLatency(0.0001, 0.0004) if jitter
               else ConstantLatency(0.0002))
    net = Network(env, latency=latency, loss_rate=loss_rate)
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    sizes = {}
    for b, (start_units, count) in enumerate(batches):
        msgs = [Probe((b, k), (b * 5 + k * 7) % 23) for k in range(count)]
        sizes.update((msg.ident, msg.size_bytes) for msg in msgs)

        def fire(m=msgs):
            for msg in m:
                net.send(sender, sink, msg)
        env.loop.schedule(start_units * 1e-3, fire)
    env.run()
    # Per-link FIFO: delivery times never decrease on a directed link.
    times = [t for t, _ in sink.log]
    assert times == sorted(times)
    # Within every burst, delivered messages keep their send order.
    for b in range(len(batches)):
        ranks = [k for _, (bb, k) in sink.log if bb == b]
        assert ranks == sorted(ranks)
    # Every message is attempted, then either dropped or delivered once.
    assert net.messages_attempted == len(sizes)
    assert net.messages_sent == len(sink.log)
    assert net.messages_dropped == len(sizes) - len(sink.log)
    assert net.bytes_sent == sum(sizes[ident] for _, ident in sink.log)
    if not loss_rate:
        assert net.messages_dropped == 0


def test_send_from_crashed_source_counts_attempts():
    """The offered-load counter sees every message even when the crashed
    source delivers none of them."""
    env = Environment(seed=3)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    sender.crashed = True
    for k in range(5):
        net.send(sender, sink, Probe((0, k), 0))
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


def test_same_instant_deliveries_stop_when_handler_crashes():
    """A handler that crashes the process must drop the deliveries already
    queued behind it at the same instant (the crash check that opens
    ``Process.deliver``)."""
    env = Environment(seed=7)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = CrashOnFirst(env, "sink")
    for k in range(3):
        net.send(sender, sink, Probe((0, k), 0))
    env.run()
    assert [ident for _, ident in sink.log] == [(0, 0)]
