"""Property tests for the simulation core's cancellation and link order.

1. **Cancellation is exact.**  Handles are made on demand and a cancel is
   a sequence number filed in the loop's cancelled set; whatever the mix of
   cancel-before-fire, cancel-after-fire, double cancel and cancel from
   inside a callback, across ``run(until=...)`` segments, ``pending()`` and
   ``processed_events`` must match a model and no cancelled entry may fire.

2. **Links are FIFO and counted.**  Under loss and jitter, ``Network.send``
   never reorders a directed link, keeps every transmission's internal
   order, and its four counters add up.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.env import Environment
from repro.sim.latency import ConstantLatency, JitteredLatency
from repro.sim.loop import EventLoop
from repro.sim.network import Network
from repro.sim.process import Process

#: base time unit of the generated schedules
_U = 0.00037


def _run_cancel_program(loop, shots, cuts):
    """Drive one cancellation program; return its log.

    ``shots`` are ``(delay_units, mode, victim)`` one-shots made through
    ``loop.schedule`` (the handle-on-demand door).  ``mode`` cancels the
    shot's own handle ``"before"`` it can fire, ``"twice"``, or from
    ``"inside"`` its own callback (already fired: a no-op); ``"other"``
    cancels shot ``victim`` from inside the callback, whatever state that
    one is in.  ``cuts`` are ``(until_units, victims)``: after each
    ``run(until=...)`` segment the victims' handles are cancelled from
    outside — fired ones (no-op) and pending ones, including the one that
    was popped past the boundary and pushed back.

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
)
def test_cancellation_is_exact(shots, cuts):
    """Handles are made on demand and cancellation is a seq filed in the
    loop's cancelled set: cancel before fire, after fire, twice, from
    inside the callback and of an entry pushed back past an ``until``
    boundary must all leave ``pending()`` / ``processed_events`` exact and
    never fire a cancelled entry (checked inside the program)."""
    log = _run_cancel_program(EventLoop(), shots, cuts)
    times = [entry[0] for entry in log if entry[0] != "segment"]
    assert times == sorted(times)


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
    queued behind it at the same instant (the epoch guard of
    ``_run_delivery``)."""
    env = Environment(seed=7)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = CrashOnFirst(env, "sink")
    for k in range(3):
        net.send(sender, sink, Probe((0, k), 0))
    env.run()
    assert [ident for _, ident in sink.log] == [(0, 0)]
