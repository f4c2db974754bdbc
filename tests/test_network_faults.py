"""Fault-model parity of the network's links and fan-out sugar.

``Network.multicast`` and ``Network.send_many`` are loops over ``send``;
under every injected fault — link loss, disconnects, gray-link extra delay,
crash/recover of the destination — they must leave the same delivery log
and counters as the hand-written loop.  The faults themselves are tested
through ``send`` in ``tests/test_process_and_network.py``.

The per-pair ``Link`` objects are held to the network they replaced: four
pid-pair tables (FIFO clock, loss overrides, extra delay, blocked pairs)
and a latency-model call per message, kept below as ``TableNetwork``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Network, Process
from repro.sim.latency import ConstantLatency, JitteredLatency, RttMatrix


@dataclass(slots=True)
class Ping:
    seq: int
    size_bytes: int = 8


class Recorder(Process):
    def __init__(self, env, name):
        super().__init__(env, name)
        self.seen: list[tuple[float, int]] = []

    def on_ping(self, msg: Ping, src: Process) -> None:
        self.seen.append((self.now, msg.seq))


def _twin(seed):
    env = Environment(seed=seed)
    net = Network(env, JitteredLatency(base_s=0.001, jitter_s=0.0004))
    a, b = Recorder(env, "a"), Recorder(env, "b")
    return env, net, a, b


def test_multicast_honors_faults_per_destination():
    """multicast = send per destination, including per-link fault state."""
    def run(use_multicast):
        env = Environment(seed=11)
        net = Network(env, JitteredLatency(base_s=0.001, jitter_s=0.0003))
        src = Recorder(env, "src")
        dsts = [Recorder(env, f"d{i}") for i in range(3)]
        net.set_link_loss(src, dsts[0], 0.5)
        net.disconnect(src, dsts[1])
        net.set_link_extra_delay(src, dsts[2], 0.003)
        for i in range(10):
            if use_multicast:
                net.multicast(src, dsts, Ping(i))
            else:
                for d in dsts:
                    net.send(src, d, Ping(i))
        env.run(until=1.0)
        return [d.seen for d in dsts], net.messages_dropped

    assert run(True) == run(False)


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # batch size
            st.sampled_from(["none", "loss", "cut", "heal", "gray",
                             "clear_gray", "crash_dst",
                             "recover_dst"]),          # fault toggle first
        ),
        min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_interleaved_faults_property(plan, seed):
    """The one "sugar equals loop" check of ``send_many``: arbitrary
    interleavings of fault toggles and batches (sizes 0 and 1 included)
    leave the same log and counters as per-message ``send``."""
    def run(batched):
        env, net, a, b = _twin(seed)
        seq = 0
        for size, toggle in plan:
            if toggle == "loss":
                net.set_link_loss(a, b, 0.4)
            elif toggle == "cut":
                net.disconnect(a, b)
            elif toggle == "heal":
                net.reconnect(a, b)
            elif toggle == "gray":
                net.set_link_extra_delay(a, b, 0.002)
            elif toggle == "clear_gray":
                net.set_link_extra_delay(a, b, 0.0)
            elif toggle == "crash_dst":
                if not b.crashed:
                    b.crash()
            elif toggle == "recover_dst":
                if b.crashed:
                    b.recover()
            msgs = [Ping(seq + i) for i in range(size)]
            seq += size
            if batched:
                net.send_many(a, b, msgs)
            else:
                for m in msgs:
                    net.send(a, b, m)
        env.run(until=1.0)
        return (b.seen, net.messages_sent, net.messages_dropped,
                net.messages_attempted)

    assert run(False) == run(True)


# ----------------------------------------------------------------------
# Links against the four tables
# ----------------------------------------------------------------------
class TableNetwork(Network):
    """The network before links: fault state in four pid-pair tables and
    one ``latency.delay`` call per message, verbatim."""

    def __init__(self, env, latency=None, loss_rate=0.0):
        super().__init__(env, latency, loss_rate)
        self._last_delivery = {}
        self._link_loss = {}
        self._link_extra_delay = {}
        self._blocked = set()

    def set_link_loss(self, src, dst, rate):
        self._link_loss[(src.pid, dst.pid)] = rate

    def set_link_extra_delay(self, src, dst, extra_s):
        if extra_s:
            self._link_extra_delay[(src.pid, dst.pid)] = extra_s
        else:
            self._link_extra_delay.pop((src.pid, dst.pid), None)

    def disconnect(self, src, dst, both_ways=True):
        self._blocked.add((src.pid, dst.pid))
        if both_ways:
            self._blocked.add((dst.pid, src.pid))

    def reconnect(self, src, dst, both_ways=True):
        self._blocked.discard((src.pid, dst.pid))
        if both_ways:
            self._blocked.discard((dst.pid, src.pid))

    def send(self, src, dst, msg):
        self.messages_attempted += 1
        key = (src.pid, dst.pid)
        if src.crashed or (self._blocked and key in self._blocked):
            self.messages_dropped += 1
            return
        rate = (self._link_loss.get(key, self.loss_rate)
                if self._link_loss else self.loss_rate)
        if rate > 0.0 and self._rng.random() < rate:
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        self.bytes_sent += getattr(msg, "size_bytes", 0)
        loop = self._loop
        delay = self.latency.delay(src, dst, self._rng)
        if self._link_extra_delay:
            delay += self._link_extra_delay.get(key, 0.0)
        deliver_at = loop._now + delay
        last = self._last_delivery
        previous = last.get(key)
        if previous is not None and deliver_at < previous:
            deliver_at = previous
        last[key] = deliver_at
        loop.schedule_at(deliver_at, dst.deliver, msg, src)


_MODELS = {
    "constant": lambda: ConstantLatency(0.001),
    "jittered": lambda: JitteredLatency(base_s=0.001, jitter_s=0.0004),
    "rtt_matrix": RttMatrix,              # the paper's 3 sites, 2 % jitter
}
_N = 5
_pid = st.integers(0, _N - 1)
_rate = st.sampled_from([0.0, 0.3, 1.0])
_group = st.sets(_pid, min_size=1, max_size=3)
_STEP = st.one_of(
    st.tuples(st.just("send"), _pid, _pid),
    st.tuples(st.just("multicast"), _pid, _group),
    st.tuples(st.just("loss"), _pid, _pid, _rate),
    st.tuples(st.just("global_loss"), _rate),
    st.tuples(st.just("extra"), _pid, _pid,
              st.sampled_from([0.0, 0.002, 0.05])),
    st.tuples(st.just("disconnect"), _pid, _pid, st.booleans()),
    st.tuples(st.just("reconnect"), _pid, _pid, st.booleans()),
    st.tuples(st.just("partition"), _group, _group, st.booleans()),
    st.tuples(st.just("heal"), _group, _group),
    st.tuples(st.just("crash"), _pid),
    st.tuples(st.just("recover"), _pid),
    st.tuples(st.just("advance"), st.sampled_from([0.0005, 0.003, 0.1])),
)


def _replay(network_cls, model, loss_rate, steps):
    """Run ``steps`` on a fresh network.

    Returns the delivery log — every ``(now, dst, msg)`` handed to a
    process's ``deliver``, crashed destinations included, in firing order
    — then ``(now, processed_events, pending())`` after every run slice,
    the four counters, the network RNG's state, and what each process
    handled.  The log's order is the loop's ``(time, seq)`` order, so it
    states when and in what order each arrival fired, not only where.
    """
    env = Environment(seed=3)
    net = network_cls(env, _MODELS[model](), loss_rate=loss_rate)
    procs = [Recorder(env, f"p{i}") for i in range(_N)]
    delivered, slices = [], []
    loop = env.loop
    for i, proc in enumerate(procs):
        proc.site = i % 3

        def deliver(msg, src, _deliver=proc.deliver, _name=proc.name):
            delivered.append((loop.now, _name, msg.seq))
            _deliver(msg, src)
        proc.deliver = deliver          # read by send

    def run_slice(seconds):
        env.run(until=env.now + seconds)
        slices.append((env.now, loop.processed_events, loop.pending()))

    for n, (op, *arg) in enumerate(steps):
        if op == "send":
            net.send(procs[arg[0]], procs[arg[1]], Ping(n))
        elif op == "multicast":
            net.multicast(procs[arg[0]], [procs[i] for i in sorted(arg[1])],
                          Ping(n))
        elif op == "loss":
            net.set_link_loss(procs[arg[0]], procs[arg[1]], arg[2])
        elif op == "global_loss":
            net.loss_rate = arg[0]
        elif op == "extra":
            net.set_link_extra_delay(procs[arg[0]], procs[arg[1]], arg[2])
        elif op in ("disconnect", "reconnect"):
            getattr(net, op)(procs[arg[0]], procs[arg[1]], both_ways=arg[2])
        elif op == "partition":
            net.partition([procs[i] for i in sorted(arg[0])],
                          [procs[i] for i in sorted(arg[1])], symmetric=arg[2])
        elif op == "heal":
            net.heal([procs[i] for i in sorted(arg[0])],
                     [procs[i] for i in sorted(arg[1])])
        elif op == "crash":
            procs[arg[0]].crash()
        elif op == "recover":
            procs[arg[0]].recover()
        else:
            run_slice(arg[0])
    run_slice(1.0)
    counters = (net.messages_attempted, net.messages_sent,
                net.messages_dropped, net.bytes_sent)
    return (delivered, slices, counters, net._rng.getstate(),
            [p.seen for p in procs])


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(sorted(_MODELS)),
       loss_rate=st.sampled_from([0.0, 0.25]),
       steps=st.lists(_STEP, min_size=1, max_size=60))
def test_links_schedule_what_the_four_tables_did(model, loss_rate, steps):
    """Same deliveries (when, to whom, in what order), ``processed_events``
    and ``pending()`` after every slice, counters and RNG state as the
    table network, under any interleaving of sends and faults — a 0.0
    per-link loss overriding a non-zero global rate, the global rate moved
    mid-run, gray links, (a)symmetric cuts and heals, crashes — and under
    each latency model."""
    links = _replay(Network, model, loss_rate, steps)
    tables = _replay(TableNetwork, model, loss_rate, steps)
    assert links == tables


def test_a_zero_link_loss_overrides_a_global_rate():
    """The case the property must be able to reach, pinned."""
    steps = [("loss", 0, 1, 0.0)] + [("send", 0, 1)] * 20
    delivered, slices, counters, _, _ = _replay(Network, "jittered", 1.0,
                                                steps)
    assert len(delivered) == 20 and counters[2] == 0
    assert slices[-1][2] == 0
    assert _replay(TableNetwork, "jittered", 1.0, steps)[:2] == (delivered,
                                                                 slices)


def test_a_second_network_on_the_same_env_builds_its_own_links():
    """Links belong to one network: a second one on the same environment
    starts with open, lossless, undelayed links and its own FIFO clocks."""
    env = Environment(seed=1)
    first = Network(env, ConstantLatency(0.001))
    a, b = Recorder(env, "a"), Recorder(env, "b")
    first.set_link_extra_delay(a, b, 0.5)
    first.send(a, b, Ping(0))                    # due at 0.501
    first.set_link_loss(b, a, 1.0)
    first.disconnect(a, b, both_ways=False)
    second = Network(env, ConstantLatency(0.001))
    second.send(a, b, Ping(1))
    second.send(b, a, Ping(2))
    env.run()
    assert b.seen == [(0.001, 1), (0.501, 0)]    # not held behind 0.501
    assert a.seen == [(0.001, 2)]
    assert second.messages_dropped == 0
    first.send(a, b, Ping(3))                    # the first keeps its own
    assert first.messages_dropped == 1
