"""Fault-model parity of the network's fan-out sugar.

``Network.multicast`` and ``Network.send_many`` are loops over ``send``;
under every injected fault — link loss, disconnects, gray-link extra delay,
crash/recover of the destination — they must leave the same delivery log
and counters as the hand-written loop.  The faults themselves are tested
through ``send`` in ``tests/test_process_and_network.py``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Network, Process
from repro.sim.latency import JitteredLatency


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
