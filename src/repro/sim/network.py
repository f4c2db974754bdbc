"""Simulated message-passing network.

Provides the properties the paper's protocols assume:

* **FIFO links** between any pair of processes (Eunomia's Property 2 and the
  geo-replication layer both require FIFO channels).  With jittered latency
  models, FIFO is enforced by never delivering a message earlier than the
  previous one on the same (src, dst) link.
* **Configurable loss** — globally or per link — used to exercise the
  at-least-once / prefix-property machinery of fault-tolerant Eunomia.
* **Partitions** — pairs (or whole processes) can be disconnected and later
  reconnected, for failure-injection experiments.

:meth:`Network.send` is the one transmission path: one message, one
latency draw, one scheduled delivery.  Delivery goes through the
destination's service queue (:meth:`repro.sim.process.Process.deliver`), so
a message to an overloaded server queues behind its backlog — the effect
underlying every throughput result in the paper.

Everything the network knows about one directed pair lives in one
:class:`Link` of that network, built on the pair's first use: the FIFO
clock, the fault state the injection methods write, and what the latency
model said about the pair.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .env import Environment
from .latency import ConstantLatency, LatencyModel, LinkRule
from .process import Process

__all__ = ["Link", "Network"]


def _link_rule(model: LatencyModel, src: Process,
               dst: Process) -> Optional[LinkRule]:
    """``model.link_rule(src, dst)``, unless a subclass redefines ``delay``
    below the class that wrote the rule: then the rule does not describe
    the model, and None sends every message to ``delay``."""
    for cls in type(model).__mro__:
        if "link_rule" in vars(cls):
            return model.link_rule(src, dst)
        if "delay" in vars(cls):
            return None
    return None


class Link:
    """One directed pair of one :class:`Network`.

    ``last`` is the FIFO clock, the latest delivery time scheduled on the
    link.  ``blocked`` (a disconnect or partition), ``loss`` (None: the
    network's global ``loss_rate``) and ``extra`` (a gray link's added
    delay) are the fault state.  ``base`` / ``jitter`` / ``relative`` are
    the latency model's :meth:`LatencyModel.link_rule` for the pair;
    ``base`` is None when the model has no rule.

    The destination's bound ``deliver`` is deliberately not cached here.
    CPython's collector runs when its count of tracked allocations minus
    frees passes a threshold, and a bound method made at send time and
    freed at delivery, across a collection, lowers that count.  Caching it
    per link left ``rig_saturation`` with 8 % more young collections, one
    more full one per 2.2 sim-s and 8 % less host throughput, and gained
    nothing measurable on the other workloads.
    """

    __slots__ = ("last", "blocked", "loss", "extra", "base", "jitter",
                 "relative")

    def __init__(self, rule: Optional[LinkRule]):
        self.last = float("-inf")
        self.blocked = False
        self.loss: Optional[float] = None
        self.extra = 0.0
        self.base, self.jitter, self.relative = rule or (None, None, False)


class Network:
    """Point-to-point network with FIFO links, loss, and partitions."""

    def __init__(self, env: Environment, latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.latency = latency or ConstantLatency()
        self.loss_rate = loss_rate
        self._rng = env.rng.stream("network")
        #: src pid -> dst pid -> :class:`Link`
        self._links: dict[int, dict[int, Link]] = {}
        self._processes: dict[int, Process] = {}
        #: every message handed to the network, whether or not it survives
        #: the crash/partition/loss checks (the offered load)
        self.messages_attempted = 0
        #: messages actually scheduled for delivery (crashed-source,
        #: partitioned, and lost messages are excluded — so crash schedules
        #: cannot inflate reported send throughput)
        self.messages_sent = 0
        self.messages_dropped = 0
        #: bytes of delivered-path messages (same rule as ``messages_sent``)
        self.bytes_sent = 0
        env.network = self

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        self._processes[process.pid] = process

    def processes(self) -> list[Process]:
        return list(self._processes.values())

    def _link(self, src: Process, dst: Process) -> Link:
        """The src→dst link of this network, built on first use."""
        row = self._links.setdefault(src.pid, {})
        link = row.get(dst.pid)
        if link is None:
            link = row[dst.pid] = Link(_link_rule(self.latency, src, dst))
        return link

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_link_loss(self, src: Process, dst: Process, rate: float) -> None:
        """Set a loss probability for the directed link src→dst; it
        overrides the global ``loss_rate`` from now on, 0.0 included."""
        self._link(src, dst).loss = rate

    def set_link_extra_delay(self, src: Process, dst: Process,
                             extra_s: float) -> None:
        """Add fixed delay on the directed link src→dst (0 restores normal).

        Used to model degraded paths, e.g. a partition whose connection to
        its local sequencer straggles (Figure 7's sequencer comparison).
        """
        self._link(src, dst).extra = extra_s

    def disconnect(self, src: Process, dst: Process, both_ways: bool = True) -> None:
        self._link(src, dst).blocked = True
        if both_ways:
            self._link(dst, src).blocked = True

    def reconnect(self, src: Process, dst: Process, both_ways: bool = True) -> None:
        self._link(src, dst).blocked = False
        if both_ways:
            self._link(dst, src).blocked = False

    def partition(self, group_a: Iterable[Process], group_b: Iterable[Process],
                  symmetric: bool = True) -> None:
        """Partition two node sets: block every ``a → b`` link.

        ``symmetric=True`` (the default) blocks ``b → a`` too — a clean
        split.  ``symmetric=False`` blocks only ``a → b``, modelling
        *asymmetric reachability*: ``b``'s traffic still reaches ``a``, but
        ``a`` has gone silent from ``b``'s point of view — the regime in
        which Ω-style failure detectors can split-brain.  Links within a
        group are untouched; already-in-flight messages still deliver
        (partitions drop at send time, like crash-stop).
        """
        for a in group_a:
            for b in group_b:
                self.disconnect(a, b, both_ways=symmetric)

    def heal(self, group_a: Iterable[Process],
             group_b: Iterable[Process]) -> None:
        """Restore both directions between two node sets (idempotent; also
        heals partitions that were created asymmetric)."""
        for a in group_a:
            for b in group_b:
                self.reconnect(a, b, both_ways=True)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: Process, dst: Process, msg: Any) -> None:
        """Transmit ``msg``; it is delivered after the modelled latency.

        Messages from/to crashed processes and across partitioned links are
        silently dropped (crash-stop model).  Lost messages count in
        ``messages_dropped``.

        This is the per-message hot path (every protocol message in every
        experiment funnels through it): two dict probes find the link, and
        everything else it reads is a field of that link.  A loss draw (when
        the link's rate is positive) precedes the latency draw (when the
        link's rule has jitter), as they always have.
        """
        self.messages_attempted += 1
        try:
            link = self._links[src.pid][dst.pid]
        except KeyError:
            link = self._link(src, dst)
        if src.crashed or link.blocked:
            self.messages_dropped += 1
            return
        rate = link.loss
        if rate is None:
            rate = self.loss_rate
        if rate > 0.0 and self._rng.random() < rate:
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        self.bytes_sent += getattr(msg, "size_bytes", 0)
        jitter = link.jitter
        if jitter is None:
            delay = link.base
            if delay is None:
                delay = self.latency.delay(src, dst, self._rng)
        elif link.relative:
            delay = link.base * (1.0 + self._rng.random() * jitter)
        else:
            delay = link.base + self._rng.random() * jitter
        if link.extra:
            delay += link.extra
        loop = self._loop
        deliver_at = loop._now + delay
        # FIFO per directed link: never overtake the previous delivery.
        if deliver_at < link.last:
            deliver_at = link.last
        link.last = deliver_at
        loop.schedule_at(deliver_at, dst.deliver, msg, src)

    def send_many(self, src: Process, dst: Process,
                  msgs: Sequence[Any]) -> None:
        """Loop over :meth:`send`; kept for the frozen perf/ harness."""
        for msg in msgs:
            self.send(src, dst, msg)

    def multicast(self, src: Process, dsts: Iterable[Process],
                  msg: Any) -> None:
        """Send one message to each destination, in iteration order.

        Pure fan-out sugar over :meth:`send` — per-destination links draw
        loss/latency independently, so nothing can be merged across
        destinations; the value is a single audited entry point for the
        propagation/heartbeat/gossip fan-outs instead of ad-hoc loops.
        """
        for dst in dsts:
            self.send(src, dst, msg)
