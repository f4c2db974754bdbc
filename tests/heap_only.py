"""The network before link parking, kept as a test-side reference.

``Network.send`` parks a link's later arrivals behind its tracked head and
lets only the head onto the loop's heap.  :class:`HeapOnlyNetwork` is the
same network with every arrival its own ``dst.deliver`` heap entry, as
``send`` was written before: the equivalence properties run both side by
side and hold parking to the delivery log, counters, RNG state,
``processed_events`` and ``pending()`` of this one.

    net = HeapOnlyNetwork(env, latency)     # same constructor as Network
"""

from __future__ import annotations

from typing import Any

from repro.sim import Network, Process

__all__ = ["HeapOnlyNetwork"]


class HeapOnlyNetwork(Network):
    """:class:`Network` with one heap entry per in-flight message."""

    def send(self, src: Process, dst: Process, msg: Any) -> None:
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
