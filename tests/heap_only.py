"""The loop before parking, kept as a test-side reference.

A :class:`repro.sim.loop.Fifo` — a busy process lane, or the loop's Fifo
for one timer period — keeps only its head on the loop's heap, parks the
entries behind it and fires the next one in place when it is next.
Under :func:`heap_only`, ``Fifo.park`` schedules each entry through
``schedule_at`` instead, taking the same ``seq``, and ``EventLoop.every``
is ``schedule_at(now + step, fn, a, b)``: one heap entry per completion
and per timer firing, as before parking, and nothing to fire in place.
The equivalence properties run a parking side and a heap-only side and
hold the first to the delivery log, counters, ``processed_events`` and
``pending()`` of the second.

    with heap_only():
        env.run(until=...)      # every step of the heap-only side

:func:`wrapped_schedule_at` patches ``schedule_at`` the way
``perf/trace.py`` does: every entry it queues calls a wrapper, which
calls the scheduled callback.  The loop must not depend on what a heap
entry's callable is (its ``__self__``, say).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.sim.loop import EventLoop, Fifo

__all__ = ["heap_only", "wrapped_schedule_at"]


def _run_current(fifo: Fifo, gen: int, fn: Callable[[Any, Any], Any],
                 a: Any, b: Any) -> None:
    """A would-be parked entry on the heap: a no-op once its generation is
    stale, and never counted."""
    if gen == fifo.gen:
        fn(a, b)


def _park_on_heap(self: Fifo, time: float, args: tuple) -> None:
    self._loop.schedule_at(time, _run_current, self, *args)


def _every_on_heap(self: EventLoop, step: float, fn: Callable[[Any, Any], Any],
                   a: Any, b: Any) -> None:
    self.schedule_at(self._now + step, fn, a, b)


@contextmanager
def _patched(cls: type, name: str, replacement: Callable) -> Iterator[None]:
    original = vars(cls)[name]
    setattr(cls, name, replacement)
    try:
        yield
    finally:
        setattr(cls, name, original)


@contextmanager
def heap_only() -> Iterator[None]:
    """Patch ``Fifo.park`` and ``EventLoop.every`` to put every entry on
    the heap."""
    with _patched(Fifo, "park", _park_on_heap), \
            _patched(EventLoop, "every", _every_on_heap):
        yield


def _call(callback: Callable, *args: Any) -> None:
    callback(*args)


@contextmanager
def wrapped_schedule_at() -> Iterator[None]:
    """Patch ``EventLoop.schedule_at`` to queue ``_call(callback, *args)``
    in place of ``callback(*args)``, as the host tracer does."""
    schedule_at = vars(EventLoop)["schedule_at"]

    def wrapped(loop: EventLoop, time: float, callback: Callable,
                *args: Any) -> int:
        return schedule_at(loop, time, _call, callback, *args)

    with _patched(EventLoop, "schedule_at", wrapped):
        yield
