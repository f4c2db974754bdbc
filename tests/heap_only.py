"""The loop before parking, kept as a test-side reference.

A busy process lane, a :class:`repro.sim.loop.Fifo`, keeps only its head
completion on the loop's heap and parks the completions behind it.
Under :func:`heap_only`, ``Fifo.park`` schedules each entry through
``schedule_at`` instead, taking the same ``seq``, and nothing is ever
released: one heap entry per completion, as before parking.  The
equivalence properties run a parking side and a heap-only side and hold
the first to the delivery log, counters, ``processed_events`` and
``pending()`` of the second.

    with heap_only():
        env.run(until=...)      # every step of the heap-only side
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.sim.loop import Fifo

__all__ = ["heap_only"]


def _run_current(fifo: Fifo, gen: int, fn: Callable[[Any, Any], Any],
                 a: Any, b: Any) -> None:
    """A would-be parked entry on the heap: a no-op once its generation is
    stale, and never counted."""
    if gen == fifo.gen:
        fn(a, b)


def _park_on_heap(self: Fifo, time: float, args: tuple) -> None:
    self._loop.schedule_at(time, _run_current, self, *args)


@contextmanager
def heap_only() -> Iterator[None]:
    """Patch ``Fifo.park`` to schedule every entry on the heap."""
    original = vars(Fifo)["park"]
    Fifo.park = _park_on_heap
    try:
        yield
    finally:
        Fifo.park = original
