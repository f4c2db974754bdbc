"""Deterministic discrete-event loop.

This is the heart of the simulation substrate.  Every other component
(processes, network links, clocks, failure injectors) schedules callbacks on a
single :class:`EventLoop`.  The loop is deterministic: events fire in
``(time, sequence-number)`` order, where the sequence number is the order in
which events were scheduled.  Two runs with the same seed therefore produce
bit-identical histories, which the test suite and the causal-consistency
checker rely on.

There is one scheduler: a binary heap holding one plain tuple
``(time, seq, fn, args)`` per scheduled callback and nothing else;
:meth:`EventLoop.schedule_at` is the only way in.  Handles
(:class:`Event`, :class:`PeriodicHandle`) exist only for callers that may
cancel, and cancellation is a sequence number filed in a set — see
"Simulator hot path" in ``docs/ARCHITECTURE.md``.

Time is a ``float`` measured in **seconds** since the start of the run.
Protocol-level timestamps, by contrast, are integers in microseconds (see
:mod:`repro.clocks`); the two are related through per-process clock models so
that clock drift can be simulated.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Union

__all__ = ["Event", "EventLoop", "PeriodicHandle", "SimulationError"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the event loop (e.g. scheduling in the past)."""


class _Handle:
    """Cancellation shared by :class:`Event` and :class:`PeriodicHandle`.

    ``_seq`` is the sequence number of the handle's queued entry (None once
    it fired or was cancelled).  Cancelling files it in the loop's
    cancelled-seq set; the entry stays queued and is discarded when it
    surfaces (lazy deletion), so cancellation is O(1) and only callers that
    cancel pay for it.  Subclasses fill the slots themselves: a
    ``super().__init__`` hop would cost more than the rest of ``schedule()``.
    """

    __slots__ = ("fn", "cancelled", "_loop", "_seq")

    def cancel(self) -> None:
        """Prevent (further) firing.  Idempotent; a no-op after a one-shot
        fired (e.g. a timeout cancelled on completion); safe from inside
        the callback."""
        if not self.cancelled:
            self.cancelled = True
            if self._seq is not None:
                self._loop._watched.pop(self._seq, None)
                self._loop._cancelled.add(self._seq)
                self._seq = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<{type(self).__name__} {name} {state}>"


class Event(_Handle):
    """Cancellable handle for one callback, made by :meth:`EventLoop.schedule`.

    The queue itself holds plain tuples; this object exists only for callers
    that may want to cancel.  The loop keeps it in a seq-keyed table until
    its entry fires, which is how a late ``cancel()`` knows to do nothing.
    """

    __slots__ = ("time",)

    def __init__(self, loop: "EventLoop", time: float, fn: Callable[..., Any],
                 seq: int):
        self.fn = fn
        self.cancelled = False
        self._loop = loop
        self._seq: Optional[int] = seq
        self.time = time


class PeriodicHandle(_Handle):
    """Cancellable handle for a repeating callback.

    Returned by :meth:`EventLoop.schedule_periodic`.  The interval may be a
    number of seconds or a zero-argument callable returning one — re-read
    before every re-arm, so callers can change the period at runtime (the
    Figure 7 straggler injector mutates a host's batch interval this way).
    A period that is not positive raises :class:`SimulationError` naming the
    task, at arm and at every re-arm: re-arming at ``now`` would spin
    ``run(until=...)`` forever.

    The callback is re-armed *after* it returns, never before: any events
    the callback schedules are sequenced ahead of the next firing, exactly
    like the hand-rolled ``fn(); loop.schedule(period, fire)`` chains this
    API replaces — which is what keeps golden histories bit-identical.
    """

    __slots__ = ("interval", "name")

    def __init__(self, loop: "EventLoop",
                 interval: Union[float, Callable[[], float]],
                 fn: Callable[[], Any], name: Optional[str] = None):
        self.fn = fn
        self.cancelled = False
        self._loop = loop
        self._seq: Optional[int] = None
        self.interval = interval
        self.name = name      # error label; defaults to ``fn``'s name

    @property
    def active(self) -> bool:
        return not self.cancelled

    def _period(self) -> float:
        step = self.interval
        if callable(step):
            step = step()
        if not step > 0:
            name = self.name or getattr(self.fn, "__qualname__", repr(self.fn))
            raise SimulationError(
                f"periodic task {name} has non-positive period {step!r}")
        return step

    def _fire(self) -> None:
        self._seq = None
        try:
            self.fn()
        finally:
            if not self.cancelled:
                loop = self._loop
                self._seq = loop.schedule_at(loop._now + self._period(),
                                             self._fire)


class EventLoop:
    """A priority-queue driven simulation clock.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(1.5, fired.append, "a")
    >>> _ = loop.schedule(0.5, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    1.5
    """

    def __init__(self) -> None:
        #: heap of ``(time, seq, fn, args)`` entries — one tuple per
        #: scheduled callback and nothing else.  heapq compares them at C
        #: speed, and ``seq`` is unique, so comparison never reaches ``fn``.
        self._heap: list[tuple] = []
        self._seq = 0          # entries ever scheduled == next sequence number
        self._now: float = 0.0
        self._running = False
        self._cancelled: set[int] = set()   # seqs cancelled while still queued
        self._dead = 0         # cancelled entries already discarded
        self._watched: dict[int, Event] = {}    # queued seq -> one-shot handle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded).

        Derived, so firing an event maintains no counter: every entry ever
        scheduled is still queued, was discarded as cancelled, or fired.
        """
        return self._seq - len(self._heap) - self._dead

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1), so monitors
        can poll it every tick."""
        return len(self._heap) - len(self._cancelled)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now; returns a
        cancellable :class:`Event`."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        time = self._now + delay
        seq = self.schedule_at(time, fn, *args)
        event = self._watched[seq] = Event(self, time, fn, seq)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> int:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        The one door into the queue: every other scheduling call, in this
        module and outside it, goes through this attribute.  Returns the
        entry's sequence number.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        return seq

    def schedule_periodic(self, interval: Union[float, Callable[[], float]],
                          fn: Callable[[], Any],
                          phase: Optional[float] = None,
                          name: Optional[str] = None) -> PeriodicHandle:
        """Run ``fn()`` every ``interval`` seconds; returns a cancellable
        :class:`PeriodicHandle`.

        ``interval`` may be a callable, re-evaluated at every re-arm.
        ``phase`` delays the first firing (defaults to one full interval);
        ``name`` labels the task in errors (defaults to ``fn``'s name).
        The handle re-arms *after* ``fn`` returns (even if it raises), and
        stops as soon as :meth:`PeriodicHandle.cancel` is called — including
        from inside ``fn`` itself.
        """
        handle = PeriodicHandle(self, interval, fn, name)
        first = handle._period()
        if phase is not None:
            first = phase
        handle._seq = self.schedule_at(self._now + first, handle._fire)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        before = self.processed_events
        self.run(max_events=1)
        return self.processed_events > before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the loop's clock is advanced to exactly
        ``until`` even if the last event fired earlier, so back-to-back
        ``run(until=...)`` calls behave like contiguous wall-clock windows.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        # Hot loop: this drains millions of events per experiment, so each
        # one costs a pop, an unpack, two compares, two empty-container
        # tests, one attribute store and the call.  The heap, the cancelled
        # set and the handle table are aliased into locals (callbacks mutate
        # the same objects); ``self._now`` must stay instance state —
        # callbacks read ``loop.now`` mid-drain.
        heap = self._heap
        cancelled, watched = self._cancelled, self._watched
        limit = _INF if until is None else until
        budget = _INF if max_events is None else float(max_events)
        fired = 0.0     # a float, so the bound is a float-float compare
        try:
            while heap and fired < budget:
                entry = heappop(heap)
                time, seq, fn, args = entry
                if time > limit:
                    heappush(heap, entry)
                    break
                if cancelled and seq in cancelled:
                    cancelled.remove(seq)
                    self._dead += 1
                    continue
                if watched and seq in watched:
                    watched.pop(seq)._seq = None    # its handle: fired
                fired += 1.0
                self._now = time
                fn(*args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until


class TimeWheelLoop(EventLoop):
    """Never instantiated; kept for the frozen perf/ harness, which patches
    both names."""

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> int:
        return EventLoop.schedule_at(self, time, fn, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        EventLoop.run(self, until, max_events)
