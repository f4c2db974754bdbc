"""Deterministic discrete-event loop.

This is the heart of the simulation substrate.  Every other component
(processes, the network, clocks, failure injectors) schedules callbacks on a
single :class:`EventLoop`.  The loop is deterministic: events fire in
``(time, sequence-number)`` order, where the sequence number is the order in
which events were scheduled.  Two runs with the same seed therefore produce
bit-identical histories, which the test suite and the causal-consistency
checker rely on.

There is one scheduler: a binary heap holding one plain tuple
``(time, seq, fn, args)`` per scheduled callback and nothing else.
:meth:`EventLoop.schedule_at` is the way in, except for entries parked
behind the head of a :class:`Fifo` (a busy process lane, or the loop's
Fifo for one timer period, see :meth:`EventLoop.every`), which this
module alone moves onto the heap or fires in place.
Only periodic tasks can be cancelled (:class:`PeriodicHandle`), and a
cancelled entry fires as an uncounted no-op — see "Simulator hot path"
in ``docs/ARCHITECTURE.md``.

Time is a ``float`` measured in **seconds** since the start of the run.
Protocol-level timestamps, by contrast, are integers in microseconds (see
:mod:`repro.clocks`); the two are related through per-process clock models so
that clock drift can be simulated.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["EventLoop", "Fifo", "PeriodicHandle", "SimulationError"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the event loop (e.g. scheduling in the past)."""


class PeriodicHandle:
    """Cancellable handle for a callback repeating every ``interval`` seconds.

    Returned by :meth:`EventLoop.schedule_periodic`; re-armed through
    :meth:`EventLoop.every`.  Cancelling sets ``cancelled``: the queued
    entry stays and fires as a no-op that ``processed_events`` does not
    count, so cancellation is O(1) and only periodic tasks pay for it.
    ``process`` / ``epoch`` are :meth:`repro.sim.process.Process.periodic`'s
    crash guard, data so that a deep copy of a system copies it.

    The callback is re-armed *after* it returns, never before: any events
    the callback schedules are sequenced ahead of the next firing, exactly
    like the hand-rolled ``fn(); loop.schedule(period, fire)`` chains this
    API replaces — which is what keeps golden histories bit-identical.
    """

    __slots__ = ("fn", "interval", "cancelled", "process", "epoch", "_loop",
                 "_queued")

    def __init__(self, loop: "EventLoop", interval: float,
                 fn: Callable[[], Any], process: Any = None):
        self.fn = fn
        self.interval = interval
        self.cancelled = False
        self.process = process
        self.epoch = 0 if process is None else process._epoch
        self._loop = loop
        self._queued = True     # an entry of the task is scheduled

    def cancel(self) -> None:
        """Stop further firings.  Idempotent; safe from inside the callback
        and from any other callback."""
        if not self.cancelled:
            self.cancelled = True
            if self._queued:
                self._loop._cancelled += 1

    def _fire(self, _: Any) -> None:
        loop = self._loop
        self._queued = False
        if self.cancelled:
            loop._cancelled -= 1
            loop._dead += 1
            return
        process = self.process
        if process is not None and (process.crashed
                                    or process._epoch != self.epoch):
            self.cancelled = True
            return
        try:
            self.fn()
        finally:
            if not self.cancelled:
                self._queued = True
                loop.every(self.interval, PeriodicHandle._fire, self, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<PeriodicHandle {name} every {self.interval} {state}>"


def apply(fn: Callable[..., Any], args: tuple) -> None:
    """``fn(*args)``: the ``fn`` of a :class:`Fifo` entry whose body does
    not take two arguments."""
    fn(*args)


class Fifo:
    """A single-server queue of loop entries with non-decreasing
    ``(time, seq)``, of which only the head is on the loop's heap: a
    process lane (``busy`` is the end of the last slot reserved on it, and
    each slot starts where the last ended) or the loop's Fifo for one
    timer period (:meth:`EventLoop.every`).

    ``queued`` counts the entries of generation ``gen`` still to fire.
    When it is 0 the owner sets it to 1 and schedules its head through
    ``schedule_at`` as ``fire(gen, fn, a, b)``; otherwise it hands the
    entry to :meth:`park`.  ``fire`` (bound once) drops an entry of an
    older generation; otherwise it counts the entry out and calls
    ``fn(a, b)`` — a message handler's ``(msg, src)``; other bodies go
    through :func:`apply`.

    The next parked entry follows the one firing in the loop's order.
    When it already trails the heap's head it is pushed before the body;
    otherwise it is fired in place after the body, with no push or pop,
    while it precedes the heap's head and ``run``'s bound and every
    queued entry of the lane is parked (a body may crash the process or
    queue a new head).  The first that fails the test is pushed.
    """

    __slots__ = ("busy", "queued", "gen", "parked", "fire", "_loop")

    def __init__(self, loop: "EventLoop"):
        self.busy = 0.0
        self.queued = 0
        self.gen = 0
        #: ``(time, seq, fire, args)`` entries behind the head, built on
        #: first use and registered with the loop, which counts them
        self.parked: Optional[deque] = None
        # bound once: a bound method made per entry cost geo_cure_mix
        # about 1.5 % of its host time
        self.fire = self._fire
        self._loop = loop

    def park(self, time: float, args: tuple) -> None:
        """Count in ``fire(*args)`` at ``time`` and queue it behind the
        head, with the ``seq`` that ``schedule_at`` would have given it
        now; ``args`` is ``(gen, fn, a, b)``."""
        self.queued += 1
        loop = self._loop
        seq = loop._seq
        loop._seq = seq + 1
        parked = self.parked
        if parked is None:
            parked = self.parked = deque()
            loop._fifos.append(parked)
        parked.append((time, seq, self.fire, args))

    def _fire(self, gen: int, fn: Callable[[Any, Any], Any], a: Any,
              b: Any) -> None:
        # Two fixed arguments, not ``*args``: ``fn(*args)`` cost every
        # parked delivery a tuple and an unspecialised call.
        if gen != self.gen:
            return
        queued = self.queued - 1
        self.queued = queued
        if not queued:
            fn(a, b)
            return
        parked = self.parked
        loop = self._loop
        heap = loop._heap
        if heap and heap[0] < parked[0]:
            heappush(heap, parked.popleft())
            fn(a, b)
            return
        until = loop._until
        try:
            while True:
                fn(a, b)
                if not parked or self.queued != len(parked):
                    return
                entry = parked[0]
                if heap and heap[0] < entry or entry[0] > until:
                    heappush(heap, parked.popleft())
                    return
                parked.popleft()
                self.queued -= 1
                loop._now = entry[0]
                _, fn, a, b = entry[3]
        except BaseException:
            # a body raised: leave the lane's next entry where ``run``
            # finds it
            if parked and self.queued == len(parked):
                heappush(heap, parked.popleft())
            raise

    def release_all(self) -> None:
        """Push every parked entry onto the heap and start a new
        generation: everything queued so far fires as a no-op."""
        parked = self.parked
        if parked:
            heap = self._loop._heap
            for entry in parked:
                heappush(heap, entry)
            parked.clear()
        self.queued = 0
        self.gen += 1


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
        self._fifos: list[deque] = []  # every Fifo's parked entries
        #: timer period -> the Fifo its :meth:`every` entries wait in
        self._periods: dict[float, Fifo] = {}
        self._now: float = 0.0
        #: the bound of the running :meth:`run`; no Fifo fires past it
        self._until = _INF
        self._running = False
        self._cancelled = 0    # cancelled entries still queued
        self._dead = 0         # cancelled entries already surfaced

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
        scheduled is still queued (on the heap or parked behind a Fifo's
        head), surfaced cancelled, or fired.
        """
        return self._seq - len(self._heap) - self._parked() - self._dead

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events, parked ones
        included.  O(lanes that ever backed up), so monitors can poll it
        every tick."""
        return len(self._heap) + self._parked() - self._cancelled

    def _parked(self) -> int:
        return sum(map(len, self._fifos))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> int:
        """Schedule ``fn(*args)`` ``delay`` seconds from now; the relative
        spelling of :meth:`schedule_at`, returning the entry's sequence
        number."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> int:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Every scheduling call, in this module and outside it, goes through
        this attribute; only a :class:`Fifo`'s parked entries reach the
        heap without it.  Returns the entry's sequence number.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        return seq

    def every(self, step: float, fn: Callable[[Any, Any], Any], a: Any,
              b: Any) -> None:
        """Schedule ``fn(a, b)`` ``step`` (> 0, unchecked) seconds from now
        in the loop's :class:`Fifo` for period ``step``, whose entries fall
        due in scheduling order: a timer re-arms here, and an instant's
        ticks cost the heap one entry.  Call it where it is looked up."""
        lane = self._periods.get(step)
        if lane is None:
            lane = self._periods[step] = Fifo(self)
        # a period's Fifo never starts a new generation: ``gen`` stays 0
        if lane.queued:
            lane.park(self._now + step, (0, fn, a, b))
        else:
            lane.queued = 1
            self.schedule_at(self._now + step, lane.fire, 0, fn, a, b)

    def schedule_periodic(self, interval: float, fn: Callable[[], Any],
                          phase: Optional[float] = None,
                          name: Optional[str] = None,
                          process: Any = None) -> PeriodicHandle:
        """Run ``fn()`` every ``interval`` seconds; returns a cancellable
        :class:`PeriodicHandle`.

        ``phase`` delays the first firing (defaults to one full interval).
        An ``interval`` that is not positive raises :class:`SimulationError`
        naming the task (``name``, defaulting to ``fn``'s): re-arming at
        ``now`` would spin ``run(until=...)`` forever.  The handle re-arms
        *after* ``fn`` returns (even if it raises), and stops as soon as
        :meth:`PeriodicHandle.cancel` is called — including from inside
        ``fn`` itself — or, given a ``process``, once that process crashes
        or starts a new epoch.
        """
        if not interval > 0:
            name = name or getattr(fn, "__qualname__", repr(fn))
            raise SimulationError(
                f"periodic task {name} has non-positive period {interval!r}")
        handle = PeriodicHandle(self, interval, fn, process)
        if phase is None:
            self.every(interval, PeriodicHandle._fire, handle, None)
        else:
            self.schedule_at(self._now + phase, PeriodicHandle._fire, handle,
                             None)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` is reached.

        When ``until`` is given, the loop's clock ends at exactly ``until``
        even if the last event fired earlier, so back-to-back
        ``run(until=...)`` calls behave like contiguous wall-clock windows.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        # Hot loop: this drains millions of events per experiment, so each
        # one costs a pop, an unpack, one compare, one attribute store and
        # the call.  ``self._now`` must stay instance state — callbacks
        # read ``loop.now`` mid-drain — and so must ``self._until``, which
        # a Fifo firing in place reads.
        heap = self._heap
        limit = self._until = _INF if until is None else until
        try:
            while heap:
                entry = heappop(heap)
                time, _, fn, args = entry
                if time > limit:
                    heappush(heap, entry)
                    break
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

    def run(self, until: Optional[float] = None) -> None:
        EventLoop.run(self, until)
