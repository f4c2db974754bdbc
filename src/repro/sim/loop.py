"""Deterministic discrete-event loop.

This is the heart of the simulation substrate.  Every other component
(processes, network links, clocks, failure injectors) schedules callbacks on a
single :class:`EventLoop`.  The loop is deterministic: events fire in
``(time, sequence-number)`` order, where the sequence number is the order in
which events were scheduled.  Two runs with the same seed therefore produce
bit-identical histories, which the test suite and the causal-consistency
checker rely on.

The queue holds one plain tuple ``(time, seq, fn, args)`` per scheduled
callback and nothing else; :meth:`EventLoop.schedule_at` is the only way in.
Handles (:class:`Event`, :class:`PeriodicHandle`) exist only for callers
that may cancel, and cancellation is a sequence number filed in a set — see
"Simulator hot path" in ``docs/ARCHITECTURE.md``.

Time is a ``float`` measured in **seconds** since the start of the run.
Protocol-level timestamps, by contrast, are integers in microseconds (see
:mod:`repro.clocks`); the two are related through per-process clock models so
that clock drift can be simulated.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Union

__all__ = ["Event", "EventLoop", "PeriodicHandle", "SimulationError",
           "TimeWheelLoop"]

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
        return self._seq - self._queued() - self._dead

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1), so monitors
        can poll it every tick."""
        return self._queued() - len(self._cancelled)

    def _queued(self) -> int:
        """Entries in the queue, cancelled ones included."""
        return len(self._heap)

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
    """Slotted time-wheel scheduler: same semantics, batch-friendly layout.

    Experiment schedules are dominated by short-horizon events (periodic
    stabilizer/GST/gossip ticks, service-queue completions, intra-DC
    deliveries), so instead of one global heap this backend hashes events
    into fixed-width time slots: ``slot = floor(time / resolution)``, a ring
    of ``wheel_slots`` buckets covering ``resolution * wheel_slots`` seconds
    of horizon.  Each bucket is a *small* heap (a few events), so pushes and
    pops touch O(log bucket) elements instead of O(log total).  Events
    beyond the horizon overflow into an auxiliary heap and migrate into the
    ring as the cursor sweeps forward.

    Firing order is exactly the base loop's ``(time, seq)`` total order:
    buckets partition the time axis, and within a bucket the heap compares
    the same ``(time, seq, fn, args)`` entries as the base loop — the
    property test in ``tests/test_sim_batching.py`` drives arbitrary
    one-shot/periodic/cancelled mixes through both backends and asserts
    identical histories.  The heap backend stays the reference
    implementation and the default (``Environment(scheduler="heap")``).
    """

    def __init__(self, resolution: float = 1e-3,
                 wheel_slots: int = 4096) -> None:
        super().__init__()
        if resolution <= 0.0:
            raise SimulationError("wheel resolution must be positive")
        if wheel_slots < 2:
            raise SimulationError("wheel needs at least two slots")
        self._res = resolution
        self._n = wheel_slots
        #: buckets and overflow hold the base loop's entries
        self._buckets: list[list[tuple]] = [[] for _ in range(wheel_slots)]
        self._overflow: list[tuple] = []     # events beyond the horizon
        self._cursor = 0                     # absolute slot index being drained
        self._wheel_count = 0                # entries (incl. cancelled) in ring

    def _queued(self) -> int:
        return self._wheel_count + len(self._overflow)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> int:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._insert((time, seq, fn, args))
        return seq

    def _insert(self, entry: tuple) -> None:
        idx = int(entry[0] / self._res)
        if idx - self._cursor < self._n:
            heappush(self._buckets[idx % self._n], entry)
            self._wheel_count += 1
        else:
            heappush(self._overflow, entry)

    def _migrate(self) -> None:
        """Pull overflow events that now fall inside the ring's horizon."""
        overflow = self._overflow
        if not overflow:
            return
        res, n = self._res, self._n
        horizon = self._cursor + n
        while overflow and int(overflow[0][0] / res) < horizon:
            entry = heappop(overflow)
            heappush(self._buckets[int(entry[0] / res) % n], entry)
            self._wheel_count += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self) -> Optional[tuple]:
        """Next live entry in ``(time, seq)`` order, or None when drained.

        Within a drain the cursor only moves forward, so the empty-slot
        scan is amortized over simulated time; when the ring is empty it
        jumps straight to the overflow head's slot instead of sweeping.

        Invariant on return: whenever control goes back to user code the
        cursor sits at or before ``now``'s slot, because anything scheduled
        next only promises ``time >= now`` — a cursor left ahead (by the
        overflow jump or by sweeping past cancelled events) would strand
        such events in already-swept buckets, firing them a whole lap late.
        Returning an entry restores it naturally (``now`` becomes the
        entry's time, whose slot is exactly the cursor); the drained path
        rewinds explicitly (the ring and overflow are both empty, so there
        is nothing to re-bucket); :meth:`_push_back` handles the third exit.
        """
        buckets, n, cancelled = self._buckets, self._n, self._cancelled
        while self._wheel_count or self._overflow:
            if not self._wheel_count:
                self._cursor = int(self._overflow[0][0] / self._res)
                self._migrate()
                continue
            bucket = buckets[self._cursor % n]
            while bucket:
                entry = heappop(bucket)
                self._wheel_count -= 1
                if cancelled and entry[1] in cancelled:
                    cancelled.remove(entry[1])
                    self._dead += 1
                    continue
                return entry
            self._cursor += 1
            self._migrate()
        self._cursor = int(self._now / self._res)
        return None

    def _push_back(self, entry: tuple) -> None:
        """Undo a pop (the entry was past an ``until`` boundary).

        :meth:`_pop_next` may have left the cursor beyond ``now``'s slot —
        via the empty-ring overflow jump, or by sweeping empty/cancelled
        buckets on its way to this entry.  Rewind it (see the invariant on
        :meth:`_pop_next`), spilling any ring events back to overflow
        since their buckets were hashed relative to the overshot cursor.
        """
        cursor_floor = int(self._now / self._res)
        if self._cursor > cursor_floor:
            if self._wheel_count:
                overflow = self._overflow
                for bucket in self._buckets:
                    if bucket:
                        overflow.extend(bucket)
                        bucket.clear()
                heapify(overflow)
                self._wheel_count = 0
            self._cursor = cursor_floor
        self._insert(entry)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        watched = self._watched
        limit = _INF if until is None else until
        budget = _INF if max_events is None else float(max_events)
        fired = 0.0
        try:
            while fired < budget:
                entry = self._pop_next()
                if entry is None:
                    break
                time, seq, fn, args = entry
                if time > limit:
                    self._push_back(entry)
                    break
                if watched and seq in watched:
                    watched.pop(seq)._seq = None
                fired += 1.0
                self._now = time
                fn(*args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
            # Skip the empty-slot sweep up to ``until`` only when nothing is
            # pending: with live events still queued (push-back, max_events)
            # the cursor must stay behind their slots, and with an empty
            # ring the overflow jump makes the sweep free anyway.
            if not self._queued():
                self._cursor = int(self._now / self._res)
