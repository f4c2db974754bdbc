"""Simulated processes with a single-server CPU service queue.

Modelling CPU time is what lets the simulator reproduce the paper's
throughput results: a traditional sequencer saturates because every client
update costs it a slice of service time on one core, while Eunomia's
off-critical-path handling is much cheaper per operation.  Each
:class:`Process` therefore owns a FIFO service queue: work (delivered
messages, or local work a handler queues with :meth:`Process._enqueue`) is
served one item at a time, each item occupying the process for its
*service cost* before its handler runs.

Handlers are discovered by naming convention: a message of class ``AddOp``
is handled by ``on_add_op(msg, src)``.  Unhandled messages raise when their
service slot completes, so protocol typos fail loudly.

Work is scheduled on named **lanes**, each an independent single server
(defaulting to one lane, ``"cpu"``).  Storage partitions route remote-
replication work to a ``"replication"`` lane — modelling the background
scheduler threads real stores use — so geo-replication applies do not queue
behind foreground client operations.  Lanes are declared by message type
in :attr:`Process.LANES`.

A lane is a :class:`~repro.sim.loop.Fifo`: a busy clock and the queue of
its completions.  Each slot starts where the last ended, so they are
sorted by ``(time, seq)``, and a saturated server's backlog costs the
loop's heap one entry instead of one per waiting message.

Service costs come from a plain ``costs`` table passed to the constructor:
message class name → seconds, or a callable taking the message and
returning seconds for size-dependent work such as batch processing.  A type
with no entry costs 0.0.

Every message is delivered on its own: one arrival event
(:meth:`Process.deliver`) reserves the service slot and one completion
event runs the handler — or, when the message may be **fused** and finds
its lane strictly idle, the arrival event runs the handler itself and no
completion is queued (see :meth:`Process.deliver` for the condition and
why it is safe).  The first delivery of each message type builds a
**delivery plan** ``(lane, fixed cost, bound handler, fusable)`` (see
:meth:`Process._plan`), whose lane is the :class:`Fifo` object itself;
every later delivery of that type costs one dict lookup instead of a
cost-table probe, a lane probe and a handler search.

Crash-stop failures are supported: :meth:`Process.crash` drops everything in
flight for the process and makes future deliveries no-ops until
:meth:`Process.recover`.  Both start a new generation of every lane, so
what was queued fires as a no-op.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Any, Callable, Optional

from .env import Environment
from .loop import EventLoop, Fifo, PeriodicHandle, apply

__all__ = ["Process"]

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL_RE.sub("_", name).lower()


def _noop(*args: Any) -> None:
    """The body of a slot reserved while its process is crashed."""


class _Lanes(dict):
    """Lane name -> lane (a :class:`Fifo`), built on first use."""

    __slots__ = ("loop",)

    def __init__(self, loop: EventLoop) -> None:
        super().__init__()
        self.loop = loop

    def __missing__(self, name: str) -> Fifo:
        lane = self[name] = Fifo(self.loop)
        return lane


class Process:
    """Base class for every simulated server, service, or client."""

    #: message class name -> lane, for the types served off ``"cpu"``
    #: (subclasses replace the table)
    LANES: dict[str, str] = {}
    #: message class names whose handler may run at *arrival* on an idle
    #: lane although the type has a service cost.  Declaring a type here
    #: promises that moving its handler from the end of its own service
    #: slot to the start changes nothing the process does in between (the
    #: slot is still reserved; see :meth:`deliver`).  Zero-cost types need
    #: no entry: their slot is empty, so both ends are the same instant.
    EAGER: frozenset = frozenset()

    def __init__(self, env: Environment, name: str, site: int = 0,
                 costs: Optional[dict[str, Any]] = None):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.metrics = env.metrics   # the run's one hub, read per record
        self.name = name
        self.site = site
        self.pid = env.allocate_pid()
        #: message class name -> seconds, or a callable of the message
        self.costs = costs or {}
        self.crashed = False
        self.state_lost = False   # set by an amnesia crash, cleared on restore
        self._epoch = 0           # bumped on crash; stale callbacks are dropped
        self._lanes = _Lanes(env.loop)
        #: message type -> ``(lane, cost, handler, fusable)``, see :meth:`_plan`
        self._plans: dict[type, tuple] = {}
        if env.network is not None:
            env.network.register(self)

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    # read in C: no Python frame per access (the loop never changes)
    now = property(attrgetter("_loop._now"),
                   doc="Current simulation time in seconds.")

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn`` after ``delay`` seconds (no CPU cost, crash-aware)."""
        loop = self._loop
        loop.schedule_at(loop._now + delay, self._run_guarded, self._epoch,
                         fn, args)

    def _run_guarded(self, epoch: int, fn: Callable[..., Any],
                     args: tuple) -> None:
        """Crash/epoch-guarded trampoline for :meth:`after` callbacks."""
        if not self.crashed and self._epoch == epoch:
            fn(*args)

    def periodic(self, period: float, fn: Callable[[], Any],
                 phase: Optional[float] = None) -> PeriodicHandle:
        """Run ``fn`` every ``period`` seconds; ``phase`` staggers the first
        firing (defaults to one full period).

        Built on :meth:`repro.sim.loop.EventLoop.schedule_periodic`, whose
        handle is returned: ``cancel()`` stops the task, and the crash guard
        retires the whole chain (one uniform re-arm point — recovery paths
        simply call the owning component's ``start()`` again).  The guard
        is the handle's ``process`` and ``epoch``, data rather than a
        closure, so a deep copy of the process copies its tasks too.
        """
        return self._loop.schedule_periodic(
            period, fn, phase=phase,
            name=f"{getattr(fn, '__qualname__', fn)} of {self.name}",
            process=self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: "Process", msg: Any) -> None:
        """Send ``msg`` to ``dst`` over the environment's network."""
        self.env.network.send(self, dst, msg)

    def multicast(self, dsts, msg: Any) -> None:
        """Fan one message out to every destination, in iteration order."""
        self.env.network.multicast(self, dsts, msg)

    def _plan(self, kind: type) -> tuple:
        """Build and cache the delivery plan of message type ``kind``.

        A plan is ``(lane, cost, handler, fusable)``, ``lane`` the
        :class:`Fifo` object the type is served on.  ``cost`` is None when
        the cost table's entry is callable; :meth:`deliver` then asks it per
        message.  A missing handler is planned as :meth:`_unhandled`, which
        raises only when dispatched.  ``fusable`` says the handler may run
        in the arrival event when the lane is idle: the fixed cost is 0.0,
        or the class lists the type in :attr:`EAGER`.  Plans assume what
        they cache is fixed for the process's life: the cost table's plain
        numbers, :attr:`LANES`, :attr:`EAGER` and the ``on_*`` methods.
        """
        name = kind.__name__
        cost = self.costs.get(name, 0.0)
        if callable(cost):
            cost = None
        lane = self._lanes[self.LANES.get(name, "cpu")]
        handler = getattr(self, "on_" + _snake(name), self._unhandled)
        fusable = cost is not None and (cost == 0.0 or name in self.EAGER)
        plan = self._plans[kind] = (lane, cost, handler, fusable)
        return plan

    def _unhandled(self, msg: Any, src: "Process") -> None:
        raise NotImplementedError(
            f"{type(self).__name__} {self.name!r} has no handler for "
            f"{type(msg).__name__}")

    def deliver(self, msg: Any, src: "Process") -> None:
        """Called by the network at delivery time; feeds the service queue.

        The hottest path in the simulator, so the plan lookup and
        :meth:`_enqueue` are inlined: one dict probe, the service-slot
        reservation, and one completion entry ``lane.fire(gen, handler,
        msg, src)`` — no closure, no per-message cost, lane or handler
        search.  The entry is the lane's head on the heap when the lane has
        no completion queued, and is parked behind the head otherwise.

        **Fused delivery.**  A fusable message (see :meth:`_plan`) that
        finds its lane *strictly* idle — the last reserved slot ended before
        ``now`` — reserves ``[now, now + cost)`` as always and is handled
        right here; no completion entry is queued.  Safe because every
        queued entry of a lane completes at or before ``lane.busy``
        (both :meth:`deliver` and :meth:`_enqueue` raise it to the
        completion they schedule), so ``busy < now`` means nothing of this
        lane is still queued and nothing — in particular no earlier message
        of the same FIFO link — can be overtaken.  ``busy == now`` is *not*
        idle: a completion of this lane may still be queued at this very
        instant with a later sequence number than the running arrival, so
        that case, a busy lane and every non-fusable type take the
        two-event path unchanged.  A zero-cost handler runs at the instant
        it always did; an :attr:`EAGER` one runs ``cost`` earlier, which is
        what its class vouched for.
        """
        if self.crashed:
            return
        try:
            lane, cost, handler, fusable = self._plans[type(msg)]
        except KeyError:
            lane, cost, handler, fusable = self._plan(type(msg))
        if cost is None:
            cost = self.costs[type(msg).__name__](msg)
        loop = self._loop
        start = lane.busy
        now = loop._now
        if start < now:
            if fusable:
                lane.busy = now + cost
                handler(msg, src)
                return
            start = now
        complete = start + cost
        lane.busy = complete
        if lane.queued:
            lane.park(complete, (lane.gen, handler, msg, src))
        else:
            lane.queued = 1
            loop.schedule_at(complete, lane.fire, lane.gen, handler, msg, src)

    def deliver_batch(self, msgs: tuple, src: "Process") -> None:
        """Loop over :meth:`deliver`; kept for the frozen perf/ harness."""
        for msg in msgs:
            self.deliver(msg, src)

    def _enqueue(self, fn: Callable[..., Any], cost: float, *args: Any,
                 lane: str = "cpu") -> float:
        """Reserve a ``cost``-second slot on ``lane``, then run ``fn(*args)``.

        Returns the slot's completion time — when ``fn`` will run.  A slot
        reserved while crashed runs nothing: it fires while the process is
        still down, or goes stale at :meth:`recover`.  A body of two
        arguments is queued as the lane's ``(gen, fn, a, b)`` and called
        directly; any other goes through :func:`~repro.sim.loop.apply`.
        """
        loop = self._loop
        slot = self._lanes[lane]
        start = slot.busy
        now = loop._now
        if start < now:
            start = now
        complete = start + cost
        slot.busy = complete
        if self.crashed:
            fn = _noop
        if len(args) == 2:
            a, b = args
        else:
            fn, a, b = apply, fn, args
        if slot.queued:
            slot.park(complete, (slot.gen, fn, a, b))
        else:
            slot.queued = 1
            loop.schedule_at(complete, slot.fire, slot.gen, fn, a, b)
        return complete

    def _unpark_all(self) -> None:
        """Start a new generation of every lane: its queued completions
        fire as no-ops."""
        for lane in self._lanes.values():
            lane.release_all()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self, lose_state: bool = False) -> None:
        """Crash-stop: drop queued work and ignore deliveries until recovery.

        With ``lose_state=True`` this is an *amnesia* crash: the process's
        volatile protocol state is discarded too (via the
        :meth:`_lose_state` hook), modelling a machine whose memory is gone.
        Only state held in durable media (e.g. a
        :class:`repro.durability.wal.WriteAheadLog`) survives; recovery then
        requires an explicit restore path, not just :meth:`recover`.
        """
        self.crashed = True
        self._epoch += 1
        self._unpark_all()
        if lose_state:
            self.state_lost = True
            self._lose_state()

    def _lose_state(self) -> None:
        """Hook: discard volatile protocol state (amnesia crash).

        Subclasses with protocol state override this; durable media owned by
        the process (WALs, checkpoint stores) must survive untouched apart
        from dropping their own volatile staging buffers.
        """

    def recover(self) -> None:
        """Restart the process with an empty service queue.

        Every lane comes back idle: anything reserved while crashed goes
        stale, and the busy clocks reset.
        Protocol state is *not* reset here; subclasses that need clean-slate
        recovery override this and re-initialize their own fields.
        """
        self.crashed = False
        self._epoch += 1
        self._unpark_all()
        for lane in self._lanes.values():
            lane.busy = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} site={self.site}>"
