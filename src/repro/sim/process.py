"""Simulated processes with a single-server CPU service queue.

Modelling CPU time is what lets the simulator reproduce the paper's
throughput results: a traditional sequencer saturates because every client
update costs it a slice of service time on one core, while Eunomia's
off-critical-path handling is much cheaper per operation.  Each
:class:`Process` therefore owns a FIFO service queue: work (delivered
messages or periodic local tasks) is served one item at a time, each item
occupying the process for its *service cost* before its handler runs.

Handlers are discovered by naming convention: a message of class ``AddOp``
is handled by ``on_add_op(msg, src)``.  Unhandled messages raise when their
service slot completes, so protocol typos fail loudly.

Work is scheduled on named **lanes**, each an independent single server
(defaulting to one lane, ``"cpu"``).  Storage partitions route remote-
replication work to a ``"replication"`` lane — modelling the background
scheduler threads real stores use — so geo-replication applies do not queue
behind foreground client operations.  Declare lanes by message type in
:attr:`Process.LANES`, or override :meth:`Process.lane_of` to choose them
per message.

Every message is delivered on its own: one arrival event
(:meth:`Process.deliver`) reserves the service slot and one completion
event runs the handler — or, when the message may be **fused** and finds
its lane strictly idle, the arrival event runs the handler itself and no
completion is queued (see :meth:`Process.deliver` for the condition and
why it is safe).  The first delivery of each message type builds a
**delivery plan** ``(lane, fixed cost, bound handler, fusable)`` (see
:meth:`Process._plan`); every later delivery of that type costs one dict
lookup instead of a cost-model call, a lane call and a handler search.

Crash-stop failures are supported: :meth:`Process.crash` drops everything in
flight for the process and makes future deliveries no-ops until
:meth:`Process.recover`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from .env import Environment

__all__ = ["CostModel", "Process", "PeriodicTask"]

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL_RE.sub("_", name).lower()


class CostModel:
    """Per-message-type CPU service costs, in seconds.

    ``costs`` maps message class names to seconds — or to a callable taking
    the message and returning seconds, for size-dependent work such as batch
    processing.  ``default`` applies to everything else.  ``per_byte`` adds a
    size-proportional component for messages that expose a ``size_bytes``
    attribute (used to charge Cure for its fatter vector metadata, for
    example).
    """

    __slots__ = ("costs", "default", "per_byte")

    def __init__(self, default: float = 0.0,
                 costs: Optional[dict[str, Any]] = None,
                 per_byte: float = 0.0):
        self.default = default
        self.costs = dict(costs or {})
        self.per_byte = per_byte

    def cost_of(self, msg: Any) -> float:
        base = self.costs.get(type(msg).__name__, self.default)
        if callable(base):
            base = base(msg)
        if self.per_byte:
            size = getattr(msg, "size_bytes", 0)
            base += size * self.per_byte
        return base


class PeriodicTask:
    """Handle for a repeating local task; ``stop()`` cancels future firings.

    A thin crash-aware veneer over the loop-level
    :class:`repro.sim.loop.PeriodicHandle` (wired by
    :meth:`Process.periodic`): ``period`` is the handle's interval, a number
    of seconds or a zero-argument callable, assignable at runtime and
    re-read before every re-arm, so a mutation takes effect on the next
    tick.
    """

    __slots__ = ("_handle",)

    def stop(self) -> None:
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._handle.cancelled

    @property
    def period(self):
        return self._handle.interval

    @period.setter
    def period(self, value) -> None:
        self._handle.interval = value


class Process:
    """Base class for every simulated server, service, or client."""

    #: message class name -> lane, for the types served off ``"cpu"``
    #: (read by the default :meth:`lane_of`; subclasses replace the table)
    LANES: dict[str, str] = {}
    #: message class names whose handler may run at *arrival* on an idle
    #: lane although the type has a service cost.  Declaring a type here
    #: promises that moving its handler from the end of its own service
    #: slot to the start changes nothing the process does in between (the
    #: slot is still reserved; see :meth:`deliver`).  Zero-cost types need
    #: no entry: their slot is empty, so both ends are the same instant.
    EAGER: frozenset = frozenset()

    def __init__(self, env: Environment, name: str, site: int = 0,
                 cost_model: Optional[CostModel] = None):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.name = name
        self.site = site
        self.pid = env.allocate_pid()
        self.cost_model = cost_model or CostModel()
        self.crashed = False
        self.state_lost = False   # set by an amnesia crash, cleared on restore
        self._epoch = 0           # bumped on crash; stale callbacks are dropped
        self._lane_busy: dict[str, float] = {}   # lane -> end of last slot
        #: message type -> ``(lane, cost, handler, fusable)``, see :meth:`_plan`
        self._plans: dict[type, tuple] = {}
        if env.network is not None:
            env.network.register(self)

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._loop._now

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn`` after ``delay`` seconds (no CPU cost, crash-aware)."""
        loop = self._loop
        loop.schedule_at(loop._now + delay, self._run_guarded, self._epoch,
                         fn, args)

    def _run_guarded(self, epoch: int, fn: Callable[..., Any],
                     args: tuple) -> None:
        """Crash/epoch-guarded trampoline for :meth:`after` callbacks and
        :meth:`_enqueue` slots."""
        if not self.crashed and self._epoch == epoch:
            fn(*args)

    def periodic(self, period, fn: Callable[[], Any],
                 cost: float = 0.0, phase: Optional[float] = None) -> PeriodicTask:
        """Run ``fn`` every ``period`` seconds.

        ``cost`` > 0 routes each firing through the service queue, charging
        the process CPU time — this is how the periodic global-stabilization
        work of GentleRain/Cure is made expensive.  ``phase`` staggers the
        first firing (defaults to one full period).  ``period`` may be a
        zero-argument callable, re-read before every firing (the straggler
        injector mutates intervals at runtime).

        Built on :meth:`repro.sim.loop.EventLoop.schedule_periodic`: the
        returned :class:`PeriodicTask` wraps the loop-level handle, and the
        crash guard retires the whole chain (one uniform re-arm point —
        recovery paths simply call the owning component's ``start()`` again).
        """
        task = PeriodicTask()
        epoch = self._epoch

        def body() -> None:
            if self.crashed or self._epoch != epoch:
                task.stop()
                return
            if cost > 0.0:
                self._enqueue(fn, cost)
            else:
                fn()

        task._handle = self._loop.schedule_periodic(
            period, body, phase=phase,
            name=f"{getattr(fn, '__qualname__', fn)} of {self.name}")
        return task

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: "Process", msg: Any) -> None:
        """Send ``msg`` to ``dst`` over the environment's network."""
        self.env.network.send(self, dst, msg)

    def multicast(self, dsts, msg: Any) -> None:
        """Fan one message out to every destination, in iteration order."""
        self.env.network.multicast(self, dsts, msg)

    def lane_of(self, msg: Any) -> str:
        """Service lane for ``msg``: its type's :attr:`LANES` entry.

        An override may look at the payload; it is then called for every
        message instead of once per type.
        """
        return self.LANES.get(type(msg).__name__, "cpu")

    def _plan(self, kind: type) -> tuple:
        """Build and cache the delivery plan of message type ``kind``.

        A plan is ``(lane, cost, handler, fusable)``.  ``cost`` is None when
        the cost model has to see every message (a callable entry, or a
        per-byte rate), ``lane`` is None when a subclass overrides
        :meth:`lane_of`; :meth:`deliver` evaluates those per message.  A
        missing handler is planned as :meth:`_unhandled`, which raises only
        when dispatched.  ``fusable`` says the handler may run in the
        arrival event when the lane is idle: the fixed cost is 0.0, or the
        class lists the type in :attr:`EAGER`.  Plans assume what they cache
        is fixed for the process's life: the cost table's plain numbers,
        :attr:`LANES`, :attr:`EAGER` and the ``on_*`` methods.
        """
        name = kind.__name__
        model = self.cost_model
        cost = model.costs.get(name, model.default)
        if callable(cost) or model.per_byte:
            cost = None
        lane = (self.LANES.get(name, "cpu")
                if type(self).lane_of is Process.lane_of else None)
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
        reservation, and one scheduled entry carrying ``(epoch, handler,
        msg, src)`` as plain args into :meth:`_run_delivery` — no closure,
        no per-message cost-model, lane or handler search.

        **Fused delivery.**  A fusable message (see :meth:`_plan`) that
        finds its lane *strictly* idle — the last reserved slot ended before
        ``now`` — reserves ``[now, now + cost)`` as always and is handled
        right here; no completion entry is queued.  Safe because every
        queued entry of a lane completes at or before ``_lane_busy[lane]``
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
            cost = self.cost_model.cost_of(msg)
        if lane is None:
            lane = self.lane_of(msg)
        busy = self._lane_busy
        loop = self._loop
        start = busy.get(lane, 0.0)
        now = loop._now
        if start < now:
            if fusable:
                busy[lane] = now + cost
                handler(msg, src)
                return
            start = now
        complete = start + cost
        busy[lane] = complete
        loop.schedule_at(complete, self._run_delivery, self._epoch, handler,
                         msg, src)

    def _run_delivery(self, epoch: int, handler: Callable, msg: Any,
                      src: "Process") -> None:
        """Service-slot completion: handle unless crashed/re-epoched."""
        if not self.crashed and self._epoch == epoch:
            handler(msg, src)

    def deliver_batch(self, msgs: tuple, src: "Process") -> None:
        """Loop over :meth:`deliver`; kept for the frozen perf/ harness."""
        for msg in msgs:
            self.deliver(msg, src)

    def _enqueue(self, fn: Callable[..., Any], cost: float, *args: Any,
                 lane: str = "cpu") -> float:
        """Reserve a ``cost``-second slot on ``lane``, then run ``fn(*args)``.

        Returns the slot's completion time — when ``fn`` will run.
        """
        loop = self._loop
        start = max(loop._now, self._lane_busy.get(lane, 0.0))
        complete = start + cost
        self._lane_busy[lane] = complete
        loop.schedule_at(complete, self._run_guarded, self._epoch, fn, args)
        return complete

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

        Protocol state is *not* reset here; subclasses that need clean-slate
        recovery override this and re-initialize their own fields.
        """
        self.crashed = False
        self._epoch += 1
        self._lane_busy.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} site={self.site}>"
