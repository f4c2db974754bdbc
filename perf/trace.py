"""Host-time spans around the simulator's public entry points.

``with HostTracer() as tracer:`` replaces class attributes of the ``repro``
classes listed in :func:`_entry_points` (plus the event loops' scheduling
methods) with span-recording wrappers and restores the originals, by
identity, on exit.  Nothing in ``src/`` knows about it, and the timed
repetitions never enter the context.

A span is ``[name, layer, start, end, parent, cause, uid]``; *layer* is the
``repro`` module the code lives in (see :data:`LAYERS`).  Self time is a
span's duration minus the time its child spans (and the bookkeeping around
them) cover, so the layers' self times sum exactly to the duration of the
root span (``EventLoop.run``) minus the measured bookkeeping.

Spans are only recorded inside the root span: building and starting the
system happens with the wrappers installed (so that bound methods cached at
construction are the wrapped ones) but is not attributed.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "HostTracer", "layer_of"]

#: every layer a span can be attributed to, in put-pipeline order
LAYERS = (
    "sim.loop", "sim.network", "sim.process",
    "core.client", "core.partition", "kvstore", "core.uplink",
    "core.service", "core.shard", "datastruct", "durability.wal",
    "geo.receiver", "baselines.gst", "baselines.sequencer",
    "metrics", "clocks", "harness.loadgen",
)

#: module prefix -> layer; the first match wins, so specific prefixes precede
#: the package they belong to.  Code in an unlisted module opens no span and
#: is charged to the span that called it.
_PREFIXES = (
    ("repro.sim.loop", "sim.loop"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.latency", "sim.network"),
    ("repro.sim", "sim.process"),
    ("repro.core.client", "core.client"),
    ("repro.core.partition", "core.partition"),
    ("repro.kvstore", "kvstore"),
    ("repro.core.uplink", "core.uplink"),
    ("repro.core.shard", "core.shard"),
    ("repro.core.service", "core.service"),
    ("repro.core.replica", "core.service"),
    ("repro.core.election", "core.service"),
    ("repro.core.assembly", "core.service"),
    ("repro.datastruct", "datastruct"),
    ("repro.durability", "durability.wal"),
    ("repro.geo.receiver", "geo.receiver"),
    ("repro.baselines.sequencer", "baselines.sequencer"),
    ("repro.baselines.seqstore", "baselines.sequencer"),
    ("repro.baselines.gst", "baselines.gst"),
    ("repro.baselines.cure", "baselines.gst"),
    ("repro.baselines.gentlerain", "baselines.gst"),
    ("repro.metrics", "metrics"),
    ("repro.obs", "metrics"),
    ("repro.clocks", "clocks"),
    ("repro.harness.loadgen", "harness.loadgen"),
)

#: spans kept as full records (all spans are kept as aggregates)
MAX_RECORDS = 50_000

_clock = time.perf_counter


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer of a ``repro`` module name, or None when it has none."""
    if module:
        for prefix, layer in _PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


def _uid_of(msg: Any):
    uid = getattr(msg, "uid", None)
    if uid is None:
        uid = getattr(getattr(msg, "update", None), "uid", None)
    return uid


def _entry_points() -> list[tuple]:
    """``(class, attribute, role, items_arg)`` of every wrapped method.

    *role* says what the wrapper records besides the span: ``send`` /
    ``send_many`` remember which span carried each message, ``handle`` /
    ``handle_many`` look that span up as the *cause* (and take the uid the
    message carries).  *items_arg* is the positional index of a sequence
    whose length is summed beside the call count.
    """
    import repro.baselines  # noqa: F401  (registers every Process subclass)
    import repro.geo.system  # noqa: F401
    import repro.harness.loadgen  # noqa: F401
    from repro.core.uplink import EunomiaUplink
    from repro.datastruct.opblock import OpBlock, OpRunBuilder
    from repro.datastruct.runbuffer import RunBuffer
    from repro.durability.wal import WriteAheadLog
    from repro.kvstore.storage import VersionedStore
    from repro.metrics.collector import MetricsHub
    from repro.sim.network import Network
    from repro.sim.process import Process

    points = [
        (Network, "send", "send", None),
        (Network, "send_many", "send_many", 3),
        (Network, "multicast", "send", None),
        (Process, "deliver", "handle", None),
        (Process, "deliver_batch", "handle_many", 1),
        (WriteAheadLog, "stage_ops", None, 1),
        (RunBuffer, "extend_run", None, 1),
    ]
    for cls, names in (
            (EunomiaUplink, ("record", "on_ack")),
            (WriteAheadLog, ("stage_op", "commit", "truncate")),
            (RunBuffer, ("add", "pop_stable", "drop_stable")),
            (OpBlock, ("from_updates",)),
            (OpRunBuilder, ("append", "cut")),
            (VersionedStore, ("get", "put")),
            (MetricsHub, ("mark", "mark_many", "point"))):
        points.extend((cls, name, None, None) for name in names)
    classes, seen = [Process], {Process}
    for cls in classes:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                classes.append(sub)
    for cls in classes:
        points.extend((cls, name, "handle", None) for name in vars(cls)
                      if name.startswith("on_") and callable(vars(cls)[name]))
    return points


class HostTracer:
    """Span recorder; a context manager that installs and removes wrappers."""

    def __init__(self) -> None:
        #: (layer, entry point) -> [calls, total s, self s, items]
        self.aggregates: dict[tuple[str, str], list] = {}
        #: the first MAX_RECORDS spans, in opening order
        self.records: list[list] = []
        #: total duration of root spans (``EventLoop.run`` calls)
        self.root_s = 0.0
        #: time spent opening and closing spans inside the root
        self.bookkeeping_s = 0.0
        #: open spans: [start, child s, record index, entered]
        self._stack: list[list] = []
        self._carried: dict[int, tuple] = {}   # id(msg) -> (msg, sending span)
        self._callback_keys: dict = {}
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def __enter__(self) -> "HostTracer":
        from repro.sim.loop import EventLoop, TimeWheelLoop
        from repro.sim.process import Process

        for cls, attr, role, items_arg in _entry_points():
            layer = layer_of(cls.__module__)
            if layer is not None:
                self._patch(cls, attr, self._traced,
                            (layer, f"{cls.__name__}.{attr}"), role, items_arg)
        for cls in (EventLoop, TimeWheelLoop):
            if "schedule_at" in vars(cls):
                self._patch(cls, "schedule_at", self._traced_schedule_at,
                            ("sim.loop", f"{cls.__name__}.schedule_at"))
            if "run" in vars(cls):
                self._patch(cls, "run", self._traced_root,
                            ("sim.loop", f"{cls.__name__}.run"))
        # both take the task as (self, interval, fn, ...)
        self._patch(EventLoop, "schedule_periodic", self._tracing_periodic)
        self._patch(Process, "periodic", self._tracing_periodic)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def _patch(self, cls: type, attr: str, wrap: Callable, *wrap_args) -> None:
        """Replace ``cls.attr`` by ``wrap(original, *wrap_args)``."""
        original = vars(cls)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrap(original.__func__, *wrap_args))
        else:
            wrapped = wrap(original, *wrap_args)
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, key: tuple, entered: float, cause=None, uid=None) -> list:
        """Open a span; ``entered`` is when the wrapper took control."""
        stack = self._stack
        records = self.records
        if len(records) < MAX_RECORDS:
            record = len(records)
            records.append([key[1], key[0], 0.0, 0.0,
                            stack[-1][2] if stack else None, cause, uid])
        else:
            record = None
        frame = [0.0, 0.0, record, entered]
        stack.append(frame)
        frame[0] = _clock()
        return frame

    def _close(self, frame: list, key: tuple, items: int = 0) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        entry = self.aggregates.get(key)
        if entry is None:
            entry = self.aggregates[key] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        entry[3] += items
        if frame[2] is not None:
            record = self.records[frame[2]]
            record[2] = frame[0]
            record[3] = end
        if stack:
            # The parent is charged the span *and* the bookkeeping around
            # it, and the bookkeeping is totalled so that it can be taken
            # out of the time the layers share (``attributed_s``).
            extent = _clock() - frame[3]
            stack[-1][1] += extent
            self.bookkeeping_s += extent - duration
        else:
            self.root_s += duration

    @property
    def attributed_s(self) -> float:
        """Root time minus span bookkeeping: what the layers' self times
        sum to."""
        return self.root_s - self.bookkeeping_s

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _traced(self, fn: Callable, key: tuple, role: Optional[str] = None,
                items_arg: Optional[int] = None) -> Callable:
        stack, records, carried = self._stack, self.records, self._carried
        open_span, close_span = self._open, self._close

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            entered = _clock()
            cause = uid = None
            if role is not None and len(records) < MAX_RECORDS:
                if role == "send" and len(args) > 3:
                    carried[id(args[3])] = (args[3], len(records))
                elif role == "send_many" and len(args) > 3:
                    for msg in args[3]:
                        carried[id(msg)] = (msg, len(records))
                elif len(args) > 1:
                    msg = args[1]
                    if role == "handle_many":
                        msg = msg[0] if msg else None
                    sent = carried.get(id(msg))
                    if sent is not None:
                        cause = sent[1]
                    uid = _uid_of(msg)
            frame = open_span(key, entered, cause, uid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, key, 0 if items_arg is None
                           else len(args[items_arg]))

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_root(self, fn: Callable, key: tuple) -> Callable:
        def run(*args, **kwargs):
            frame = self._open(key, _clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, key)

        run.__wrapped__ = fn
        return run

    def _traced_schedule_at(self, fn: Callable, key: tuple) -> Callable:
        """Route every scheduled callback through :meth:`_fire`."""
        stack, fire = self._stack, self._fire
        open_span, close_span = self._open, self._close

        def schedule_at(loop, when, callback, *args):
            if not stack:
                return fn(loop, when, fire, callback, *args)
            frame = open_span(key, _clock())
            try:
                return fn(loop, when, fire, callback, *args)
            finally:
                close_span(frame, key)

        schedule_at.__wrapped__ = fn
        return schedule_at

    def _tracing_periodic(self, fn: Callable) -> Callable:
        """Wrap the task function (third positional argument), so that a
        periodic task's body is attributed to its owner rather than to the
        closure in ``repro.sim`` that calls it."""
        def call(*args, **kwargs):
            if len(args) > 2:
                key = self._callback_key(args[2])
                if key is not None:
                    args = (*args[:2], self._traced(args[2], key), *args[3:])
            return fn(*args, **kwargs)

        call.__wrapped__ = fn
        return call

    def _fire(self, callback: Callable, *args):
        entered = _clock()
        key = self._callback_key(callback)
        if key is None or not self._stack:
            return callback(*args)
        frame = self._open(key, entered)
        try:
            return callback(*args)
        finally:
            self._close(frame, key)

    def _callback_key(self, callback: Callable) -> Optional[tuple]:
        """(layer, name) of a loop callback: the module of the object a bound
        method belongs to, else the module that defines the function."""
        owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        cache_key = (type(owner), getattr(func, "__code__", func))
        try:
            return self._callback_keys[cache_key]
        except KeyError:
            pass
        if owner is not None and not isinstance(owner, type):
            module = type(owner).__module__
            name = f"{type(owner).__name__}.{getattr(func, '__name__', '?')}"
        else:
            module = getattr(func, "__module__", None)
            name = getattr(func, "__qualname__", repr(func))
        layer = layer_of(module)
        key = None if layer is None else (layer, name)
        self._callback_keys[cache_key] = key
        return key

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), for every layer in LAYERS."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, _, self_s, _) in self.aggregates.items():
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return {layer: (calls, self_s)
                for layer, (calls, self_s) in totals.items()}

    def calls(self, suffix: str) -> tuple[int, int]:
        """(calls, items) summed over entry points whose name ends with
        ``suffix`` (e.g. ``".on_add_op_batch"`` across every class)."""
        calls = items = 0
        for (_, name), entry in self.aggregates.items():
            if name.endswith(suffix):
                calls += entry[0]
                items += entry[3]
        return calls, items

    def write_chrome_trace(self, path: str) -> None:
        """Write the recorded spans as Chrome-trace JSON (one thread; spans
        nest, so Perfetto / chrome://tracing shows them as a flame chart)."""
        origin = self.records[0][2] if self.records else 0.0
        events = [{
            "ph": "X", "name": name, "cat": layer, "pid": 0, "tid": 0,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"span": index, "parent": parent, "cause": cause,
                     "uid": uid},
        } for index, (name, layer, start, end, parent, cause, uid)
            in enumerate(self.records)]
        table = [{"layer": layer, "entry_point": name, "calls": calls,
                  "total_s": total, "self_s": self_s, "items": items}
                 for (layer, name), (calls, total, self_s, items)
                 in sorted(self.aggregates.items())]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "aggregates": table, "root_s": self.root_s,
                       "bookkeeping_s": self.bookkeeping_s}, out, default=repr)
