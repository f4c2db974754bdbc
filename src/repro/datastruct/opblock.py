"""Columnar (structure-of-arrays) record of one shipped update batch.

Every hot ingestion path in the simulator receives the *same* shape of
input: a batch of updates from one origin partition, timestamp-ascending by
Property 2 and FIFO links.  Handling it op by op — attribute access, a
``PartitionTime`` comparison, a WAL call, and a buffer insert per op — makes
the Python interpreter the bottleneck long before the modelled costs do.

:class:`OpBlock` is the batch's columnar view: parallel tuples of the fields
the ingestion paths actually read (``origin``, ``ts``, ``seq``) extracted in
one pass, with the op payloads kept alongside for the consumers that
eventually serialize them.  Because ``ts`` is a plain sorted tuple, the
per-op control flow of Algorithm 3's NEW_OP loop collapses into two
bisections:

* :meth:`first_above` (PartitionTime dedup) finds where the new suffix
  starts — everything before it is an at-least-once duplicate;
* a second :meth:`first_above` at ``StableTime`` splits the accepted suffix
  into ops that only advance PartitionTime and ops that enter the unstable
  buffer — which then ingests them wholesale via
  :meth:`repro.datastruct.runbuffer.RunBuffer.extend_run`.

The same block serves bulk WAL staging
(:meth:`repro.durability.wal.WriteAheadLog.stage_ops`).  (The GentleRain /
Cure deferred-update set is not a consumer: it keeps its own per-origin
deques, see :mod:`repro.baselines.gst`.)

State-identical by construction: blocks never reorder, drop, or mutate ops —
they only precompute the columns the per-op loop would have read anyway.
Every column is a ``tuple``: the uplink's frame cache ships one block to all
R replicas, so a block must never change under a receiver.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Optional, Sequence

__all__ = ["OpBlock", "OpRunBuilder"]


class OpBlock:
    """Parallel columns over one origin partition's timestamp-ascending ops."""

    __slots__ = ("origin", "ts", "seq", "payload", "_wire")

    def __init__(self, origin: Sequence[int], ts: Sequence[int],
                 seq: Sequence[int], payload: Sequence[Any],
                 wire: Optional[int] = None):
        """Freeze each column into a tuple (a tuple passes through as is)."""
        if not len(origin) == len(ts) == len(seq) == len(payload):
            raise ValueError("OpBlock columns must have equal length")
        self.origin = tuple(origin)
        self.ts = tuple(ts)
        self.seq = tuple(seq)
        self.payload = tuple(payload)
        self._wire = wire

    @classmethod
    def from_updates(cls, ops: Iterable[Any]) -> "OpBlock":
        """Columnarize update objects (one attribute pass per column)."""
        ops = tuple(ops)
        return cls([op.partition_index for op in ops], [op.ts for op in ops],
                   [op.seq for op in ops], ops)

    def __len__(self) -> int:
        return len(self.ts)

    def __bool__(self) -> bool:
        return bool(self.ts)

    def wire_bytes(self) -> int:
        """Total on-the-wire bytes of the block, §5 metadata rule applied.

        ``value=None`` ops (metadata-only shipping) cost ``metadata_bytes``,
        full ops ``size_bytes`` — the same sum the per-op frame properties
        historically computed on *every* ``size_bytes`` read.  Cached after
        the first call, so a window retransmitted to R replicas pays the
        per-op pass exactly once.
        """
        wire = self._wire
        if wire is None:
            wire = sum(op.size_bytes if op.value is not None
                       else op.metadata_bytes for op in self.payload)
            self._wire = wire
        return wire

    # ------------------------------------------------------------------
    # Bisection helpers (the batched replacements for per-op branches)
    # ------------------------------------------------------------------
    def first_above(self, floor: int, lo: int = 0) -> int:
        """Index of the first op with ``ts > floor`` (= len when none).

        ``ts`` is ascending, so ops below the index are exactly those a
        per-op ``ts <= floor`` check would have skipped.
        """
        return bisect_right(self.ts, floor, lo)

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def run_entries(self, start: int = 0) -> list[tuple]:
        """The ``(ts, origin, seq, op)`` run entries from ``start`` on.

        This is the exact entry layout :class:`RunBuffer` stores and the
        record layout the WAL stages, built in one ``zip`` pass instead of
        a tuple allocation per ``add()``/``stage_op()`` call; feed the
        result to ``extend_run`` / ``stage_ops``.
        """
        return list(zip(self.ts[start:], self.origin[start:],
                        self.seq[start:], self.payload[start:]))


class OpRunBuilder:
    """Append-mode columnar accumulator for one partition's pending run.

    The uplink's pending state in structure-of-arrays form: appends push
    onto parallel lists, windows come out as :class:`OpBlock` snapshots
    built straight from the lists (``cut``), and the acknowledged prefix is
    dropped wholesale (``drop_prefix``).  ``wire`` holds each op's §5 wire
    footprint, computed exactly once at ``append`` time — historically the
    per-op ``size_bytes``/``metadata_bytes`` sum was recomputed on every
    frame send to every replica.
    """

    __slots__ = ("origin", "ts", "seq", "wire", "payload")

    def __init__(self, origin: int):
        self.origin = origin
        self.ts: list[int] = []
        self.seq: list[int] = []
        self.wire: list[int] = []
        self.payload: list[Any] = []

    def __len__(self) -> int:
        return len(self.ts)

    def __bool__(self) -> bool:
        return bool(self.ts)

    def __getitem__(self, i):
        """Index/slice the pending ops (introspection convenience)."""
        return self.payload[i]

    def append(self, op: Any) -> None:
        self.ts.append(op.ts)
        self.seq.append(op.seq)
        self.wire.append(op.size_bytes if op.value is not None
                         else op.metadata_bytes)
        self.payload.append(op)

    def cut(self, start: int, end: Optional[int] = None) -> OpBlock:
        """Snapshot columns ``[start:end)`` as an immutable :class:`OpBlock`.

        The block's wire total is pre-seeded from the ``wire`` column, so
        frames built here never re-touch the op objects.
        """
        ts, seq, wire, payload = self.ts, self.seq, self.wire, self.payload
        if start or (end is not None and end != len(ts)):   # a window
            ts, seq = ts[start:end], seq[start:end]
            wire, payload = wire[start:end], payload[start:end]
        return OpBlock((self.origin,) * len(ts), ts, seq, payload, sum(wire))

    def drop_prefix(self, n: int) -> None:
        """Discard the first ``n`` entries (the fully acknowledged prefix)."""
        if n <= 0:
            return
        del self.ts[:n]
        del self.seq[:n]
        del self.wire[:n]
        del self.payload[:n]
