"""Columnar (structure-of-arrays) record of one shipped update batch.

Every hot ingestion path in the simulator receives the *same* shape of
input: a batch of updates from one origin partition, timestamp-ascending by
Property 2 and FIFO links.  Handling it op by op — attribute access, a
``PartitionTime`` comparison, a WAL call, and a buffer insert per op — makes
the Python interpreter the bottleneck long before the modelled costs do.

:class:`OpBlock` is the batch's columnar view: parallel tuples of the fields
the ingestion paths actually branch on (``origin``, ``ts``, ``seq``, ``key``,
``size``) extracted in one pass, with the op payloads kept alongside for the
consumers that eventually serialize them.  Because ``ts`` is a plain sorted
tuple, the per-op control flow of Algorithm 3's NEW_OP loop collapses into
two bisections:

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
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Optional, Sequence

__all__ = ["OpBlock", "OpRunBuilder"]


class OpBlock:
    """Parallel columns over one origin partition's timestamp-ascending ops."""

    __slots__ = ("origin", "ts", "seq", "key", "size", "payload", "_wire")

    def __init__(self, origin: Sequence[int], ts: Sequence[int],
                 seq: Sequence[int], key: Sequence, size: Sequence[int],
                 payload: Sequence[Any]):
        n = len(ts)
        if not (len(origin) == len(seq) == len(key) == len(size)
                == len(payload) == n):
            raise ValueError("OpBlock columns must have equal length")
        self.origin = tuple(origin)
        self.ts = tuple(ts)
        self.seq = tuple(seq)
        self.key = tuple(key)
        self.size = tuple(size)
        self.payload = tuple(payload)
        self._wire: Optional[int] = None

    @classmethod
    def from_updates(cls, ops: Iterable[Any]) -> "OpBlock":
        """Columnarize update objects (one attribute pass per column)."""
        ops = tuple(ops)
        return cls(
            origin=[op.partition_index for op in ops],
            ts=[op.ts for op in ops],
            seq=[op.seq for op in ops],
            key=[op.key for op in ops],
            size=[getattr(op, "size_bytes", 0) for op in ops],
            payload=ops,
        )

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
    onto parallel lists, windows come out as :class:`OpBlock` snapshots cut
    with C-level column slices (``cut``), and the acknowledged prefix is
    dropped wholesale (``drop_prefix``).  ``wire`` holds each op's §5 wire
    footprint, computed exactly once at ``append`` time — historically the
    per-op ``size_bytes``/``metadata_bytes`` sum was recomputed on every
    frame send to every replica.
    """

    __slots__ = ("origin", "ts", "seq", "key", "wire", "payload")

    def __init__(self, origin: int):
        self.origin = origin
        self.ts: list[int] = []
        self.seq: list[int] = []
        self.key: list = []
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
        self.key.append(op.key)
        self.wire.append(op.size_bytes if op.value is not None
                         else op.metadata_bytes)
        self.payload.append(op)

    def cut(self, start: int, end: Optional[int] = None) -> OpBlock:
        """Snapshot columns ``[start:end)`` as an immutable :class:`OpBlock`.

        The block's wire total is pre-seeded from the ``wire`` column, so
        frames built here never re-touch the op objects.
        """
        if end is None:
            end = len(self.ts)
        block = OpBlock(
            origin=(self.origin,) * (end - start),
            ts=self.ts[start:end],
            seq=self.seq[start:end],
            key=self.key[start:end],
            size=self.wire[start:end],
            payload=self.payload[start:end],
        )
        block._wire = sum(block.size)
        return block

    def drop_prefix(self, n: int) -> None:
        """Discard the first ``n`` entries (the fully acknowledged prefix)."""
        if n <= 0:
            return
        del self.ts[:n]
        del self.seq[:n]
        del self.key[:n]
        del self.wire[:n]
        del self.payload[:n]
