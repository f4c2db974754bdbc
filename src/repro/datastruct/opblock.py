"""The uplink's pending run, and the one name the frozen ``perf/`` keeps.

A frame is its ops: the three frame messages carry one origin's
timestamp-ascending ``tuple`` of updates and nothing else.
:class:`OpRunBuilder` is a :class:`~repro.core.stream.ReliableStream`'s
pending run: the ``ts`` list its window cuts bisect, beside the ops.  A
window is cut as a ``tuple`` because one cached frame is shared by all R
replicas and must never change under a receiver.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = ["OpBlock", "OpRunBuilder"]


class OpRunBuilder:
    """Append-mode pending run of one partition: ``ts`` beside the ops."""

    __slots__ = ("ts", "payload")

    def __init__(self):
        self.ts: list[int] = []
        self.payload: list[Any] = []

    def __len__(self) -> int:
        return len(self.ts)

    def append(self, op: Any) -> None:
        self.ts.append(op.ts)
        self.payload.append(op)

    def cut(self, start: int, end: Optional[int] = None) -> tuple:
        """The ops ``[start:end)`` as an immutable tuple (a frame's ops)."""
        return tuple(self.payload[start:end])

    def take(self) -> tuple:
        """Every pending op as one tuple, leaving the run empty."""
        ops = tuple(self.payload)
        self.ts.clear()
        self.payload.clear()
        return ops

    def drop_prefix(self, n: int) -> None:
        """Discard the first ``n`` entries (the fully acknowledged prefix)."""
        del self.ts[:n]
        del self.payload[:n]


class OpBlock:
    """Never instantiated; kept for the frozen perf/ harness, which patches
    ``from_updates`` by name."""

    @classmethod
    def from_updates(cls, ops: Iterable[Any]) -> tuple:
        return tuple(ops)
