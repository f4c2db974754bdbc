"""Vector clocks with one entry per datacenter (§4 of the paper).

The geo-replication layer tags every update with a vector timestamp
``u.vts`` of M entries (M = number of datacenters).  Compared with
GentleRain's single scalar, vectors add no *false* cross-datacenter
dependencies: an update from dc1 can become visible at dc2 as soon as dc2 has
applied the dc1-prefix and the explicitly named dependencies — not when a
heartbeat from the farthest datacenter arrives.

Protocol hot paths operate on plain tuples for speed; :class:`VectorClock`
wraps a tuple with the comparison algebra and is the type exposed through the
public API.  The free functions work on raw sequences and are what the
protocol modules import.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = [
    "VectorClock",
    "vc_zero",
    "vc_merge",
    "vc_leq",
    "vc_lt",
    "vc_concurrent",
    "vc_bump",
]

Vec = Tuple[int, ...]


def vc_zero(n: int) -> Vec:
    """The bottom element: a vector of ``n`` zeros."""
    return (0,) * n


def vc_merge(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Entry-wise maximum (the read-side MAX of §4)."""
    return tuple(map(max, a, b))


def vc_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff ``a <= b`` entry-wise (a happened-before-or-equals b)."""
    return all(x <= y for x, y in zip(a, b))


def vc_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    """Strict causal order: ``a <= b`` and ``a != b``."""
    return vc_leq(a, b) and tuple(a) != tuple(b)


def vc_concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """Neither dominates: the events are causally unrelated."""
    return not vc_leq(a, b) and not vc_leq(b, a)


def vc_bump(a: Sequence[int], index: int, value: int) -> Vec:
    """Copy of ``a`` with ``a[index] = value``."""
    out = list(a)
    out[index] = value
    return tuple(out)


class VectorClock:
    """Immutable vector clock value (public-API convenience wrapper)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        self.entries: Vec = tuple(int(e) for e in entries)

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        return cls(vc_zero(n))

    def merge(self, other: "VectorClock") -> "VectorClock":
        return VectorClock(vc_merge(self.entries, other.entries))

    def bump(self, index: int, value: int) -> "VectorClock":
        return VectorClock(vc_bump(self.entries, index, value))

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def __len__(self) -> int:
        return len(self.entries)

    def __le__(self, other: "VectorClock") -> bool:
        return vc_leq(self.entries, other.entries)

    def __lt__(self, other: "VectorClock") -> bool:
        return vc_lt(self.entries, other.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def concurrent_with(self, other: "VectorClock") -> bool:
        return vc_concurrent(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"VectorClock{self.entries!r}"
