"""Consistent-hash partitioning of the key space.

The paper assumes "the key-space is divided into N partitions distributed
among datacenter machines" (§3.1) — in Riak this is a consistent-hashing
ring of vnodes.  :class:`ConsistentHashRing` reproduces that: each logical
partition owns many virtual points on a 32-bit ring, and a key is owned by
the partition whose point follows the key's hash.  Virtual nodes keep the
assignment balanced (tested), and CRC32 keeps it deterministic across runs
and processes.

Sibling partitions in different datacenters use the *same* ring, so
``partition_for(key)`` identifies the responsible partition index everywhere
— which is what lets §5's data/metadata separation ship values directly
partition→sibling partition.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any

__all__ = ["ConsistentHashRing", "VNODES_PER_PARTITION"]

#: Virtual ring points per logical partition: enough for balance (tested).
VNODES_PER_PARTITION = 64


def _hash32(data: str) -> int:
    return zlib.crc32(data.encode()) & 0xFFFFFFFF


class ConsistentHashRing:
    """Maps keys to one of ``n_partitions`` logical partitions."""

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        points: list[tuple[int, int]] = []
        for partition in range(n_partitions):
            for vnode in range(VNODES_PER_PARTITION):
                points.append((_hash32(f"p{partition}/v{vnode}"), partition))
        points.sort()
        self._ring_hashes = [h for h, _ in points]
        self._ring_owners = [owner for _, owner in points]
        #: key -> owner, for ``int`` and ``str`` keys only (see
        #: :meth:`partition_for`); bounded by the key space
        self._memo: dict[Any, int] = {}

    def partition_for(self, key: Any) -> int:
        """Index of the partition responsible for ``key``.

        Every client op asks, so the answer is memoized per key.  The
        owner is a function of ``str(key)``, and only keys of exact type
        ``int`` or ``str`` enter the memo: within either type equal keys
        have equal strings, and an ``int`` never equals a ``str``.  A bool,
        float or any other key is hashed every time, since ``True == 1 ==
        1.0`` would share one entry although their strings differ.
        """
        kind = type(key)
        if kind is int or kind is str:
            try:
                return self._memo[key]
            except KeyError:
                owner = self._memo[key] = self._owner(str(key))
                return owner
        return self._owner(str(key))

    def _owner(self, text: str) -> int:
        """The partition whose ring point follows the hash of ``text``."""
        h = _hash32(text)
        idx = bisect.bisect_right(self._ring_hashes, h)
        if idx == len(self._ring_hashes):
            idx = 0  # wrap around the ring
        return self._ring_owners[idx]

    def histogram(self, keys) -> list[int]:
        """Keys-per-partition counts (used by balance tests)."""
        counts = [0] * self.n_partitions
        for key in keys:
            counts[self.partition_for(key)] += 1
        return counts
