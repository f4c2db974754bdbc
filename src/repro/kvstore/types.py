"""Core value types flowing through every protocol in this repository.

An :class:`Update` is one client write: it carries the key/value payload, the
scalar hybrid timestamp assigned by its origin partition (Alg. 2), the vector
timestamp of the geo-replicated protocol (§4), and bookkeeping used by the
metrics layer (origin commit time).  Updates are deliberately plain data — no
behaviour — so that every subsystem (Eunomia, receivers, baselines, the
checker) can share them.

``size_bytes`` feeds the network/CPU cost accounting: metadata-only shipping
(§5's separation of data and metadata) makes Eunomia's traffic independent of
value size, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Optional, Tuple

__all__ = ["Update", "Versioned", "UpdateId", "ORDER_KEY",
           "METADATA_OVERHEAD_BYTES"]

#: Fixed per-update metadata footprint (key hash, origin, seq, framing).
METADATA_OVERHEAD_BYTES = 32

UpdateId = Tuple[int, int, int]  # (origin_dc, partition_index, per-partition seq)


@dataclass(slots=True)
class Update:
    """A single write operation as it travels through the system."""

    key: Any
    value: Any
    origin_dc: int
    partition_index: int
    seq: int                      # per-origin-partition sequence number
    ts: int                       # scalar hybrid timestamp (== vts[origin_dc])
    vts: Tuple[int, ...]          # vector timestamp, one entry per datacenter
    commit_time: float = 0.0      # sim time the origin partition committed it
    value_bytes: int = 0          # payload size (for network accounting)

    # read in C: no Python frame per access
    uid = property(attrgetter("origin_dc", "partition_index", "seq"),
                   doc="Globally unique, order-stable identifier.")

    @property
    def size_bytes(self) -> int:
        """Wire size of the full update (payload + vector + framing)."""
        return self.value_bytes + 8 * len(self.vts) + METADATA_OVERHEAD_BYTES

    @property
    def metadata_bytes(self) -> int:
        """Wire size of the metadata-only form shipped through Eunomia (§5)."""
        return 8 * len(self.vts) + METADATA_OVERHEAD_BYTES

    def with_value(self, value: Any) -> "Update":
        """Copy with a different payload (metadata↔data pairing, §5).

        Direct construction instead of ``dataclasses.replace`` — this runs
        once per shipped/applied op on the hot replication paths, and
        ``replace``'s field introspection is measurable there.
        """
        return Update(self.key, value, self.origin_dc, self.partition_index,
                      self.seq, self.ts, self.vts, self.commit_time,
                      self.value_bytes)


#: ``ORDER_KEY(update)`` is ``(ts, partition_index, seq)``, the total order
#: of Eunomia's stable stream (ties on ``ts`` broken by origin partition,
#: then sequence number), evaluated in C — a sort key as it stands
ORDER_KEY = attrgetter("ts", "partition_index", "seq")


@dataclass(slots=True)
class Versioned:
    """A stored version: payload plus the ordering metadata for LWW."""

    value: Any
    ts: int
    origin_dc: int
    vts: Tuple[int, ...] = field(default=())

    def dominates(self, other: Optional["Versioned"]) -> bool:
        """Convergent last-writer-wins order that respects causality.

        Versions are totally ordered by ``(sum(vts), ts, origin_dc)``.  If
        version b causally follows version a then ``a.vts < b.vts``
        entry-wise-or-equal with at least one strict entry, hence
        ``sum(a.vts) < sum(b.vts)`` — so a causally newer write always wins
        over the versions it observed, even across datacenters with skewed
        clocks (a plain scalar-timestamp LWW can invert that).  Concurrent
        versions fall back to the deterministic ``(ts, origin_dc)``
        tie-break; because the order is total on the version set, every
        datacenter converges to the same winner.
        """
        if other is None:
            return True
        mine = (sum(self.vts), self.ts, self.origin_dc)
        theirs = (sum(other.vts), other.ts, other.origin_dc)
        return mine > theirs
