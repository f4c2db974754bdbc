"""Per-origin monotone runs: the one deferral structure of every release gate.

The paper's design rests on one mechanism: per-origin streams that are
monotone by construction, held until a cut covers them.  Global-
stabilization systems exploit the same monotonicity to replace per-op
structure maintenance with cheap per-source cursors merged at read time
(Xiang & Vaidya's global stabilization; Okapi's coarse stable-time
metadata).  :class:`RunBuffer` is that structure, and every gate in the
repository holds one:

* the stabilizer's unstable set (Alg. 3), drained by the **sorted cut**
  :meth:`RunBuffer.pop_stable` / :meth:`RunBuffer.drop_stable`;
* the GentleRain/Cure deferred set (:mod:`repro.baselines.gst`), drained
  by the **gated per-origin drain** :meth:`RunBuffer.pop_releasable`;
* the receiver's per-origin queues (Alg. 5, :mod:`repro.geo.receiver`),
  drained one **head** at a time (:meth:`RunBuffer.head` /
  :meth:`RunBuffer.pop_head`).

An entry is a tuple whose ``entry[0]`` is its run's strictly increasing
key and whose ``entry[1]`` is the run's origin; the rest is the caller's.
The stabilizer and the GST key by the int ``ts`` — FIFO links plus
Property 2 make each origin's timestamps grow.  The receiver keys by
``kvstore.types.ORDER_KEY``, because its stream carries cross-partition
``ts`` ties.  One validation loop (:meth:`RunBuffer.extend_run`) *checks*
that contract instead of silently corrupting the order, and the
per-origin tail it keeps is the receiver's duplicate watermark.

The stabilizer's entries are ``(ts, origin, seq, op)``: the first three
fields *are* the §6 tree's ``(ts, origin, seq)`` ordering key, so
:meth:`pop_stable`'s one sort runs entirely on CPython's C tuple
comparison, and its run detection merges the already-sorted prefixes in C,
several times faster than a Python-level ``heapq.merge`` at the §7.1 rig's
75 origins.  Keys are unique (origins partition the runs; within a run
``(ts, seq)`` is strictly increasing), so comparisons never reach the
non-orderable ``op`` payload, and the stable serialization is op-for-op
identical to the reference ``TreeOpBuffer``'s (``tests/rbtree.py``; the property
tests in ``tests/test_runbuffer.py`` prove this, and that it equals a
k-way ``heapq.merge`` of the prefixes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

__all__ = ["RunBuffer"]


class RunBuffer:
    """Per-origin monotone runs with three drains."""

    __slots__ = ("_runs", "_tail", "_size", "total_added")

    def __init__(self) -> None:
        #: origin -> deque of entries, key-ascending; in first-add order
        self._runs: dict[Any, deque] = {}
        #: origin -> largest key ever added; survives drains, so the
        #: monotonicity contract is enforced across the buffer's lifetime
        #: (matching PartitionTime, which also never regresses)
        self._tail: dict[Any, Any] = {}
        self._size = 0
        self.total_added = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Ingestion (the hot path)
    # ------------------------------------------------------------------
    def add(self, *entry: Any) -> None:
        """Append one entry ``(key, origin, ...)``: :meth:`extend_run` of
        one."""
        self.extend_run([entry])

    def extend_run(self, entries: list) -> int:
        """Bulk-append one origin's entries, key-ascending.  O(n) total.

        The one validation of the ingestion contract: every entry has the
        first entry's origin, and keys strictly increase from the run's
        tail on.  A violation raises ``ValueError`` before anything is
        appended — an out-of-order same-origin insert would silently break
        the sorted-run invariant every drain relies on (the gates' dedup
        makes this unreachable in the protocol; hitting it means a
        FIFO/Property-2 violation upstream).  Returns the number appended.
        """
        if not entries:
            return 0
        origin = entries[0][1]
        rest = iter(entries)
        prev = self._tail.get(origin)
        if prev is None:                # a new run: its head extends nothing
            prev = next(rest)[0]
        for entry in rest:
            if entry[1] != origin:
                raise ValueError(
                    f"extend_run entries mix origins {origin} and {entry[1]}"
                )
            if entry[0] <= prev:
                raise ValueError(
                    f"non-monotone insert for origin {origin}: "
                    f"{entry[0]} does not exceed the run tail {prev} "
                    f"— FIFO/Property 2 violated upstream"
                )
            prev = entry[0]
        self._tail[origin] = prev
        run = self._runs.get(origin)
        if run is None:
            run = self._runs[origin] = deque()
        run.extend(entries)
        n = len(entries)
        self._size += n
        self.total_added += n
        return n

    def tail(self, origin: Any, default: Any = None) -> Any:
        """The largest key ever added for ``origin`` (drains keep it)."""
        return self._tail.get(origin, default)

    # ------------------------------------------------------------------
    # The sorted cut (the stabilizer, Alg. 3)
    # ------------------------------------------------------------------
    def pop_stable(self, stable_ts: int) -> list:
        """Extract every op with ``ts <= stable_ts`` in total order.

        FIND_STABLE + removal (Alg. 3 lines 9–11): each run's stable prefix
        is moved onto one list (whole-run fast path when the entire run is
        stable), which is then sorted under ``(ts, origin, seq)``, the exact
        key and tie-break of the §6 tree buffer.  The keys are unique, so
        the sort yields exactly the k-way merge of the prefixes.
        """
        entries = []
        extend = entries.extend
        for run in self._runs.values():
            if not run or run[0][0] > stable_ts:
                continue
            if run[-1][0] <= stable_ts:     # whole run stable: bulk move
                extend(run)
                run.clear()
            else:
                popleft = run.popleft
                while run[0][0] <= stable_ts:
                    entries.append(popleft())
        self._size -= len(entries)
        entries.sort()
        return [entry[3] for entry in entries]

    def drop_stable(self, stable_ts: int) -> int:
        """Discard the stable prefix without building op lists.

        Follower replicas churn this every θ on StableTime announcements
        (Alg. 4 lines 13–15); there is nothing to serialize, so nothing is
        materialized — runs are truncated in place.  Returns the count.
        """
        dropped = 0
        for run in self._runs.values():
            if not run or run[0][0] > stable_ts:
                continue
            if run[-1][0] <= stable_ts:     # whole run stable: O(1) clear
                dropped += len(run)
                run.clear()
                continue
            popleft = run.popleft
            while run[0][0] <= stable_ts:
                popleft()
                dropped += 1
        self._size -= dropped
        return dropped

    # ------------------------------------------------------------------
    # The gated per-origin drain (GentleRain / Cure)
    # ------------------------------------------------------------------
    def pop_releasable(self, bound: Callable[[Any], Any],
                       releasable: Callable[[Any], bool]) -> list:
        """Remove and return every entry with ``key <= bound(origin)`` whose
        payload ``entry[2]`` ``releasable`` admits: origins in first-add
        order, FIFO within an origin.

        A vector gate (Cure: ``vts[d] <= GSV[d]`` for every remote ``d``)
        admits no total order — two entries can each be blocked by a
        different term — but every gate includes the origin's own entry,
        and ``bound(origin)`` is that term.  An entry above it is refused
        whatever its other terms, so scanning each run's prefix under the
        bound never misses one, and a round costs O(covered prefixes).
        Within that prefix another term may still refuse an entry (never
        under the scalar gate, whose bound is the whole gate); refused
        entries go back to the head in their own order, keeping the run
        sorted.
        """
        released = []
        for origin, run in self._runs.items():
            limit = bound(origin)
            blocked = []
            while run and run[0][0] <= limit:
                entry = run.popleft()
                if releasable(entry[2]):
                    released.append(entry)
                else:
                    blocked.append(entry)
            if blocked:
                run.extendleft(reversed(blocked))
        self._size -= len(released)
        return released

    # ------------------------------------------------------------------
    # Head peek / pop (the receiver, Alg. 5)
    # ------------------------------------------------------------------
    def head(self, origin: Any) -> Optional[tuple]:
        """The oldest entry of ``origin``'s run, or None when it is empty."""
        run = self._runs.get(origin)
        return run[0] if run else None

    def pop_head(self, origin: Any) -> tuple:
        """Remove and return the oldest entry of ``origin``'s run."""
        entry = self._runs[origin].popleft()
        self._size -= 1
        return entry
