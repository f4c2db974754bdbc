"""Run-aware unstable-op buffer: O(1) monotone ingestion, one-sort drain.

The paper's implementation (§6) keeps the unstable set in a balanced tree so
that FIND_STABLE is an ordered prefix scan — paying a pointer-chasing
O(log n) insert for *every* operation.  But Algorithm 3's own invariant makes
that general-purpose structure unnecessary: FIFO links plus Property 2
guarantee each partition's operations reach the stabilizer in strictly
increasing timestamp order, and :meth:`StabilizerBase.on_add_op_batch`
enforces exactly that via ``PartitionTime`` (duplicates and regressions never
reach the buffer).  Global-stabilization systems exploit the same
monotonicity to replace per-op structure maintenance with cheap per-source
cursors merged at read time (Xiang & Vaidya's global stabilization; Okapi's
coarse stable-time metadata).

:class:`RunBuffer` realizes that design:

* one append-only **run** per origin partition — a ``deque`` of
  ``(ts, origin, seq, op)`` entries, sorted by construction because each
  origin's timestamps only ever grow;
* ``add()`` is an O(1) amortized append (plus a tail comparison that
  *checks* the monotonicity contract instead of silently corrupting order);
* ``min_ts()`` is a min over the run heads — O(#active origins), taken once
  per stabilization round rather than maintained on every insert;
* ``pop_stable()`` concatenates each run's stable prefix and sorts the
  result once under the same ``(ts, origin, seq)`` total order the
  red–black tree produces, so the emitted stable serialization is
  op-for-op identical to :class:`TreeOpBuffer`'s (the property tests in
  ``tests/test_runbuffer.py`` prove this, and that it equals a k-way
  ``heapq.merge`` of the prefixes);
* ``drop_stable()`` prunes the stable prefix in place without materializing
  it — the follower-replica fast path (Alg. 4 lines 13–15).

Entries are plain tuples whose first three fields *are* the ordering key, so
the sort runs entirely on CPython's C tuple comparison — no key callable —
and its run detection merges the already-sorted prefixes in C, several
times faster than a Python-level ``heapq.merge`` generator at the §7.1
rig's 75 origins.  Keys are unique (origins partition the runs; within a
run ``(ts, seq)`` is strictly increasing), hence comparisons never reach the
non-orderable ``op`` payload in the fourth slot, and the sorted order is
the merge order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["RunBuffer"]


class RunBuffer:
    """Per-origin monotone runs with sorted prefix extraction."""

    __slots__ = ("_runs", "_tail", "_size", "total_added")

    def __init__(self) -> None:
        #: origin partition id -> deque[(ts, origin, seq, op)], ascending
        self._runs: dict[int, deque] = {}
        #: origin -> largest ts ever added; survives drains, so the
        #: monotonicity contract is enforced across the buffer's lifetime
        #: (matching PartitionTime, which also never regresses)
        self._tail: dict[int, int] = {}
        self._size = 0
        self.total_added = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Ingestion (the hot path)
    # ------------------------------------------------------------------
    def add(self, ts: int, origin: int, seq: int, op: Any) -> None:
        """Append ``op`` to its origin's run.  O(1) amortized.

        Raises ``ValueError`` when ``(ts, seq)`` does not extend the run —
        an out-of-order same-origin insert would silently break the sorted-
        run invariant every other operation relies on, so it fails loudly
        instead (the stabilizer's ``PartitionTime`` dedup makes this
        unreachable in the protocol; hitting it means a FIFO/Property-2
        violation upstream).
        """
        tail = self._tail
        last = tail.get(origin)
        if last is not None and last >= ts:
            raise ValueError(
                f"non-monotone insert for origin {origin}: "
                f"ts={ts} does not exceed the run tail ts={last} "
                f"— FIFO/Property 2 violated upstream"
            )
        tail[origin] = ts
        run = self._runs.get(origin)
        if run is None:
            run = self._runs[origin] = deque()
        run.append((ts, origin, seq, op))
        self._size += 1
        self.total_added += 1

    def extend_run(self, entries: list) -> int:
        """Bulk-append one origin's pre-built run entries.  O(n) total.

        ``entries`` are ``(ts, origin, seq, op)`` tuples, all for the same
        origin, timestamp-ascending — the above-StableTime slice of the
        entries :meth:`repro.core.service.StabilizerBase.on_add_op_batch`
        builds from one frame.  One validation pass checks the same
        contract :meth:`add` enforces per call (single origin, strictly
        increasing ts extending the run tail), then the run grows by a
        single ``deque.extend``.  Returns the number of entries appended.
        """
        if not entries:
            return 0
        origin = entries[0][1]
        last = self._tail.get(origin)
        prev = last if last is not None else -1
        for entry in entries:
            if entry[1] != origin:
                raise ValueError(
                    f"extend_run entries mix origins {origin} and {entry[1]}"
                )
            if entry[0] <= prev:
                raise ValueError(
                    f"non-monotone extend_run for origin {origin}: "
                    f"ts={entry[0]} does not exceed ts={prev} "
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

    def contains(self, ts: int, origin: int, seq: int) -> bool:
        """Membership test (diagnostics; O(run length), not a hot path)."""
        run = self._runs.get(origin)
        if not run:
            return False
        return (ts, origin, seq) in ((e[0], e[1], e[2]) for e in run)

    # ------------------------------------------------------------------
    # Stabilization
    # ------------------------------------------------------------------
    def min_ts(self) -> Optional[int]:
        """Timestamp of the oldest buffered op, or None when empty.

        A min over the run heads: each run is ascending, so its head is its
        minimum, and the global minimum is the smallest head.
        """
        heads = [run[0][0] for run in self._runs.values() if run]
        return min(heads) if heads else None

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
