"""Simulated write-ahead log with group-commit fsync semantics.

The log is the durable medium of one stabilizer process (a shard, an
Algorithm 4 replica, or the plain service): it outlives
``Process.crash(lose_state=True)`` while the process's protocol state does
not.  Two-phase writes keep the failure model honest:

* :meth:`WriteAheadLog.stage_op` / :meth:`stage_partition_time` append to a
  **volatile** buffer — the in-memory log tail a real implementation holds
  between fsyncs.  An amnesia crash calls :meth:`lose_volatile` and those
  records are gone, exactly like unsynced page-cache contents.
* :meth:`commit` moves everything staged into the **durable** record list.
  The caller charges :meth:`flush_cost` on its ``"disk"`` lane first (fixed
  fsync latency + bytes since the last scheduled flush, the group-commit
  shape from :class:`repro.sim.disk.DiskModel`), and — in fault-tolerant
  deployments — sends the batch acknowledgement only *after* the commit, so
  an acked op is always recoverable (the uplink prunes acked prefixes; an
  ack for a lost record would lose the op forever).

Record kinds:

* ``(OP_RECORD, ts, origin, seq, op)`` — one accepted operation; replay
  rebuilds the unstable buffer from these (per-origin monotone by
  construction, so the :class:`repro.datastruct.runbuffer.RunBuffer`
  contract holds on replay too);
* ``(PT_RECORD, partition_index, ts, None, None)`` — a heartbeat-driven
  PartitionTime advance; replay folds these into the restored vector.
  Losing an unsynced PT record is safe (the floor recomputes lower and new
  heartbeats re-advance it), so heartbeats never force a flush of their own.

:meth:`truncate` drops op records at or below the shipped stable floor and
all PT records (the checkpoint's PartitionTime snapshot supersedes them);
it runs at checkpoint time and is what bounds replay length.

On-disk frames are sized by a **delta codec**: each record is a tag byte,
varint-encoded fields with the timestamp delta-encoded against the previous
staged record, and an 8-byte content digest standing in for the op payload
(the value bytes live in the partition's own store; the log only needs
enough to identify and order the op on replay).  Timestamps within one
group commit are microseconds apart, so deltas fit in 1–3 varint bytes.

The codec is *cost accounting only*: staged/durable records keep the full
in-memory tuples, so replay, truncation, and the recovery path never see
it.  The delta chain resets to the durable tail on :meth:`lose_volatile` —
exactly what a re-opened log file would delta against.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.disk import DiskModel

__all__ = ["WriteAheadLog", "OP_RECORD", "PT_RECORD"]

#: Record tags (first tuple slot).
OP_RECORD = 0
PT_RECORD = 1

#: Tag byte + truncated content digest per op record.
_TAG_BYTES = 1
_DIGEST_BYTES = 8


def _varint_len(value: int) -> int:
    """Bytes a zigzag varint encoding of ``value`` occupies (≥ 1)."""
    if value < 0:
        value = (-value << 1) - 1
    else:
        value <<= 1
    n = 1
    while value >= 0x80:
        value >>= 7
        n += 1
    return n


class WriteAheadLog:
    """Durable record list + volatile staging buffer for one stabilizer."""

    __slots__ = ("name", "disk", "records", "_staged",
                 "_staged_bytes", "_scheduled_bytes", "_last_staged_ts",
                 "_last_durable_ts", "appends", "commits", "bytes_durable",
                 "records_truncated", "_fail_fsyncs", "fsync_failures",
                 "records_torn", "obs_hook")

    def __init__(self, name: str, disk: Optional[DiskModel] = None):
        self.name = name
        self.disk = disk or DiskModel()
        #: durable records, in acceptance order (survives amnesia crashes)
        self.records: list[tuple] = []
        self._staged: list[tuple] = []      # volatile: lost on amnesia crash
        self._staged_bytes = 0
        self._scheduled_bytes = 0           # staged bytes a flush already covers
        self._last_staged_ts = 0            # delta chain tail (volatile)
        self._last_durable_ts = 0           # chain tail as of the last commit
        self.appends = 0
        self.commits = 0
        self.bytes_durable = 0
        self.records_truncated = 0
        self._fail_fsyncs = 0               # injected: next N commits fail
        self.fsync_failures = 0
        self.records_torn = 0
        #: observability callback ``hook(wal)``, fired after each commit
        #: that moved records durable (repro.obs closes wal_fsync spans
        #: here).  None when no instruments are attached.
        self.obs_hook = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def staged(self) -> int:
        """Volatile records awaiting a commit (0 after every flush)."""
        return len(self._staged)

    @property
    def unflushed_bytes(self) -> int:
        """Staged bytes not yet made durable (the gauge the scraper reads)."""
        return self._staged_bytes

    # ------------------------------------------------------------------
    # Staging (volatile)
    # ------------------------------------------------------------------
    def _op_record_bytes(self, ts: int, origin: int, seq: int) -> int:
        size = (_TAG_BYTES + _DIGEST_BYTES
                + _varint_len(ts - self._last_staged_ts)
                + _varint_len(origin) + _varint_len(seq))
        self._last_staged_ts = ts
        return size

    def stage_op(self, ts: int, origin: int, seq: int, op: Any) -> None:
        """Stage one accepted operation record."""
        self._staged.append((OP_RECORD, ts, origin, seq, op))
        self._staged_bytes += self._op_record_bytes(ts, origin, seq)
        self.appends += 1

    def stage_ops(self, entries: list) -> None:
        """Bulk-stage ``(ts, origin, seq, op)`` entries (one batch's suffix).

        Equivalent to calling :meth:`stage_op` per entry — the batched
        ingestion path hands over a whole accepted suffix at once (see
        :meth:`repro.datastruct.opblock.OpBlock.run_entries`).
        """
        if not entries:
            return
        record_bytes = self._op_record_bytes
        size = 0
        for ts, origin, seq, _ in entries:
            size += record_bytes(ts, origin, seq)
        self._staged.extend((OP_RECORD, ts, origin, seq, op)
                            for ts, origin, seq, op in entries)
        self._staged_bytes += size
        self.appends += len(entries)

    def stage_partition_time(self, partition_index: int, ts: int) -> None:
        """Stage a heartbeat-driven PartitionTime advance."""
        self._staged.append((PT_RECORD, partition_index, ts, None, None))
        self._staged_bytes += (_TAG_BYTES + _varint_len(partition_index)
                               + _varint_len(ts - self._last_staged_ts))
        self._last_staged_ts = ts
        self.appends += 1

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def flush_cost(self) -> float:
        """Disk-lane cost of the next flush; marks staged bytes scheduled.

        Each call charges only the bytes staged since the previous call, so
        back-to-back batches each pay one fsync barrier over their own delta
        (a slightly conservative group commit: an ideal implementation would
        coalesce barriers queued behind a busy device).
        """
        delta = self._staged_bytes - self._scheduled_bytes
        if delta <= 0:
            return 0.0
        self._scheduled_bytes = self._staged_bytes
        return self.disk.fsync_cost(delta)

    def fail_fsyncs(self, count: int) -> None:
        """Inject fsync errors: the next ``count`` commits fail (return -1).

        A failed commit leaves every staged record volatile and resets the
        scheduled-bytes mark, so a retry re-pays the full flush cost —
        exactly what re-issuing a failed fsync costs a real log.  Callers
        honouring the ack-after-fsync invariant must withhold the batch
        acknowledgement and retry (with backoff) until a commit succeeds.
        """
        self._fail_fsyncs += count

    def tear_tail(self, records: int) -> int:
        """Torn write: drop up to ``records`` records off the durable tail.

        Models a tail the device never actually persisted, discovered when
        the log is re-opened after a crash — so it should be injected
        together with an amnesia crash of the owner.  The delta chain and
        byte counters are rebased to the surviving tail.  Returns the
        number of records actually torn.
        """
        torn = min(records, len(self.records))
        if torn:
            del self.records[len(self.records) - torn:]
            self.records_torn += torn
            # The chain tail a re-opened file would delta against is the
            # last *surviving* op/PT timestamp.
            tail_ts = 0
            for record in reversed(self.records):
                tail_ts = record[1] if record[0] == OP_RECORD else record[2]
                break
            self._last_durable_ts = tail_ts
            if not self._staged:
                self._last_staged_ts = tail_ts
        return torn

    def commit(self) -> int:
        """Make everything staged durable; returns the record count moved.

        Returns ``-1`` when an injected fsync error fires: nothing staged
        becomes durable and the next :meth:`flush_cost` re-charges the full
        pending bytes (the retry pays a fresh barrier).
        """
        if self._fail_fsyncs > 0:
            self._fail_fsyncs -= 1
            self.fsync_failures += 1
            self._scheduled_bytes = 0
            return -1
        moved = len(self._staged)
        if moved:
            self.records.extend(self._staged)
            self._staged.clear()
            self.bytes_durable += self._staged_bytes
            self._staged_bytes = 0
            self._scheduled_bytes = 0
            self._last_durable_ts = self._last_staged_ts
            self.commits += 1
            if self.obs_hook is not None:
                self.obs_hook(self)
        return moved

    def lose_volatile(self) -> None:
        """Amnesia crash: drop everything not yet committed."""
        self._staged.clear()
        self._staged_bytes = 0
        self._scheduled_bytes = 0
        # The delta chain resumes from the durable tail, as a re-opened
        # log file would.
        self._last_staged_ts = self._last_durable_ts

    # ------------------------------------------------------------------
    # Truncation + replay
    # ------------------------------------------------------------------
    def truncate(self, floor_ts: int) -> int:
        """Drop op records with ``ts <= floor_ts`` and every PT record.

        Called at checkpoint time: the checkpoint's PartitionTime snapshot
        supersedes PT records, and ops at or below the *shipped* stable
        floor were delivered remotely — nothing below the floor is ever
        needed again.  Returns the number of records dropped.
        """
        kept = [r for r in self.records
                if r[0] == OP_RECORD and r[1] > floor_ts]
        dropped = len(self.records) - len(kept)
        self.records = kept
        self.records_truncated += dropped
        return dropped

    def replay(self, partition_time: list[int], floor_ts: int) -> list[tuple]:
        """Fold durable records into ``partition_time`` (mutated in place);
        return the op entries above ``floor_ts`` as ``(ts, origin, seq, op)``
        tuples in acceptance order (per-origin monotone).

        Replay *validates* the log while folding it: op records must be
        strictly increasing in timestamp per origin (the Algorithm 3 FIFO
        contract every durable log upholds by construction), so a corrupt
        or mis-truncated log — e.g. a torn tail that removed a middle
        record rather than a suffix — fails loudly here instead of
        poisoning the :class:`repro.datastruct.runbuffer.RunBuffer`
        invariants downstream."""
        ops = []
        last_per_origin: dict[int, int] = {}
        for record in self.records:
            tag, a, b = record[0], record[1], record[2]
            if tag == OP_RECORD:
                # a=ts, b=origin
                previous = last_per_origin.get(b, -1)
                if a <= previous:
                    raise ValueError(
                        f"WAL {self.name!r}: replay found non-monotone "
                        f"records for origin {b} ({a} after {previous}) — "
                        "log corrupt"
                    )
                last_per_origin[b] = a
                if a > partition_time[b]:
                    partition_time[b] = a
                if a > floor_ts:
                    ops.append((a, b, record[3], record[4]))
            else:
                # a=partition_index, b=ts
                if b > partition_time[a]:
                    partition_time[a] = b
        return ops
