"""Disk latency model for durable state (write-ahead logs, checkpoints).

The simulator charges CPU through per-process service lanes
(:mod:`repro.sim.process`); durable writes need the same treatment for the
*storage* device, or an fsync would be free and durability would look like a
no-cost switch.  :class:`DiskModel` is the shared cost model: an fsync pays a
fixed device latency (the flush barrier) plus a sequential-bandwidth term for
the bytes written since the last flush — the classic group-commit shape,
where many staged records share one barrier.  Recovery replay pays a small
per-record cost (decode + re-apply), which is what makes long un-truncated
logs *visibly* expensive to restart from and checkpoint truncation worth its
write cost.

Processes charge these costs on a dedicated ``"disk"`` lane, so log flushes
contend with each other (one device) but not with protocol CPU — matching a
real deployment where the WAL lives on its own NVMe queue and only the
*acknowledgement* of a batch waits for the fsync, not the ingest path.
"""

from __future__ import annotations

from ..calibration import Calibration

__all__ = ["DiskModel"]


class DiskModel:
    """Fsync/replay cost model, in seconds (one device per process), built
    from a :class:`~repro.calibration.Calibration`'s durability overheads
    (``wal_fsync``, ``wal_byte``, ``wal_replay_record``)."""

    __slots__ = ("fsync_latency_s", "byte_time_s", "replay_record_s",
                 "_slowdown")

    def __init__(self, cal: Calibration):
        self.fsync_latency_s = cal.overhead("wal_fsync")
        self.byte_time_s = cal.overhead("wal_byte")
        self.replay_record_s = cal.overhead("wal_replay_record")
        self._slowdown = 1.0

    def degrade(self, factor: float) -> None:
        """Enter (or leave, with ``factor=1.0``) gray-failure mode.

        Every subsequent fsync costs ``factor``× its normal time: the device
        is slow-not-dead, so WAL group commits stall — and with them every
        ack-after-fsync acknowledgement — without any crash a failure
        detector could see.  Idempotent; the factor replaces (not stacks
        with) any previous degradation.
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1.0")
        self._slowdown = factor

    def fsync_cost(self, n_bytes: int) -> float:
        """One flush barrier covering ``n_bytes`` of staged log records."""
        cost = self.fsync_latency_s + n_bytes * self.byte_time_s
        if self._slowdown != 1.0:
            cost *= self._slowdown
        return cost

    def replay_cost(self, n_records: int) -> float:
        """Sequential re-read + re-apply of ``n_records`` log records."""
        return n_records * self.replay_record_s
