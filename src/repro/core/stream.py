"""One reliable ordered stream (Alg. 4 lines 1–6 and the prefix property).

The rule, once: the receiving end acknowledges the highest position it
holds contiguously; the sender resends the unacknowledged suffix when
those acknowledgements stall and prunes what every destination holds;
the receiving end drops a frame's duplicate prefix, and drops whole a
frame that follows one it never got.  The send half is
:class:`ReliableStream` (its sender, an
:class:`~repro.core.uplink.EunomiaUplink`, decides when to ship and owns
the lane and the counters); the receive half is
:meth:`ReliableStream.accepted_from`.  ``tests/test_stream.py`` holds
both halves to the rule under loss.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter

from ..datastruct.opblock import OpRunBuilder
from .config import MAX_BATCH_OPS, RESEND_TIMEOUT, RETRY_BACKOFF_CAP
from .messages import AddOpBatch

__all__ = ["GAP", "ReliableStream", "Window"]

#: :meth:`ReliableStream.accepted_from` of a frame after a lost one
GAP = -1

_INF = float("inf")
_ACK = attrgetter("ack")


class Window:
    """One destination's view: its cumulative ack (Alg. 4's ``Ack_n[f]``),
    the highest position sent to it, when the unacknowledged suffix is
    resent (inf: nothing owed) and the resends since its last progress."""

    __slots__ = ("ack", "sent", "due", "strikes")

    def __init__(self):
        self.ack = self.sent = self.strikes = 0
        self.due = _INF


class ReliableStream:
    """The send half of one origin's stream, and the receive-half filter.

    Positions (``ts``) strictly increase along ``pending``.  A frame is
    cached per ``(first ts, last ts, prev_ts, n_new == 0)``: every
    destination and every resend the window fits ships the same frame."""

    def __init__(self, origin: int, sender):
        self.origin = origin
        self.sender = sender    # its ``transmit`` and counters
        self.pending = OpRunBuilder()
        self.windows: dict[int, Window] = {}    # destination pid -> window
        self.frames: dict[tuple, AddOpBatch] = {}

    def add_destinations(self, processes) -> None:
        for proc in processes:
            self.windows.setdefault(proc.pid, Window())

    def ship(self, destinations, now: float) -> None:
        """Send each destination its window, then prune (Alg. 4 l.1–6):
        the ops above its ``sent`` mark or, once its acks have stalled past
        ``due``, above its ``ack``; at most ``MAX_BATCH_OPS`` of them."""
        ts_col = self.pending.ts
        n = len(ts_col)
        windows, frames, sender = self.windows, self.frames, self.sender
        for dest in destinations:
            w = windows[dest.pid]
            ack, sent = w.ack, w.sent
            retransmit = ack < sent and now >= w.due
            start_from = ack if retransmit else sent
            start = bisect_right(ts_col, start_from)
            if start >= n:
                continue
            end = min(n, start + MAX_BATCH_OPS)
            last_ts = ts_col[end - 1]
            # the window's ops above ``sent`` are new to this destination
            n_new = end - bisect_right(ts_col, sent, start, end)
            if retransmit:
                sender.retransmissions += 1
                w.strikes += 1
            if last_ts > sent:
                w.sent = last_ts
            # The stall timer covers the *oldest* unacked frame (re-armed
            # on every send, new frames would postpone a lost one's resend
            # indefinitely), doubling per fruitless resend up to the cap:
            # a dead destination is probed ever more gently, never dropped.
            if retransmit or w.due == _INF:
                w.due = now + min(RESEND_TIMEOUT * (1 << w.strikes),
                                  max(RESEND_TIMEOUT, RETRY_BACKOFF_CAP))
            # ``n_new == 0`` no longer changes the frame; it stays in the
            # key so ``frames_reused`` counts the cache as it always has
            key = (ts_col[start], last_ts, start_from, n_new == 0)
            frame = frames.get(key)
            if frame is None:
                frame = frames[key] = AddOpBatch(
                    self.origin, self.pending.cut(start, end),
                    prev_ts=start_from)
            else:
                sender.frames_reused += 1
            sender.transmit(dest, frame, n_new)
        self.prune()

    def on_ack(self, pid: int, ack: int, now: float) -> None:
        """A destination's cumulative ack (Alg. 4 line 5): progress resets
        the stall timer and the backoff, so only a stalled ack resends."""
        w = self.windows[pid]
        if ack > w.ack:
            w.ack = ack
            w.strikes = 0
            w.due = _INF if ack >= w.sent else now + RESEND_TIMEOUT
        self.prune()

    def prune(self) -> None:
        """Drop the prefix acknowledged by *every* destination."""
        ts_col = self.pending.ts
        if not self.windows or not ts_col:
            return
        cut = bisect_right(ts_col, min(map(_ACK, self.windows.values())))
        if cut:
            self.pending.drop_prefix(cut)
            # frames are immutable snapshots: this only bounds the cache
            self.frames.clear()

    def restart(self, now: float) -> None:
        """Probe promptly after the sender recovers: every destination
        with an outstanding window is due now, and backoff starts over."""
        for w in self.windows.values():
            w.strikes = 0
            if w.due != _INF:
                w.due = now

    @staticmethod
    def accepted_from(ops, floor, prev, key) -> int:
        """The receive half: where a frame's accepted suffix starts.

        ``ops`` ascend in ``key``; ``floor`` is the highest key held from
        this stream, ``prev`` the frame's predecessor (``floor`` where
        there is none to check).  ``prev > floor``: an earlier frame was
        lost, and this one is a :data:`GAP`, refused whole.  Otherwise the
        ops at or below ``floor`` are duplicates of a resend.
        """
        if prev > floor:
            return GAP
        return bisect_right(ops, floor, key=key)
