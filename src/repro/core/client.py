"""Protocol clients (Algorithm 1, vector form of §4).

A :class:`SessionClient` is a closed-loop Basho-Bench-style session: issue
an operation, wait for the reply, merge the returned timestamp into the
session clock, repeat.  The session clock is a vector with one entry per
datacenter; with ``n_entries=1`` the same class is the scalar client of
Algorithm 1 (and of GentleRain), and with ``n_entries=0`` it degenerates to
the metadata-free client of an eventually consistent store — so every
protocol in this repository shares one client implementation, which keeps
throughput comparisons apples-to-apples (as in the paper, where all systems
share the Riak codebase).

The client's own CPU cost per operation (`client_op_us`) bounds the rate a
single session can generate, exactly like a Basho Bench worker thread.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..clocks.vector import vc_merge, vc_zero
from ..kvstore.ring import ConsistentHashRing
from ..sim.env import Environment
from ..sim.process import Process
from .messages import ClientRead, ClientReadReply, ClientUpdate, ClientUpdateReply

__all__ = ["SessionClient"]


class SessionClient(Process):
    """Closed-loop client session with a causal session clock."""

    def __init__(self, env: Environment, name: str, dc_id: int,
                 n_entries: int, partitions: Sequence[Process],
                 ring: ConsistentHashRing, workload,
                 think_time: float = 0.0,
                 op_mark: str = "ops",
                 history=None,
                 retry_timeout: Optional[float] = None):
        super().__init__(env, name, site=dc_id)
        #: optional repro.checker.SessionHistory for consistency checking
        self.history = history
        self.dc_id = dc_id
        self.n_entries = n_entries
        #: routing table, one serving partition process per ring slot —
        #: under partial geo-replication, non-resident slots point at the
        #: nearest resident DC's partition (read/write forwarding)
        self.partitions = list(partitions)
        self.ring = ring
        self.workload = workload
        self.think_time = think_time
        self.op_mark = op_mark
        # series names, formatted once instead of per completed op
        self._dc_mark = f"{op_mark}:dc{dc_id}"
        self._latency_labels: dict[str, str] = {}
        self.op_cost = env.calibration.cost("client_op")
        self.vclock = vc_zero(n_entries)
        self.ops_done = 0
        #: re-issue timeout for a lost in-flight request.  None (default)
        #: preserves the historical closed loop exactly — no timers are
        #: armed at all — which matters because a crashed or partitioned
        #: target drops the request at send time and would otherwise
        #: stall this session forever.
        self.retry_timeout = retry_timeout
        self.retries = 0
        self._rng = env.rng.stream(f"client/{name}")
        self._started = False
        self._stopped = False
        self._request_id = 0
        self._issued_at = 0.0
        self._kind = ""
        self._served_by: Optional[int] = None

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self._issue()

    def stop(self) -> None:
        """Finish the in-flight op, then stop issuing (for quiescence)."""
        self._stopped = True

    def recover(self) -> None:
        """Resume the closed loop after a crash-stop.

        The crash retired any pending think-time/retry callback via the
        epoch guard and dropped the in-flight request, so simply issue a
        fresh operation (stale replies are discarded by request id)."""
        super().recover()
        if self._started and not self._stopped:
            self._issue()

    def _issue(self) -> None:
        if self._stopped or self.crashed:
            return
        kind, key, value_bytes = self.workload.next(self._rng)
        self._kind = kind
        self._key = key
        self._value_bytes = value_bytes
        self._send_attempt()

    def _send_attempt(self) -> None:
        target = self.partitions[self.ring.partition_for(self._key)]
        self._request_id += 1
        self._issued_at = self.now
        self._served_by = target.site
        if self._kind == "read":
            self._value = None
            self.send(target,
                      ClientRead(self._key, request_id=self._request_id))
        else:
            self._value = f"{self.name}#{self._request_id}"
            self.send(target, ClientUpdate(
                self._key, self._value, self.vclock,
                value_bytes=self._value_bytes, request_id=self._request_id,
                issued_at=self._issued_at,
            ))
        if self.retry_timeout is not None:
            self.after(self.retry_timeout, self._maybe_retry,
                       self._request_id)

    def _maybe_retry(self, request_id: int) -> None:
        """Re-issue a request whose reply never came (dropped by a crash
        or partition).  The retry is a *fresh* attempt — new request id,
        and for updates a new unique value — so a slow original that does
        land is just another write, never a metadata-confusing duplicate
        of the logged one."""
        if self._stopped or self.crashed or request_id != self._request_id:
            return
        self.retries += 1
        self._send_attempt()

    # ------------------------------------------------------------------
    # Replies (Alg. 1 lines 4 and 9)
    # ------------------------------------------------------------------
    def on_client_read_reply(self, msg: ClientReadReply, src: Process) -> None:
        if msg.request_id != self._request_id:
            return  # stale reply from a previous (abandoned) request
        self._log_op(msg.vts, value=msg.value)
        self.vclock = vc_merge(self.vclock, msg.vts)
        self._complete()

    def on_client_update_reply(self, msg: ClientUpdateReply, src: Process) -> None:
        if msg.request_id != self._request_id:
            return
        self._log_op(msg.vts, value=self._value)
        # The update's vector is strictly greater than the session clock
        # (§4), so assignment and merge coincide; merge is defensive.
        self.vclock = vc_merge(self.vclock, msg.vts)
        self._complete()

    def _log_op(self, vts, value) -> None:
        if self.history is None:
            return
        from ..checker.history import OpRecord

        self.history.record(OpRecord(
            time=self.now, client=self.name, kind=self._kind,
            key=self._key, value=value, vts=tuple(vts),
            session_vts=tuple(self.vclock),
            served_by=self._served_by,
        ))

    def _complete(self) -> None:
        now = self.now
        latency_ms = (now - self._issued_at) * 1e3
        self.ops_done += 1
        kind = self._kind
        label = self._latency_labels.get(kind)
        if label is None:
            label = self._latency_labels[kind] = (
                f"latency_ms:{kind}:dc{self.dc_id}")
        self.metrics.point(label, now, latency_ms)
        self.metrics.mark(self.op_mark, now)
        self.metrics.mark(self._dc_mark, now)
        if self.think_time > 0.0:
            self.after(self.think_time, self._enqueue, self._issue,
                       self.op_cost)
        else:
            self._enqueue(self._issue, self.op_cost)
