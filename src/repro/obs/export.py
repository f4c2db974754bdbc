"""Export surfaces: Chrome-trace-event JSON and the SLO report table.

``chrome_trace`` flattens sampled spans, gauge series, fault-injection
windows, and MTTR measurements into the Chrome Trace Event format (the
``{"traceEvents": [...]}`` JSON object), loadable in Perfetto / DevTools:

* each consecutive pair of span events becomes an ``"X"`` complete slice
  named after the *destination* stage (``dur`` = stage-to-stage latency),
  laid out with ``pid`` = serving DC and ``tid`` = a per-span lane;
* every ``gauge:*:dc{m}`` point series becomes ``"C"`` counter events on
  the owning DC's track;
* fault firings become global ``"i"`` instants on a dedicated fault track,
  and MTTR measurements become slices from fault-stop to first recovered
  op, so a chaos run's damage windows sit on the same timeline as the
  spans they disrupt.

``render_slo_report`` prints the per-DC × op-kind p50/p99/p999 table,
visibility latency per DC pair, stabilization-lag percentiles and the
receiver's backlog and in-flight releases — every cell an exact statistic
of the hub series its row names (``latency_ms:{kind}:dc{m}``,
``vis_total_ms`` / ``vis_extra_ms:{k}->{m}``, ``gauge:*:dc{m}``), the same
numbers the figures and ``perf/`` compute from them.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from ..metrics.summary import mean, percentile

__all__ = ["chrome_trace", "write_chrome_trace", "render_slo_report"]

#: synthetic pid for the fault-injection track in exported traces
FAULT_TRACK_PID = 9999

_GAUGE_RE = re.compile(r"^gauge:(?P<name>.+):dc(?P<dc>\d+)$")


def chrome_trace(tracer=None, hub=None, fault_log=None,
                 mttr=None, dc_ids=None) -> dict:
    """Build a Chrome-trace-event dict from any subset of sources."""
    events = []
    pids = set(dc_ids or ())

    # --- span slices ---------------------------------------------------
    if tracer is not None:
        for lane, span in enumerate(tracer.iter_spans()):
            timeline = span.sorted_events()
            for (_, t0, _), (stage, t1, site) in zip(timeline, timeline[1:]):
                pids.add(site)
                events.append({
                    "ph": "X",
                    "name": stage,
                    "cat": "span",
                    "ts": t0 * 1e6,
                    "dur": max(0.0, (t1 - t0) * 1e6),
                    "pid": site,
                    "tid": lane,
                    "args": {"uid": list(span.uid), "key": repr(span.key)},
                })

    # --- gauge counters ------------------------------------------------
    if hub is not None:
        for name in sorted(hub.points):
            match = _GAUGE_RE.match(name)
            if match is None:
                continue
            gauge, pid = match.group("name"), int(match.group("dc"))
            pids.add(pid)
            for t, value in hub.point_series(name):
                events.append({
                    "ph": "C",
                    "name": gauge,
                    "cat": "gauge",
                    "ts": t * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {gauge: value},
                })

    # --- fault windows + MTTR ------------------------------------------
    if fault_log:
        for t, label in fault_log:
            events.append({
                "ph": "i",
                "name": label,
                "cat": "fault",
                "s": "g",
                "ts": t * 1e6,
                "pid": FAULT_TRACK_PID,
                "tid": 0,
            })
    if mttr:
        for entry in mttr:
            if entry.get("mttr_s") is None:
                continue
            events.append({
                "ph": "X",
                "name": f"recover:{entry['fault']}",
                "cat": "mttr",
                "ts": entry["stop"] * 1e6,
                "dur": entry["mttr_s"] * 1e6,
                "pid": FAULT_TRACK_PID,
                "tid": 1,
            })

    # --- process metadata ----------------------------------------------
    meta = []
    for pid in sorted(pids):
        meta.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"dc{pid}"},
        })
    if fault_log or mttr:
        meta.append({
            "ph": "M", "name": "process_name", "pid": FAULT_TRACK_PID,
            "tid": 0, "args": {"name": "faults"},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracer=None, hub=None, fault_log=None,
                       mttr=None, dc_ids=None) -> dict:
    """Write :func:`chrome_trace` output to ``path``; return the dict."""
    trace = chrome_trace(tracer=tracer, hub=hub,
                         fault_log=fault_log, mttr=mttr, dc_ids=dc_ids)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


# ----------------------------------------------------------------------
# SLO report
# ----------------------------------------------------------------------
_QUANTILES = (50.0, 99.0, 99.9)


def _series(hub, pattern: str) -> list:
    """``(key, values)`` of every non-empty point series whose name matches
    ``pattern`` in full, ordered by key: the pattern's groups, digit groups
    as ints (so dc10 sorts after dc2)."""
    rows = []
    for name in hub.points:
        match = re.fullmatch(pattern, name)
        if match is None:
            continue
        values = [v for _, v in hub.point_series(name)]
        if values:
            key = tuple(int(g) if g.isdigit() else g for g in match.groups())
            rows.append((key, values))
    return sorted(rows, key=lambda row: row[0])


def _cells(values) -> str:
    """Count, then p50 / p99 / p99.9, as the report prints them."""
    cells = "  ".join(f"{percentile(values, q):>9.3f}" for q in _QUANTILES)
    return f"{len(values):>8d}  {cells}"


def render_slo_report(hub, tracer=None) -> str:
    """Render the per-DC × op-kind SLO table as a plain-text report.

    Every table reads the hub's point series; sections with no data are
    omitted.  ``tracer`` adds the sampled-span summary line.
    """
    lines = []
    header = f"{'count':>8s}  " + "  ".join(
        f"{'p' + str(q).rstrip('0').rstrip('.'):>9s}" for q in _QUANTILES)

    ops = _series(hub, r"latency_ms:(\w+):dc(\d+)")
    if ops:
        lines.append("operation latency (ms) per DC x op kind")
        lines.append(f"  {'dc':>3s} {'kind':<8s} {header}")
        for (kind, dc), values in sorted(ops, key=lambda r: r[0][::-1]):
            lines.append(f"  {dc:>3d} {kind:<8s} {_cells(values)}")
        lines.append("")

    vis = _series(hub, r"vis_total_ms:(\d+)->(\d+)")
    if vis:
        lines.append("remote visibility latency (ms) per origin->dest")
        lines.append(f"  {'path':>8s} {header}   "
                     f"{'extra p99':>9s}")
        for (k, m), values in vis:
            extra = [v for _, v in hub.point_series(
                f"vis_extra_ms:{k}->{m}")]
            extra_p99 = percentile(extra, 99.0) if extra else 0.0
            lines.append(f"  dc{k}->dc{m:<2d} {_cells(values)}   "
                         f"{extra_p99:>9.3f}")
        lines.append("")

    stab_lag = _series(hub, r"gauge:stab_lag_ms:dc(\d+)")
    if stab_lag:
        lines.append("stabilization lag (ms), now - StableTime per DC")
        lines.append(f"  {'dc':>3s} {header}")
        for (dc,), values in stab_lag:
            lines.append(f"  {dc:>3d} {_cells(values)}")
        lines.append("")

    inflight = {dc: values for (dc,), values
                in _series(hub, r"gauge:receiver_inflight:dc(\d+)")}
    if inflight:
        # mean in-flight / tracked origins = utilisation of the Alg. 5
        # stop-and-wait chains; the backlog is what queues behind them
        lines.append("receiver (Alg. 5) per DC: ops queued, origins with "
                     "a release in flight (mean, max)")
        lines.append(f"  {'dc':>3s} {'count':>8s}  {'backlog':>9s}  "
                     f"{'max':>9s}  {'in-flight':>9s}  {'max':>9s}")
        for (dc,), backlog in _series(hub,
                                      r"gauge:receiver_backlog:dc(\d+)"):
            out = inflight[dc]
            lines.append(f"  {dc:>3d} {len(backlog):>8d}  "
                         f"{mean(backlog):>9.3f}  {max(backlog):>9.0f}  "
                         f"{mean(out):>9.3f}  {max(out):>9.0f}")
        lines.append("")

    if tracer is not None and len(tracer):
        lines.append(f"sampled spans: {len(tracer)} "
                     f"(1-in-{tracer.sample_every}, {tracer.dropped} dropped)")

    if not lines:
        lines.append("no SLO data recorded")
    return "\n".join(lines).rstrip() + "\n"
