#!/usr/bin/env python3
"""The kept benchmark trajectory as one table per workload.

Every PR since PR 12 commits a ``benchmarks/BENCH_pr<N>.json``: what
``perf/run.py`` measured on the parent and on the change.  Each file is
1–2 k lines and nothing read two of them together; this prints, per
``BENCHMARK.json`` workload, one row per PR with the change's six
end-to-end metrics, ``events_per_op`` and the ``sim_digest`` — so "when did
this number move, and did the simulation move with it" is one glance:

    python scripts/perf_report.py

The last column names which of ``events_per_op`` / ``sim_digest`` /
``vis_p50_ms`` / ``vis_p99_ms`` differs from the previous PR's row (``-``
when none): all four repeat exactly for a seed, so a difference is a change
to the simulation — or, for the event count alone, to its bookkeeping — and
not noise.  The two latencies are there because the digest says *that* the
simulation moved and the headline median and tail say whether it mattered.

Host metrics (``ops_per_host_s``, ``peak_rss_mb``, ``setup_s``) are the
medians each PR recorded on the machine it ran on; compare them across
rows only as far as perf/README.md says calibrated host seconds carry.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.report import format_table  # noqa: E402


#: the columns that repeat exactly for a seed, and so are diffed
EXACT = ("vis_p50_ms", "vis_p99_ms", "events_per_op", "sim_digest")


def trajectory() -> list[tuple[int, dict]]:
    """``(PR number, parsed file)`` for every kept entry, oldest first."""
    entries = []
    for path in (REPO / "benchmarks").glob("BENCH_pr*.json"):
        number = int(re.fullmatch(r"BENCH_pr(\d+)", path.stem).group(1))
        entries.append((number, json.loads(path.read_text())))
    return sorted(entries, key=lambda entry: entry[0])


def metric(run: dict, name: str) -> float:
    """The change's value: host metrics carry parent/change medians, sim
    metrics are one number (they repeat exactly for a seed)."""
    if name in run["host"]:
        return run["host"][name]["change"]
    return run["sim"][name]


def events_per_op(run: dict) -> float:
    """perf/run.py's ``sim.loop.events_per_op``, from the counters every
    entry records (the rig has no clients: its ops are the stabilized ones)."""
    counters = run["counters"]
    ops = counters["client_ops_done"] or counters["ops_stabilized"]
    return counters["processed_events"] / ops


def main() -> int:
    declaration = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in declaration["end_to_end"]]
    entries = trajectory()
    if not entries:
        print("perf_report: no benchmarks/BENCH_pr*.json found",
              file=sys.stderr)
        return 1
    for workload in (w["name"] for w in declaration["workloads"]):
        rows, previous = [], None
        for number, entry in entries:
            run = entry["workloads"].get(workload)
            if run is None:
                continue
            row = {name: metric(run, name) for name in metrics}
            row.update(events_per_op=events_per_op(run),
                       sim_digest=run["sim_digest"])
            moved = [name for name in EXACT
                     if previous and row[name] != previous[name]]
            rows.append([f"PR {number}", *row.values(),
                         " + ".join(moved) or "-"])
            previous = row
        print(f"== {workload} ==")
        print(format_table(["pr", *metrics, "events_per_op", "sim_digest",
                            "moved vs previous"], rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
