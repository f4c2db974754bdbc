#!/usr/bin/env python3
"""The kept benchmark trajectory as one table per workload.

``benchmarks/TRAJECTORY.json`` holds one row per PR since PR 12: what
``perf/run.py`` measured on the change, per ``BENCHMARK.json`` workload.
This prints one table per workload with one row per PR: the six end-to-end
metrics, ``events_per_op`` and the ``sim_digest``.  So "when did this number
move, and did the simulation move with it" is one glance:

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
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.report import format_table  # noqa: E402


#: the columns that repeat exactly for a seed, and so are diffed
EXACT = ("vis_p50_ms", "vis_p99_ms", "events_per_op", "sim_digest")


def main() -> int:
    declaration = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in declaration["end_to_end"]]
    columns = [*metrics, "events_per_op", "sim_digest"]
    trajectory = json.loads(
        (REPO / "benchmarks" / "TRAJECTORY.json").read_text())
    for workload in (w["name"] for w in declaration["workloads"]):
        rows, previous = [], None
        for entry in trajectory["rows"]:
            row = entry["workloads"][workload]
            moved = [name for name in EXACT
                     if previous and row[name] != previous[name]]
            rows.append([f"PR {entry['pr']}", *(row[c] for c in columns),
                         " + ".join(moved) or "-"])
            previous = row
        print(f"== {workload} ==")
        print(format_table(["pr", *columns, "moved vs previous"], rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
