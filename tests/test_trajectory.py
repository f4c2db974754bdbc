"""The benchmark trajectory: ``benchmarks/TRAJECTORY.json`` and its capture.

Each PR appends one row to ``TRAJECTORY.json`` — per ``BENCHMARK.json``
workload, the change's six end-to-end values, ``events_per_op`` and
``sim_digest`` from ``perf/run.py`` — and replaces the one full
parent-vs-change capture, ``benchmarks/BENCH_pr<N>.json``, whose per-workload
``change`` object is that row's entry verbatim.  Older captures live in git
history only.  ``scripts/perf_report.py`` prints the file.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DECLARATION = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
COLUMNS = {m["name"] for m in DECLARATION["end_to_end"]} | {
    "events_per_op", "sim_digest"}
ROW_KEYS = {"pr", "title", "kind", "claim", "pairs", "declared_differences",
            "workloads"}


@pytest.fixture(scope="module")
def rows():
    trajectory = REPO / "benchmarks" / "TRAJECTORY.json"
    return json.loads(trajectory.read_text())["rows"]


def test_every_row_carries_every_workload_column(rows):
    for row in rows:
        assert set(row) == ROW_KEYS, row["pr"]
        assert list(row["workloads"]) == WORKLOADS, row["pr"]
        for workload, values in row["workloads"].items():
            assert set(values) == COLUMNS, (row["pr"], workload)
            assert isinstance(values["sim_digest"], str)


def test_pr_numbers_strictly_increase(rows):
    numbers = [row["pr"] for row in rows]
    assert numbers == sorted(set(numbers))


def test_the_one_full_capture_is_the_newest_row(rows):
    captures = list((REPO / "benchmarks").glob("BENCH_pr*.json"))
    assert len(captures) == 1, captures
    number = int(re.fullmatch(r"BENCH_pr(\d+)", captures[0].stem).group(1))
    capture = json.loads(captures[0].read_text())
    newest = rows[-1]
    assert capture["pr"] == number == newest["pr"]
    for workload in WORKLOADS:
        assert (capture["workloads"][workload]["change"]
                == newest["workloads"][workload]), workload


def test_perf_report_prints_every_row(rows):
    done = subprocess.run([sys.executable, "scripts/perf_report.py"],
                          cwd=REPO, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    for row in rows:
        assert done.stdout.count(f"\nPR {row['pr']} ") == len(WORKLOADS)
