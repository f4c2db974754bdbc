"""Compare two result files written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py --aa [--seed S]      # run the command twice itself

One row per workload x end-to-end metric: both medians, the ratio B/A (base
A), the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  not worse, but the spread of either side's repetitions is
                  wider than the bound, so "unchanged" cannot be claimed;
* ``ok``          otherwise.

Sim metrics, counters and ``sim_digest`` repeat exactly for a seed, so they
are compared for equality and every difference is listed.  The exit code is
non-zero when any row is not ``ok`` or any sim value differs.

This is a regression screen.  A *gain* claim needs the paired procedure in
``perf/README.md`` ("Claiming a gain").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(samples: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile range,
    or the full range when there are too few repetitions for quartiles."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        width = max(samples) - min(samples)
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        width = q3 - q1
    return width / statistics.median(samples)


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, float, str]:
    """(ratio B/A, widest spread, verdict) of one end-to-end metric."""
    name, bound = metric["name"], metric["bound"]
    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
    ratio = vb / va
    worse_by = 1 - ratio if metric["better"] == "higher" else ratio - 1
    widest = max(spread(side["samples"].get(name, [])) for side in (a, b))
    if worse_by > bound:
        return ratio, widest, "worse"
    return ratio, widest, "unresolved" if widest > bound else "ok"


def sim_differences(a: dict, b: dict) -> list[str]:
    found = []
    if a["seed"] != b["seed"]:
        return [f"seeds differ ({a['seed']} vs {b['seed']}): sim values are "
                "not comparable"]
    if a["sim_digest"] != b["sim_digest"]:
        found.append(f"sim_digest {a['sim_digest']} != {b['sim_digest']}")
    for group in ("sim", "counters"):
        for key, value in a[group].items():
            if b[group].get(key) != value:
                found.append(f"{group}.{key} {value} != {b[group].get(key)}")
    return found


def compare(declaration: dict, doc_a: dict, doc_b: dict) -> tuple[list, list]:
    """(rows, sim differences) over the end-to-end results both files hold."""
    index = {r["workload"]: r for r in doc_b["results"] if not r["trace"]}
    rows, differences = [], []
    for a in doc_a["results"]:
        b = index.get(a["workload"])
        if a["trace"] or b is None:
            continue
        for metric in declaration["end_to_end"]:
            ratio, widest, word = verdict(metric, a, b)
            name = metric["name"]
            rows.append((a["workload"], name, a["metrics"][name]["value"],
                         b["metrics"][name]["value"], ratio, widest,
                         metric["bound"], word))
        differences += [f"{a['workload']}: {d}" for d in sim_differences(a, b)]
    return rows, differences


def render(rows: list, differences: list) -> str:
    lines = [f"{'workload':20s} {'metric':22s} {'A':>12s} {'B':>12s} "
             f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"]
    for workload, name, va, vb, ratio, widest, bound, word in rows:
        lines.append(f"{workload:20s} {name:22s} {va:12.5g} {vb:12.5g} "
                     f"{ratio:7.3f} {widest:7.3f} {bound:6.2f}  {word}")
    lines.append("sim metrics, counters and digests: " +
                 ("identical" if not differences else "DIFFER"))
    lines += [f"  {d}" for d in differences]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--aa", action="store_true",
                        help="run perf/run.py --trace 0 twice and compare")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declaration = json.load(f)
    with tempfile.TemporaryDirectory() as scratch:
        files = args.files
        if args.aa:
            files = [os.path.join(scratch, f"{side}.json") for side in "AB"]
            for path in files:
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--trace",
                     "0", "--seed", str(args.seed), "--out", path],
                    check=True, stdout=subprocess.DEVNULL)
        if len(files) != 2:
            parser.error("give A.json and B.json, or --aa")
        docs = []
        for path in files:
            with open(path) as handle:
                docs.append(json.load(handle))
    rows, differences = compare(declaration, *docs)
    print(render(rows, differences))
    return 1 if differences or any(r[-1] != "ok" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
