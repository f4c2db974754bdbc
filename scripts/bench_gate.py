#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a fresh ``pytest --benchmark-json`` run against the committed
baseline (``benchmarks/BENCH_baseline.json``) and fails when any benchmark's
median slows down by more than the threshold (default 25%).  Run from CI
after the smoke benchmarks:

    pytest benchmarks/bench_sim_core.py benchmarks/bench_trees.py \
        --benchmark-json=bench-results.json
    python scripts/bench_gate.py --fresh bench-results.json --normalize

``--normalize`` judges each benchmark relative to the run's overall
machine-speed factor so heterogeneous CI runners do not trip the gate;
omit it when comparing runs from the same machine.  Only benchmarks
matching ``--gate`` (default: the sim-core hot paths and the op-buffer
ingestion path) can fail the run at the tight threshold; ``--gate-wide``
benchmarks (default: the end-to-end geo and full-grid figure runs, whose
wall-clock variance was measured before gating them)
fail only past the looser ``--wide-threshold``; everything else (e.g.
the raw tree micro-benches) is compared and reported as informational.

Benchmarks present in only one of the two files are reported but do not
fail the gate (new benchmarks land before their baseline; retired ones
linger in the baseline until it is refreshed).  To refresh after an
intentional change:

    python scripts/bench_gate.py --fresh bench-results.json --write-baseline

Lingering has a limit, though: a baseline entry whose benchmark no longer
*exists* (renamed, retired, or its file deleted) is dead weight that hides
coverage loss — the gate would silently stop judging a path that used to be
gated.  ``--check-stale`` collects the benchmark suite (``pytest
--collect-only``) and fails if the baseline carries entries no collected
benchmark can produce; ``--prune`` rewrites the baseline with those
orphans removed instead of failing.  Neither needs ``--fresh``:

    python scripts/bench_gate.py --check-stale
    python scripts/bench_gate.py --prune
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"


def load_medians(path: Path) -> dict[str, float]:
    """Map benchmark fullname -> median seconds from a --benchmark-json file."""
    with open(path) as fh:
        data = json.load(fh)
    medians = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench["name"]
        medians[name] = bench["stats"]["median"]
    return medians


def speed_factor(baseline: dict[str, float], fresh: dict[str, float]) -> float:
    """Median fresh/baseline ratio over shared benchmarks.

    Approximates how much faster/slower this machine is than the one that
    recorded the baseline.  Judging each benchmark *relative* to this factor
    makes the gate robust across heterogeneous CI runners: a single hot path
    regressing stands out against its unregressed peers, while a uniformly
    slower runner does not fail every benchmark at once.  (The blind spot —
    every gated benchmark regressing by the same factor — is the price of
    not pinning CI to one hardware generation.)
    """
    ratios = sorted(fresh[name] / baseline[name]
                    for name in set(baseline) & set(fresh)
                    if baseline[name] > 0)
    if not ratios:
        return 1.0
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2


def compare(baseline: dict[str, float], fresh: dict[str, float],
            threshold: float, normalize: bool,
            gate_pattern: str, wide_pattern: str = "",
            wide_threshold: float = 0.5) -> tuple[list[str], list[str]]:
    """Return (failures, report_lines).

    Only benchmarks whose fullname matches ``gate_pattern`` (regex search;
    empty string matches all) can *fail* the gate at ``threshold``;
    ``wide_pattern`` names benchmarks gated at the looser
    ``wide_threshold`` — end-to-end wall-clock suites whose run-to-run
    variance (measured >20% peak-to-peak on one otherwise-idle machine)
    would trip the tight gate on noise alone.
    Everything else is compared and reported as informational.  The speed
    factor is still computed over every shared benchmark — more samples,
    steadier estimate.
    """
    factor = speed_factor(baseline, fresh) if normalize else 1.0
    gate_re = re.compile(gate_pattern) if gate_pattern else None
    wide_re = re.compile(wide_pattern) if wide_pattern else None
    failures = []
    lines = []
    if normalize:
        lines.append(f"  machine speed factor: {factor:.3f}x "
                     "(medians judged relative to it)")
    for name in sorted(set(baseline) | set(fresh)):
        base = baseline.get(name)
        new = fresh.get(name)
        if base is None:
            lines.append(f"  NEW       {name}: {new * 1e3:.3f} ms "
                         "(no baseline yet)")
            continue
        if new is None:
            lines.append(f"  MISSING   {name}: in baseline but not in the "
                         "fresh run")
            continue
        if gate_re is None or gate_re.search(name):
            gate_threshold = threshold
        elif wide_re is not None and wide_re.search(name):
            gate_threshold = wide_threshold
        else:
            gate_threshold = None   # informational only
        ratio = (new / factor) / base if base > 0 else float("inf")
        delta = (ratio - 1.0) * 100
        verdict = "ok"
        if ratio > 1.0 + threshold:
            if gate_threshold is not None and ratio > 1.0 + gate_threshold:
                verdict = "REGRESSED"
                failures.append(
                    f"{name}: median {base * 1e3:.3f} ms -> "
                    f"{new * 1e3:.3f} ms ({delta:+.1f}% relative, "
                    f"threshold +{gate_threshold * 100:.0f}%)")
            else:
                verdict = "info-slow"   # outside its gate: report, don't fail
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        lines.append(f"  {verdict:<9} {name}: {base * 1e3:.3f} ms -> "
                     f"{new * 1e3:.3f} ms ({delta:+.1f}%)")
    return failures, lines


def collect_bench_ids(bench_dir: Path) -> set[str]:
    """Node ids of every currently collectable benchmark (pytest collection).

    Collection — not a run: ``--collect-only -q`` prints one node id per
    line in exactly the ``fullname`` format the ``--benchmark-json`` stats
    carry (``benchmarks/bench_x.py::bench_fn[param]``), including
    parametrized variants a static scan of the files could not know about.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(bench_dir), "--collect-only",
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    if proc.returncode not in (0, 5):   # 5 = no tests collected
        raise RuntimeError(
            f"benchmark collection failed (exit {proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    ids = set()
    for line in proc.stdout.splitlines():
        line = line.strip()
        if "::" in line and not line.startswith("="):
            ids.add(line)
    return ids


def stale_entries(baseline_path: Path, bench_dir: Path) -> list[str]:
    """Baseline fullnames no collected benchmark produces (sorted)."""
    baseline = load_medians(baseline_path)
    collected = collect_bench_ids(bench_dir)
    return sorted(name for name in baseline if name not in collected)


def prune_baseline(baseline_path: Path, orphans: list[str]) -> None:
    """Rewrite the baseline file with the orphaned entries removed, in
    pytest-benchmark's own layout so the diff shows only the removals."""
    with open(baseline_path) as fh:
        data = json.load(fh)
    dead = set(orphans)
    data["benchmarks"] = [
        bench for bench in data.get("benchmarks", [])
        if (bench.get("fullname") or bench["name"]) not in dead
    ]
    baseline_path.write_text(json.dumps(data, indent=4))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON "
                             "(default: benchmarks/BENCH_baseline.json)")
    parser.add_argument("--fresh", type=Path,
                        help="fresh --benchmark-json output to check "
                             "(required except with --check-stale/--prune)")
    parser.add_argument("--bench-dir", type=Path,
                        default=REPO_ROOT / "benchmarks",
                        help="benchmark suite to collect for the staleness "
                             "check (default: benchmarks/)")
    parser.add_argument("--check-stale", action="store_true",
                        help="fail if the baseline carries entries no "
                             "collected benchmark produces (renamed or "
                             "retired benches whose baseline rows would "
                             "otherwise hide coverage loss forever)")
    parser.add_argument("--prune", action="store_true",
                        help="like --check-stale, but rewrite the baseline "
                             "with the orphaned entries removed and exit 0")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed median slowdown as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--normalize", action="store_true",
                        help="divide every fresh median by the machine "
                             "speed factor (median fresh/baseline ratio) "
                             "before comparing — use on CI, where runner "
                             "hardware differs from the baseline machine")
    parser.add_argument("--gate",
                        default="bench_sim_core|bench_opbuffer_ingestion",
                        help="regex: only matching benchmarks can fail the "
                             "gate; the rest are informational (default: "
                             "the sim-core hot paths every experiment rides "
                             "on plus the op-buffer ingestion path the "
                             "stabilizers ride on; pass '' to gate all)")
    parser.add_argument("--gate-wide",
                        default="bench_geo_small_e2e"
                                "|bench_geo_update_heavy_e2e"
                                "|bench_fig1_motivation_tradeoff_full"
                                "|bench_fig5_geo_throughput_full"
                                "|bench_fig7_straggler_full"
                                "|bench_placement_sweep"
                                "|bench_obs_overhead",
                        help="regex: benchmarks gated at the wide "
                             "threshold — the end-to-end suites (small geo "
                             "e2e run: "
                             "±1.7%% stdev / 4.8%% peak-to-peak; placement "
                             "sweep grid: ±5.4%% stdev / 14%% peak-to-peak "
                             "on an idle machine, but CI runners are far "
                             "noisier; all measured before gating, per the "
                             "ROADMAP; the update-heavy FT run rides the "
                             "same rig) plus the full-grid Figure 1/5/7 "
                             "runs the batched sim core and dataplane made "
                             "affordable in CI (single-round wall clock, "
                             "so only the wide threshold is meaningful) "
                             "plus the paired "
                             "observability-overhead run, whose real check "
                             "— the enabled/disabled wall ratio — is "
                             "asserted in-bench where machine noise "
                             "cancels; pass '' to disable")
    parser.add_argument("--wide-threshold", type=float, default=0.5,
                        help="max allowed median slowdown for --gate-wide "
                             "benchmarks (default 0.5 = 50%%, sized to the "
                             "measured >20%% peak-to-peak runner variance)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="replace the baseline with the fresh run and "
                             "exit 0 (use after intentional perf changes)")
    args = parser.parse_args(argv)

    if args.check_stale or args.prune:
        if not args.baseline.exists():
            print(f"bench gate: no baseline at {args.baseline}",
                  file=sys.stderr)
            return 2
        orphans = stale_entries(args.baseline, args.bench_dir)
        if not orphans:
            print("bench gate: baseline is fresh — every entry matches a "
                  "collected benchmark")
            return 0
        if args.prune:
            prune_baseline(args.baseline, orphans)
            print(f"bench gate: pruned {len(orphans)} stale baseline "
                  "entr(y/ies):")
            for name in orphans:
                print(f"  {name}")
            return 0
        print(f"bench gate: STALE — {len(orphans)} baseline entr(y/ies) "
              "match no collected benchmark:", file=sys.stderr)
        for name in orphans:
            print(f"  {name}", file=sys.stderr)
        print("  (rerun with --prune to drop them, or restore the "
              "benchmarks)", file=sys.stderr)
        return 1

    if args.fresh is None:
        parser.error("--fresh is required unless --check-stale/--prune")
    if not args.fresh.exists():
        print(f"bench gate: fresh results {args.fresh} not found",
              file=sys.stderr)
        return 2

    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_bytes(args.fresh.read_bytes())
        print(f"bench gate: baseline refreshed at {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"bench gate: no baseline at {args.baseline}; "
              "run with --write-baseline to create one", file=sys.stderr)
        return 2

    baseline = load_medians(args.baseline)
    fresh = load_medians(args.fresh)
    failures, lines = compare(baseline, fresh, args.threshold,
                              args.normalize, args.gate,
                              wide_pattern=args.gate_wide,
                              wide_threshold=args.wide_threshold)

    print(f"bench gate: {len(fresh)} fresh vs {len(baseline)} baseline "
          f"benchmarks (threshold +{args.threshold * 100:.0f}% median)")
    for line in lines:
        print(line)
    if failures:
        print(f"\nbench gate: FAILED — {len(failures)} regression(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
