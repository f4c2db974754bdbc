"""The repo benchmark command: ``python3 perf/run.py`` (see perf/README.md).

    python3 perf/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace 0|1] [--quick] [--out F] [--trace-out DIR]

Without ``--workload`` every workload runs (workload *i* on ``seed + i``);
without ``--trace`` both the end-to-end run (``--trace 0``) and the traced
per-layer run (``--trace 1``) are made.  Every metric is printed by name with
its unit and a ``sim`` / ``host`` label.  With one workload and one trace
mode the last line of standard output is the result object of the benchmark
contract.  The exit code is non-zero when a check fails.

Each repetition is a fresh single-threaded child (``perf/rep.py``), one at a
time.  Nothing is written unless ``--out`` / ``--trace-out`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perf.trace import LAYERS  # noqa: E402
from perf.workloads import (  # noqa: E402
    REPETITIONS, STAGE_CHAIN, WORKLOADS, Workload, sim_seconds_for)

REP = os.path.join(ROOT, "perf", "rep.py")
#: extra build-and-start-only children per end-to-end run (``setup_s`` is the
#: median over these and the timed repetitions)
SETUP_ONLY = 4
#: the checked repetition simulates this share of a timed repetition
CHECKED_SHARE = 0.4
#: ``--quick``: simulated seconds of the single repetition
QUICK_SIM_SECONDS = 2.0
#: what a sim metric, counter or digest must do between two runs of one seed
SIM_KEYS = ("sim", "counters", "digest")


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def is_host(name: str) -> bool:
    """Host metrics are wall-clock (noisy); all others repeat for a seed."""
    return (name in ("ops_per_host_s", "peak_rss_mb", "setup_s",
                     "sim.loop.host_us_per_event", "sim.loop.wheel_over_heap",
                     "trace.overhead_ratio")
            or name.endswith(".host_self_share"))


def repetition(workload: Workload, seed: int, sim_seconds: float, mode: str,
               **extra) -> dict:
    spec = dict(workload=workload.name, seed=seed, sim_seconds=sim_seconds,
                mode=mode, **extra)
    child = subprocess.run([sys.executable, REP, json.dumps(spec)], cwd=ROOT,
                           capture_output=True, text=True, timeout=170)
    if child.returncode != 0:
        raise RuntimeError(f"{mode} repetition of {workload.name} failed:\n"
                           f"{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def differences(a: dict, b: dict, what: str) -> list[str]:
    """Why two repetitions of one seed are not the same simulation."""
    found = []
    for key in SIM_KEYS:
        if a[key] != b[key]:
            names = ([k for k in a[key] if a[key][k] != b[key].get(k)]
                     if isinstance(a[key], dict) else [])
            found.append(f"{what}: {key} differs {names}")
    return found


def end_to_end(workload: Workload, seed: int, sim_seconds: float,
               repetitions: int, setup_only: int) -> dict:
    setups = [repetition(workload, seed, 0.0, "setup")["setup_s"]
              for _ in range(setup_only)]
    timed = [repetition(workload, seed, sim_seconds, "timed")
             for _ in range(repetitions)]
    checked = repetition(workload, seed,
                         round(sim_seconds * CHECKED_SHARE, 2), "checked")
    unsound = list(timed[0]["problems"])
    for other in timed[1:]:
        unsound += differences(timed[0], other, "timed repetitions")
    samples = {
        "ops_per_host_s": [r["ops"] / r["host_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "setup_s": setups + [r["setup_s"] for r in timed],
        # not metrics: what the calibration (perf/reference.py) started from
        "raw_ops_per_wall_s": [r["ops"] / r["host_raw_s"] for r in timed],
        "host_speed": [r["host_s"] / r["host_raw_s"] for r in timed],
    }
    sim = timed[0]["sim"]
    values = {name: statistics.median(samples[name])
              for name in ("ops_per_host_s", "peak_rss_mb", "setup_s")}
    values.update((name, sim[name]) for name in
                  ("sim_throughput_ops_s", "vis_p50_ms", "vis_p99_ms"))
    return {
        "attempted": checked["attempted"],
        "failed": checked["failed"] + len(unsound),
        "problems": checked["problems"] + unsound,
        "values": values, "samples": samples,
        "sim": sim, "counters": timed[0]["counters"],
        "sim_digest": timed[0]["digest"],
    }


def per_layer(workload: Workload, seed: int, sim_seconds: float,
              trace_sim_seconds: float, trace_out: str | None) -> dict:
    full = repetition(workload, seed, sim_seconds, "timed")
    plain = (full if trace_sim_seconds == sim_seconds else
             repetition(workload, seed, trace_sim_seconds, "timed"))
    traced = repetition(workload, seed, trace_sim_seconds, "traced",
                        trace_out=trace_out)
    problems = full["problems"] + differences(plain, traced,
                                              "traced vs untraced")
    c, ops = full["counters"], full["ops"]
    per = lambda total, count: total / count if count else 0.0  # noqa: E731

    values = {}
    for layer in LAYERS:
        calls, self_s = traced["layers"][layer]
        values[f"{layer}.host_self_share"] = self_s / traced["attributed_s"]
        values[f"{layer}.calls_per_op"] = per(calls, traced["ops"])
    values.update({
        "sim.loop.events_per_op": per(c["processed_events"], ops),
        "sim.loop.host_us_per_event":
            per(full["host_s"] * 1e6, c["processed_events"]),
        "sim.network.msgs_per_op": per(c["messages_sent"], ops),
        "sim.network.bytes_per_op": per(c["bytes_sent"], ops),
        "sim.network.msgs_dropped": c["messages_dropped"],
        "core.client.update_lat_p50_ms": full["sim"]["update_lat_p50_ms"],
        "core.client.update_lat_p99_ms": full["sim"]["update_lat_p99_ms"],
        "core.client.read_lat_p99_ms": full["sim"]["read_lat_p99_ms"],
        "core.client.retries": c["client_retries"],
        "core.partition.remote_applies_per_update":
            per(c["remote_applies"], c["local_updates"]),
        "core.uplink.heartbeats_per_sim_s":
            c["uplink_heartbeats_sent"] / sim_seconds,
        "core.uplink.retransmissions": c["uplink_retransmissions"],
        "core.uplink.frames_reused": c["uplink_frames_reused"],
        "core.service.ops_stabilized_per_op": per(c["ops_stabilized"], ops),
        "core.shard.merge_rounds_per_sim_s": c["merge_rounds"] / sim_seconds,
        "core.shard.ops_per_merge_round":
            per(c["ops_merged"], c["merge_rounds"]),
        "durability.wal.fsyncs_per_op": per(c["wal_commits"], ops),
        "durability.wal.fsync_bytes_per_op": per(c["wal_bytes_durable"], ops),
        "durability.wal.fsync_failures": c["wal_fsync_failures"],
        "geo.receiver.duplicates_dropped": c["receiver_duplicates_dropped"],
        "geo.receiver.backlog_end": c["receiver_backlog_end"],
        "trace.overhead_ratio": traced["host_s"] / plain["host_s"],
    })
    # ratios that need call counts come from the traced repetition
    t, calls = traced["counters"], traced["calls"]
    frames = calls[".on_add_op_batch"][0]
    batched = calls[".deliver_batch"][1]
    applies = calls[".on_apply_remote"][0] + calls[".on_apply_remote_run"][0]
    values.update({
        "sim.network.batched_send_share":
            per(calls[".send_many"][1], t["messages_attempted"]),
        "sim.process.deliver_batch_share":
            per(batched, calls[".deliver"][0] + batched),
        "core.uplink.frames_per_op": per(frames, traced["ops"]),
        "core.uplink.ops_per_frame": per(t["uplink_ops_shipped"], frames),
        "core.service.ops_per_stable_round": per(c["ops_stabilized"], c["stable_rounds"]),
        "geo.receiver.apply_msgs_per_applied_op":
            per(applies, t["receiver_applied"]),
    })
    for stage in STAGE_CHAIN:
        values[f"stage.{stage}.wait_p50_ms"] = (
            traced["stage_wait_p50_ms"][stage])

    values["sim.loop.wheel_over_heap"] = 0.0
    if workload.wheel_check:
        wheel = repetition(workload, seed, sim_seconds, "timed",
                           scheduler="wheel")
        problems += differences(full, wheel, "wheel vs heap scheduler")
        values["sim.loop.wheel_over_heap"] = wheel["host_s"] / full["host_s"]
    values["baselines.sequencer.sim_throughput_ops_s"] = 0.0
    values["rig.eunomia_over_sequencer"] = 0.0
    if workload.sequencer_check:
        sequencer = repetition(workload, seed, sim_seconds, "sequencer")
        rate = sequencer["sim_throughput_ops_s"]
        values["baselines.sequencer.sim_throughput_ops_s"] = rate
        values["rig.eunomia_over_sequencer"] = per(
            full["sim"]["sim_throughput_ops_s"], rate)
    return {
        "attempted": ops, "failed": len(problems), "problems": problems,
        "values": values,
        "samples": {"host_speed": [r["host_s"] / r["host_raw_s"]
                                   for r in (full, plain, traced)]},
        "sim": full["sim"], "counters": c, "sim_digest": full["digest"],
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 quick: bool, trace_dir: str | None, declaration: dict,
                 where: dict) -> dict:
    """One (workload, trace mode) run as a result record."""
    repetitions = 1 if quick else REPETITIONS
    sim_seconds = (QUICK_SIM_SECONDS if quick
                   else sim_seconds_for(workload, seconds))
    if trace:
        trace_out = (os.path.join(trace_dir, f"{workload.name}.trace.json")
                     if trace_dir else None)
        result = per_layer(
            workload, seed, sim_seconds,
            min(sim_seconds, workload.trace_sim_seconds), trace_out)
        repetitions = 1
    else:
        result = end_to_end(workload, seed, sim_seconds, repetitions,
                            0 if quick else SETUP_ONLY)
    declared = {m["name"]: m["unit"] for m in
                declaration["per_layer" if trace else "end_to_end"]}
    values = result.pop("values")
    if set(values) != set(declared):
        raise RuntimeError("BENCHMARK.json and perf/run.py disagree on "
                           f"{sorted(set(values) ^ set(declared))}")
    result.update(
        where, workload=workload.name, trace=trace, seed=seed,
        repetitions=repetitions, sim_seconds=sim_seconds,
        correct=not result["problems"],
        metrics={name: {"value": values[name], "unit": declared[name]}
                 for name in declared})
    return result


def environment() -> dict:
    """Where the numbers were taken (commit only inside a git checkout)."""
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = lambda *a: subprocess.run(  # noqa: E731
            ["git", *a], cwd=ROOT, capture_output=True, text=True).stdout
        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain").strip())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "dirty": dirty}


def report(result: dict) -> None:
    """Every metric by name, with its unit and sim/host label."""
    head = (f"{result['workload']} trace={result['trace']} "
            f"seed={result['seed']} sim_seconds={result['sim_seconds']} "
            f"repetitions={result['repetitions']}")
    print(f"== {head} sim_digest={result['sim_digest']} "
          f"vis_samples={result['sim']['vis_samples']}")
    for name, metric in result["metrics"].items():
        label = "host" if is_host(name) else "sim "
        spread = ""
        xs = result["samples"].get(name)
        if xs and len(xs) > 1:
            spread = f"  median of n={len(xs)} [{min(xs):.6g} .. {max(xs):.6g}]"
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']:<6s} "
              f"{label}{spread}")
    for name in ("raw_ops_per_wall_s", "host_speed"):
        xs = result["samples"].get(name)
        if xs:
            print(f"  (uncalibrated) {name:28s} {statistics.median(xs):>16.6g}"
                  f"        [{min(xs):.6g} .. {max(xs):.6g}]")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_ops_share':45s} {share:>16.6g} {'ratio':<6s} sim   "
          f"{result['failed']} of {result['attempted']} attempted")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    declaration = load_declaration()
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SIM_SECONDS:g} sim-s x 1 repetition")
    parser.add_argument("--out", help="write every result as JSON here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write Chrome traces of the traced repetitions")
    args = parser.parse_args(argv)
    if args.trace_out:
        args.trace_out = os.path.abspath(args.trace_out)   # children run in ROOT
        os.makedirs(args.trace_out, exist_ok=True)

    results, where = [], environment()
    for index, workload in enumerate(WORKLOADS):
        if args.workload in (None, workload.name):
            seed = args.seed if args.workload else args.seed + index
            for trace in ((0, 1) if args.trace is None else (args.trace,)):
                results.append(run_workload(
                    workload, seed, args.seconds, trace, args.quick,
                    args.trace_out, declaration, where))
                report(results[-1])
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "quick": args.quick, "results": results}, out,
                      indent=1)
    if len(results) == 1:
        print(json.dumps({key: results[0][key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
