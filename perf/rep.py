"""One repetition in a fresh interpreter: ``python3 perf/rep.py '<json spec>'``.

The runner (``perf/run.py``) starts one of these at a time and reads the JSON
object printed as the last line.  Spec keys: ``workload``, ``seed``,
``sim_seconds``, ``mode`` and optionally ``scheduler`` and ``trace_out``.
Modes:

* ``setup``     build and start only (one more ``setup_s`` sample);
* ``timed``     nothing attached; host time is the whole ``run()`` call;
* ``checked``   session history attached, drained, every check applied;
* ``traced``    ``perf.trace`` wrappers and ``repro.obs`` spans attached;
* ``sequencer`` the Fig. 2 sequencer rig, sim throughput only.
"""

import time

_ENTRY = time.perf_counter()    # child entry: before every other import

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: reference-kernel calls that calibrate the set-up time (about 0.1 s)
SETUP_KERNEL_CALLS = 10

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]


def main(spec: dict) -> dict:
    from perf import workloads
    from perf.reference import host_speed
    from perf.trace import HostTracer
    from repro.checker import SessionHistory
    from repro.metrics import percentile

    mode, seed = spec["mode"], spec["seed"]
    sim_seconds = spec["sim_seconds"]
    if mode == "sequencer":
        return {"sim_throughput_ops_s":
                workloads.sequencer_throughput(seed, sim_seconds)}
    workload = next(w for w in workloads.WORKLOADS
                    if w.name == spec["workload"])
    history = SessionHistory() if mode == "checked" else None
    tracing = HostTracer() if mode == "traced" else contextlib.nullcontext()
    with tracing as tracer:
        run = workload.build(seed, spec.get("scheduler", "heap"), history)
        stages = run.observe() if mode == "traced" else None
        if mode == "checked":
            run.count_requests()
        run.system.start()
        setup_raw_s = time.perf_counter() - _ENTRY
        out = {"setup_s": setup_raw_s * host_speed(SETUP_KERNEL_CALLS)}
        if mode == "setup":
            return out
        out["host_raw_s"], out["host_s"] = run.run(sim_seconds)
    # before the digests below allocate: this is the simulation's high-water
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out["ops"] = run.ops()
    out["sim"] = run.sim()
    out["counters"] = workloads.counters(run.env)
    if mode == "checked":
        out["attempted"], out["failed"], out["problems"] = run.check(history)
    else:
        out["problems"] = run.failures()
        out["digest"] = run.digest()
    if mode == "traced":
        out["attributed_s"] = tracer.attributed_s
        out["layers"] = tracer.layer_totals()
        out["calls"] = {name: tracer.calls(name) for name in (
            ".send", ".send_many", ".deliver", ".deliver_batch",
            ".on_add_op_batch", ".on_apply_remote", ".on_apply_remote_run")}
        out["stage_wait_p50_ms"] = {
            stage: percentile(waits, 50) if waits else 0.0
            for stage, waits in workloads.stage_waits(stages).items()}
        if spec.get("trace_out"):
            tracer.write_chrome_trace(spec["trace_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
