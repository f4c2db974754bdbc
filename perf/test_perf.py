"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest perf -q``.

Outside tier-1 ``testpaths``; every simulation here is the ``--quick`` size
(2 sim-s, one repetition), about a minute in all.
"""

from __future__ import annotations

import copy
import functools
import json
import re

import pytest

from perf import compare, run
from perf.trace import HostTracer, _entry_points
from perf.workloads import WORKLOADS

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.cache
def repetition(name: str, seed: int, mode: str, attempt: int = 0) -> dict:
    workload = next(w for w in WORKLOADS if w.name == name)
    return run.repetition(workload, seed, run.QUICK_SIM_SECONDS, mode)


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_sim_values_repeat_for_a_seed_and_move_with_it(name):
    first = repetition(name, SEED, "timed")
    again = repetition(name, SEED, "timed", attempt=1)
    assert run.differences(first, again, "same seed") == []
    assert first["ops"] > 0 and first["problems"] == []
    other = repetition(name, SEED + 1, "timed")
    assert other["digest"] != first["digest"]


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_tracing_does_not_perturb_the_simulation(name):
    traced = repetition(name, SEED, "traced")
    assert run.differences(repetition(name, SEED, "timed"), traced,
                           "traced") == []
    shares = [self_s / traced["attributed_s"]
              for _, self_s in traced["layers"].values()]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)


def test_wrappers_are_removed_by_identity():
    points = [(cls, attr) for cls, attr, _, _ in _entry_points()]
    before = [vars(cls)[attr] for cls, attr in points]
    with HostTracer():
        assert any(vars(cls)[attr] is not original
                   for (cls, attr), original in zip(points, before))
    assert all(vars(cls)[attr] is original
               for (cls, attr), original in zip(points, before))
    from repro.sim.loop import EventLoop, TimeWheelLoop
    from repro.sim.process import Process
    for cls, attr in ((EventLoop, "schedule_at"), (EventLoop, "run"),
                      (EventLoop, "schedule_periodic"), (Process, "periodic"),
                      (TimeWheelLoop, "schedule_at"), (TimeWheelLoop, "run")):
        assert not hasattr(vars(cls)[attr], "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_names_are_the_declared_ones(trace, capsys):
    declaration = run.load_declaration()
    code = run.main(["--workload", "geo_cure_mix", "--quick",
                     "--trace", str(trace), "--seed", str(SEED)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = declaration["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert all(NAME.fullmatch(w["name"]) for w in declaration["workloads"])
    assert ([w["name"] for w in declaration["workloads"]]
            == [w.name for w in WORKLOADS])


def test_compare_flags_a_drop_beyond_the_bound():
    declaration = run.load_declaration()
    timed = repetition("geo_cure_mix", SEED, "timed")
    rate = timed["ops"] / timed["host_s"]
    values = {"ops_per_host_s": rate, "peak_rss_mb": timed["peak_rss_mb"],
              "setup_s": timed["setup_s"], **timed["sim"]}
    base = {"workload": "geo_cure_mix", "trace": 0, "seed": SEED,
            "sim": timed["sim"], "counters": timed["counters"],
            "sim_digest": timed["digest"],
            "samples": {"ops_per_host_s": [rate * f
                                           for f in (0.99, 1.0, 1.01)]},
            "metrics": {m["name"]: {"value": values[m["name"]]}
                        for m in declaration["end_to_end"]}}

    def verdicts(factor: float) -> dict:
        slower = copy.deepcopy(base)
        slower["metrics"]["ops_per_host_s"]["value"] *= factor
        rows, differences = compare.compare(
            declaration, {"results": [base]}, {"results": [slower]})
        assert differences == []
        return {row[1]: row[-1] for row in rows}

    bound = next(m["bound"] for m in declaration["end_to_end"]
                 if m["name"] == "ops_per_host_s")
    assert verdicts(1 - bound - 0.05)["ops_per_host_s"] == "worse"
    assert set(verdicts(1 - bound / 3).values()) == {"ok"}
    noisy = copy.deepcopy(base)
    noisy["samples"]["ops_per_host_s"] = [rate * f for f in (0.8, 1.0, 1.2)]
    rows, _ = compare.compare(declaration, {"results": [base]},
                              {"results": [noisy]})
    assert {row[1]: row[-1] for row in rows}["ops_per_host_s"] == "unresolved"
