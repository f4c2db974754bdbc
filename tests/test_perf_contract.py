"""What the frozen benchmark needs from ``src/``.

``perf/`` and ``BENCHMARK.json`` may not change with the code they measure,
and ``perf/`` reaches into ``src/`` by name: ``perf/trace.py`` patches class
attributes, ``perf/workloads.py`` passes ``GeoSystemSpec(scheduler=...)`` and
reads counters off processes.  The benchmark's own self-tests
(``pytest perf``) are outside tier-1 and take a minute, so a deletion that
breaks them would only fail in the pipeline; these checks fail here instead.
"""

import sys
from pathlib import Path

import pytest

# perf/ is a top-level package of the repository, not of src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.trace import HostTracer, _entry_points  # noqa: E402
from perf.workloads import counters  # noqa: E402
from repro import GeoSystemSpec, WorkloadSpec  # noqa: E402
from repro.geo.system import build_geo_system  # noqa: E402
from repro.sim.loop import EventLoop, TimeWheelLoop  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.process import Process  # noqa: E402

#: names perf/trace.py looks up with ``vars(cls)[attr]`` (a KeyError there
#: aborts every traced repetition), beyond the ``on_*`` handlers it finds
#: by itself
NAMED = [(EventLoop, "schedule_at"), (EventLoop, "run"),
         (EventLoop, "schedule_periodic"), (Process, "periodic"),
         (TimeWheelLoop, "schedule_at"), (TimeWheelLoop, "run"),
         (Network, "send"), (Network, "send_many"), (Network, "multicast"),
         (Process, "deliver"), (Process, "deliver_batch")]


def test_host_tracer_installs_and_restores_every_name_it_patches():
    names = NAMED + [(cls, attr) for cls, attr, _, _ in _entry_points()]
    before = [vars(cls)[attr] for cls, attr in names]
    with HostTracer():
        for cls, attr in NAMED:
            wrapper = vars(cls)[attr]
            assert hasattr(wrapper, "__wrapped__"), (cls, attr)
            # wrapped once: a second layer would double the sim.loop spans
            assert not hasattr(wrapper.__wrapped__, "__wrapped__"), (cls, attr)
    assert all(vars(cls)[attr] is original
               for (cls, attr), original in zip(names, before))


def test_scheduler_wheel_still_builds_and_runs_on_the_heap():
    shape = dict(n_dcs=2, partitions_per_dc=2, clients_per_dc=2, seed=3)
    runs = []
    for scheduler in ("heap", "wheel"):
        system = build_geo_system(
            "eunomia", GeoSystemSpec(scheduler=scheduler, **shape),
            WorkloadSpec())
        assert type(system.env.loop) is EventLoop
        system.run(0.2)
        runs.append(counters(system.env))
    assert runs[0] == runs[1]
    assert runs[0]["processed_events"] > 0 and runs[0]["client_ops_done"] > 0
    with pytest.raises(ValueError, match="scheduler"):
        build_geo_system("eunomia", GeoSystemSpec(scheduler="calendar"),
                         WorkloadSpec())
