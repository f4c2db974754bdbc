"""A deep copy of a running system continues exactly as the original.

``copy.deepcopy`` copies every object a system reaches — processes, lanes,
the loop's queued entries and its timer handles — but shares function
objects.  State reachable only through a closure is therefore shared by
the original and its fork, and the fork's continuation drives the
original's processes.  Periodic tasks keep their crash guard as data on
the handle (``PeriodicHandle.process`` / ``epoch``) for this reason, and
lane bodies are queued as a bound method and its arguments
(``Process._enqueue(fn, cost, *args)``), never as a closure.

The check: fork a 3 DC × 4 partition × 4 client system (seed 7) at
0.3 sim-s, run the original and the fork 0.3 sim-s further, and compare
the run fingerprint and ``processed_events``.  The fault-tolerant shape is
forked a second time at an instant when a stabilizer's disk lane holds a
queued commit-and-ack body, and a chaos case is forked while its failure
schedule is armed and none of its faults has fired: each action is a
bound method (or module function) and its arguments, so the fork's
faults strike the fork.
"""

import copy

import pytest
from mutants import MUTANTS

import repro.baselines  # noqa: F401  (registers every protocol)
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core import EunomiaConfig
from repro.harness.chaos import build_case, sample_schedule
from repro.harness.goldens import run_fingerprint
from repro.sim.loop import Fifo, apply

#: protocol -> build options: the fault-tolerant sharded WAL stabilizer,
#: the GST baseline and the sequencer baseline
SHAPES = {
    "eunomia": {"config": EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                        n_shards=2, durability="wal")},
    "cure": {},
    "sseq": {},
}


#: an instant of the ``eunomia`` shape at which four shards' disk lanes
#: each hold a commit-and-ack body (a flush takes about 33 µs, so at 0.3
#: sim-s none is in flight)
COMMIT_QUEUED_AT = 0.31119


def _queued_bodies(loop):
    """``(fn, args)`` of every lane body still to fire, on the heap or
    parked behind a Fifo's head (stale generations left out)."""
    for entries in [loop._heap, *loop._fifos]:
        for _, _, fire, args in entries:
            lane = getattr(fire, "__self__", None)
            if type(lane) is Fifo and args[0] == lane.gen:
                _, fn, a, b = args
                yield (a, b) if fn is apply else (fn, (a, b))


def _runs_commit_and_ack(fn):
    """A body that calls ``StabilizerBase._commit_and_ack``: the method
    itself, or a function whose code names it."""
    return "_commit_and_ack" in (fn.__name__, *fn.__code__.co_names)


def _warmed(protocol, at=0.3):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=4,
                         seed=7)
    system = build_geo_system(protocol, spec, WorkloadSpec(),
                              **SHAPES[protocol])
    system.run(at)
    return system


def _continuations(system, seconds=0.3):
    """Fork ``system``, run it and its fork ``seconds`` on."""
    fork = copy.deepcopy(system)
    out = []
    for side in (system, fork):
        side.run(seconds)
        out.append((run_fingerprint(side), side.env.loop.processed_events,
                    side.failures().log))
    return out


def _commit_and_ack_queued(system) -> int:
    return sum(_runs_commit_and_ack(fn)
               for fn, _ in _queued_bodies(system.env.loop))


@pytest.mark.parametrize("protocol", sorted(SHAPES))
def test_a_fork_continues_as_the_original(protocol):
    original, fork = _continuations(_warmed(protocol))
    assert original[1] > 10_000       # events fired, fork point included
    assert fork == original


def test_a_fork_with_a_commit_and_ack_queued_continues_as_the_original():
    system = _warmed("eunomia", COMMIT_QUEUED_AT)
    assert _commit_and_ack_queued(system) == 4
    original, fork = _continuations(system)
    assert fork == original


def test_a_fork_with_its_failure_schedule_armed_continues_as_the_original():
    """Chaos seed 0: a gray link, an NTP outage, an isolation and a WAL
    fault, all in [0.5, 1.7) sim-s; forked at 0.3, run to 1.8."""
    system = build_case(sample_schedule("eunomia", 0))
    system.run(0.3)
    assert system.failures()._armed and not system.failures().log
    original, fork = _continuations(system, 1.5)
    assert len(original[2]) == 7   # every action fired (WAL faults never heal)
    assert fork == original


def test_the_fork_test_kills_a_periodic_body_that_closes_over_its_process():
    """With the guard in a closure, the fork's stabilization and GST
    ticks run the original's processes, and the continuations part."""
    with MUTANTS["periodic_body_closes_over_process"].applied():
        for protocol in ("eunomia", "cure"):
            with pytest.raises(AssertionError):
                test_a_fork_continues_as_the_original(protocol)


def test_the_fork_test_kills_a_commit_and_ack_body_that_closes_over_its_stabilizer():
    """With the disk lane's body a closure, the fork's queued flush commits
    the original's log and sends the original's ack: the fork's uplink
    waits for an ack that never comes, and the continuations part."""
    with MUTANTS["post_batch_body_closes_over_stabilizer"].applied():
        system = _warmed("eunomia", COMMIT_QUEUED_AT)
        assert _commit_and_ack_queued(system) == 4   # as closures
        original, fork = _continuations(system)
    assert fork != original
