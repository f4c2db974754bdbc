"""A deep copy of a running system continues exactly as the original.

``copy.deepcopy`` copies every object a system reaches — processes, lanes,
the loop's queued entries and its timer handles — but shares function
objects.  State reachable only through a closure is therefore shared by
the original and its fork, and the fork's continuation drives the
original's processes.  Periodic tasks keep their crash guard as data on
the handle (``PeriodicHandle.process`` / ``epoch``) for this reason.

The check: fork a 3 DC × 4 partition × 4 client system (seed 7) at
0.3 sim-s, run the original and the fork to 0.6 sim-s, and compare the
run fingerprint and ``processed_events``.
"""

import copy

import pytest
from mutants import MUTANTS

import repro.baselines  # noqa: F401  (registers every protocol)
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core import EunomiaConfig
from repro.harness.goldens import run_fingerprint

#: protocol -> build options: the fault-tolerant sharded WAL stabilizer,
#: the GST baseline and the sequencer baseline
SHAPES = {
    "eunomia": {"config": EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                        n_shards=2, durability="wal")},
    "cure": {},
    "sseq": {},
}


def _continuations(protocol):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=4,
                         seed=7)
    system = build_geo_system(protocol, spec, WorkloadSpec(),
                              **SHAPES[protocol])
    system.run(0.3)
    fork = copy.deepcopy(system)
    out = []
    for side in (system, fork):
        side.run(0.3)
        out.append((run_fingerprint(side), side.env.loop.processed_events))
    return out


@pytest.mark.parametrize("protocol", sorted(SHAPES))
def test_a_fork_continues_as_the_original(protocol):
    original, fork = _continuations(protocol)
    assert original[1] > 10_000       # events fired, fork point included
    assert fork == original


def test_the_fork_test_kills_a_periodic_body_that_closes_over_its_process():
    """With the guard in a closure, the fork's stabilization and GST
    ticks run the original's processes, and the continuations part."""
    with MUTANTS["periodic_body_closes_over_process"].applied():
        for protocol in ("eunomia", "cure"):
            with pytest.raises(AssertionError):
                test_a_fork_continues_as_the_original(protocol)
