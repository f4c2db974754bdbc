"""Event budgets: how many loop events the simulator fires per unit of work.

Deterministic counts of seeded runs, no wall clock.  ``processed_events``
is the simulator's own bookkeeping, not the modelled system's, so goldens
and digests cannot see it grow; `perf/` can, but only in the pipeline.
These ceilings make a change that puts events back name itself in tier-1.

The floor they sit on (docs/ARCHITECTURE.md, "Simulator hot path"): an
Alg. 2 heartbeat is two events — the uplink tick that sends it and the
arrival that handles it — and a zero-cost message is handled in its
arrival event when its lane is idle.
"""

import pytest

import repro.baselines  # noqa: F401  (registers every protocol)
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core.protocols import available_protocols


def _run(protocol, clients_per_dc):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2,
                         clients_per_dc=clients_per_dc, seed=5)
    system = build_geo_system(protocol, spec,
                              WorkloadSpec(read_ratio=0.8, n_keys=64))
    system.run(1.0)
    return system, system.env.loop.processed_events


def test_idle_heartbeat_costs_at_most_two_events_and_change():
    """No clients: every partition heartbeats every tick.  The remainder
    over 2.0 is the stabilization, receiver and election ticks."""
    system, events = _run("eunomia", clients_per_dc=0)
    beats = sum(proc.uplink.heartbeats_sent
                for proc in system.env.network.processes()
                if hasattr(proc, "uplink"))
    assert beats == 5934
    # 4.62 with a sender slot and a completion event per heartbeat,
    # 3.68 with the completion fused only, 2.68 with both gone
    assert events / beats <= 2.8


#: ``processed_events / client ops`` of a seeded 1 sim-s run, measured and
#: rounded up by about 3 %.  (With a completion event per zero-cost reply
#: each was a whole event per op higher; Eunomia read 19.7.)
_CEILINGS = {"eventual": 4.9, "eunomia": 15.4, "gentlerain": 9.3,
             "cure": 9.6, "sseq": 9.4, "aseq": 9.4}


def test_every_protocol_has_a_ceiling():
    assert set(_CEILINGS) == set(available_protocols())


@pytest.mark.parametrize("protocol", sorted(_CEILINGS))
def test_events_per_op_stays_under_its_ceiling(protocol):
    system, events = _run(protocol, clients_per_dc=4)
    ops = sum(client.ops_done for client in system.clients)
    assert ops > 2000
    assert events / ops <= _CEILINGS[protocol]
