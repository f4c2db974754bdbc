"""Python-call budgets: how many Python frames the simulator opens per op.

Deterministic counts of seeded runs, no wall clock: ``sys.setprofile``
sees one "call" event per Python frame (C functions, ``attrgetter``
properties and builtins open none), divided by the client ops completed
in the same window.  Host time per op falls with these counts (395 → 325
calls per op on ``geo_update_heavy_ft`` bought 4–6 % ``ops_per_host_s``),
and goldens, digests and event budgets cannot see them, so a change that
puts helper frames back names itself here.

The floor these ceilings sit on, per op of the fault-tolerant shape
(K=2 shards, R=2 replicas, WAL; 10:90): about 35 ``schedule_at``, 23
``Network.send`` + ``Process.deliver`` pairs, 22 message ``__init__``,
16 ``Fifo._fire`` and 9 ``Fifo.park`` entries, 9.5 heartbeats each
handled and staged as a WAL record (``on_partition_heartbeat``,
``stage_partition_time``), and 5.7 uplink ticks with their ``every`` and
``read_us``.  What must not open a frame: ``Process.now``,
``Update.uid`` and the order key (read in C), a WAL record's varint
sizes (inline), an idle fault-tolerant tick's target list, and the
``apply`` trampoline for a lane body of two arguments
(``Process._enqueue``).
"""

import sys

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core import EunomiaConfig

#: name -> (spec, workload, options, ceiling): Python calls per completed
#: op over 0.4 sim-s after a 0.2 sim-s warm-up, measured and raised 5 %
#: (317.8 and 71.7; with a frame per derived key and per varint field, an
#: ``apply`` per lane body and a list per idle tick: 386.6 and 76.6)
SHAPES = {
    "fault_tolerant_10_90": (
        GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                      seed=5),
        WorkloadSpec(read_ratio=0.1, n_keys=500),
        {"config": EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                 n_shards=2, durability="wal")},
        333.6),
    "plain_90_10": (
        GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                      seed=5),
        WorkloadSpec(read_ratio=0.9, n_keys=1000),
        {},
        75.3),
}


def _calls_per_op(spec, workload, options) -> float:
    system = build_geo_system("eunomia", spec, workload, **options)
    system.run(0.2)
    done = sum(client.ops_done for client in system.clients)
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        system.env.run(until=system.env.now + 0.4)
    finally:
        sys.setprofile(previous)
    ops = sum(client.ops_done for client in system.clients) - done
    assert ops > 500
    return calls[0] / ops


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_python_calls_per_op_stay_under_their_ceiling(shape):
    spec, workload, options, ceiling = SHAPES[shape]
    assert _calls_per_op(spec, workload, options) <= ceiling
