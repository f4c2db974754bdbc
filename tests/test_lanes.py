"""Lane lint: only the client path rides a storage partition's ``cpu`` lane.

Client service times are multiplied by ``Calibration.scale``; the protocol
intervals the visibility path is made of are not.  So anything of that path
that waits in ``cpu`` waits ten times longer than at paper scale and lands,
unscaled, in a number compared against Fig. 6 (docs/ARCHITECTURE.md,
"Lanes").  That defect was found three times by reading a latency against
its closed form — the Alg. 2 heartbeat (PR 20), frames and ``BatchAck``
(PR 21), the GST stabilization plane (PR 23); this reads the delivery plans
instead, so a fourth names itself when the handler is written.
"""

import pytest

import repro.baselines.messages as baseline_messages
import repro.core.messages as core_messages
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core.protocols import available_protocols

#: what a client waits for: its own request, and for the sequencer stores
#: the sequencer round trip its update's reply is held for
_CLIENT_PATH = {"ClientRead", "ClientUpdate"}
_CLIENT_PATH_OF = {"sseq": {"SeqReply"}, "aseq": {"SeqReply"}}

_MESSAGE_TYPES = [getattr(module, name)
                  for module in (core_messages, baseline_messages)
                  for name in module.__all__]


@pytest.mark.parametrize("protocol", sorted(available_protocols()))
def test_only_the_client_path_rides_the_cpu_lane(protocol):
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=1, clients_per_dc=0,
                         seed=1)
    system = build_geo_system(protocol, spec, WorkloadSpec())
    partition = system.datacenters[0].partitions[0]
    plans = {kind.__name__: partition._plan(kind) for kind in _MESSAGE_TYPES}
    lanes = {name: lane for name, (lane, _, handler, _) in plans.items()
             if handler != partition._unhandled}
    assert lanes.keys() >= _CLIENT_PATH
    allowed = _CLIENT_PATH | _CLIENT_PATH_OF.get(protocol, set())
    stray = sorted(name for name, lane in lanes.items()
                   if lane == "cpu" and name not in allowed)
    assert not stray, (f"{type(partition).__name__} serves {stray} in the "
                       f"cpu lane, behind scaled client operations")
