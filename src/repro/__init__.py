"""Eunomia: unobtrusive deferred update stabilization for geo-replication.

A from-scratch reproduction of Gunawardhana, Bravo & Rodrigues (USENIX ATC
2017).  The package provides:

* the **Eunomia service** and the full **EunomiaKV** geo-replicated store
  (:mod:`repro.core`, :mod:`repro.geo`);
* every **baseline** the paper compares against — sequencers (plain and
  chain-replicated), S-Seq, A-Seq, GentleRain, Cure, and an eventually
  consistent store (:mod:`repro.baselines`);
* the **substrates**: a deterministic discrete-event simulator with CPU and
  WAN modelling (:mod:`repro.sim`), hybrid/vector/physical clocks
  (:mod:`repro.clocks`), ordered op buffers (:mod:`repro.datastruct`),
  and a partitioned versioned KV store (:mod:`repro.kvstore`);
* a **workload generator**, **metrics**, a **causal-consistency checker**,
  and a **benchmark harness** regenerating every figure of the paper
  (:mod:`repro.harness`; ``python -m repro.harness --all``).

Quickstart::

    from repro import GeoSystemSpec, WorkloadSpec, build_system

    system = build_system("eunomia", GeoSystemSpec(seed=1),
                          WorkloadSpec(read_ratio=0.9))
    system.run(duration=5.0)
    print(system.total_throughput(), "ops/s")
"""

from .baselines import build_system
from .calibration import Calibration
from .core import EunomiaConfig
from .core.protocols import (
    ProtocolSpec,
    available_protocols,
    get_protocol,
    register_protocol,
)
from .geo import GeoSystem, GeoSystemSpec, build_geo_system
from .workload import WorkloadSpec

__version__ = "1.0.0"


def __getattr__(name: str):
    if name == "PROTOCOLS":
        # Live view: plugins registered after import appear immediately
        # (available_protocols() is the explicit spelling of the same).
        return available_protocols()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "build_system",
    "build_geo_system",
    "ProtocolSpec",
    "get_protocol",
    "register_protocol",
    "available_protocols",
    "PROTOCOLS",
    "GeoSystem",
    "GeoSystemSpec",
    "WorkloadSpec",
    "EunomiaConfig",
    "Calibration",
    "__version__",
]
