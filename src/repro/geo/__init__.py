"""Geo-replication layer: Algorithm 5 receivers, datacenter assembly, and
the EunomiaKV system facade used by examples and the benchmark harness."""

from .datacenter import Datacenter, EunomiaProtocol
from .receiver import Receiver
from .system import (
    GeoSystem,
    GeoSystemSpec,
    build_geo_system,
)

__all__ = [
    "Receiver",
    "Datacenter",
    "EunomiaProtocol",
    "GeoSystem",
    "GeoSystemSpec",
    "build_geo_system",
]
