"""Equivalence guard for the single-spine deployment refactor.

``tests/golden/baseline_goldens.json`` was captured against the
*pre-refactor* builders (every baseline over its own
``baselines/common.py`` frame) immediately before the ``ProtocolSpec``
spine landed.  These tests prove the refactor is observationally
invisible: every protocol, rebuilt as a plugin over
``core/protocols.py`` + ``geo/``, reproduces its golden digest
bit-for-bit — final stores, the full ordered remote-visibility timeline,
and operation counts.  ``build_geo_system`` is the one assembly route
into the spine, so there is no second path left to disagree with it.
"""

import json
from pathlib import Path

import pytest

from repro.core import EunomiaConfig
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import (
    GOLDEN_SPEC,
    GOLDEN_WORKLOAD,
    capture_golden,
)
from repro.workload import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "baseline_goldens.json").read_text())

#: digest fields that must match the pre-refactor capture exactly
STRICT_FIELDS = ("fingerprints", "snapshot_sha", "stable_sha",
                 "vis_sorted_sha", "ops", "converged")


def golden_id(golden):
    return f"{golden['protocol']}-seed{golden['seed']}"


@pytest.mark.parametrize("golden", GOLDENS, ids=golden_id)
def test_spine_reproduces_pre_refactor_golden(golden):
    fresh = capture_golden(golden["protocol"], golden["seed"])
    for field in STRICT_FIELDS:
        assert fresh[field] == golden[field], (
            f"{golden_id(golden)}: {field} drifted across the refactor")


def test_unknown_options_rejected_up_front():
    """A typo'd tunable — or one meant for another protocol — must fail
    loudly instead of silently running the experiment without it."""
    spec = GeoSystemSpec(seed=1, **GOLDEN_SPEC)
    wl = WorkloadSpec(**GOLDEN_WORKLOAD)
    with pytest.raises(TypeError, match="timngs"):
        build_geo_system("eunomia", spec, wl, timngs=123)
    with pytest.raises(TypeError, match="gst_interval"):
        build_geo_system("eventual", spec, wl, gst_interval=None)
    with pytest.raises(TypeError, match="synchronous"):
        build_geo_system("sseq", spec, wl, synchronous=False)
    for flavor in ("gentlerain", "cure"):
        with pytest.raises(TypeError, match="chain_length"):
            build_geo_system(flavor, spec, wl, chain_length=3)
    # an EunomiaConfig selects nothing in a store that has no uplink
    for protocol in ("eventual", "sseq", "aseq"):
        with pytest.raises(TypeError, match="config"):
            build_geo_system(protocol, spec, wl, config=EunomiaConfig())

