"""Equivalence guard for the single-spine deployment refactor.

``tests/golden/baseline_goldens.json`` was captured against the
*pre-refactor* builders (every baseline over its own
``baselines/common.py`` frame) immediately before the ``ProtocolSpec``
spine landed.  These tests prove the refactor is observationally
invisible: every protocol, rebuilt as a plugin over
``core/protocols.py`` + ``geo/``, reproduces its golden digest
bit-for-bit — final stores, the full ordered remote-visibility timeline,
and operation counts.

The goldens pin two fixed seeds; the hypothesis property extends the
guarantee across arbitrary seeds by asserting that every assembly route
into the spine (the ``build_system`` dispatcher and ``build_geo_system``
itself) produces identical runs — there is only one deployment path left to disagree
with itself.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import build_system
from repro.core import EunomiaConfig
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import (
    GOLDEN_SPEC,
    GOLDEN_WORKLOAD,
    capture_golden,
    run_fingerprint,
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
        build_system("eunomia", spec, wl, timngs=123)
    with pytest.raises(TypeError, match="timings"):
        build_system("eventual", spec, wl, timings=None)
    for flavor in ("gentlerain", "cure"):
        with pytest.raises(TypeError, match="chain_length"):
            build_system(flavor, spec, wl, chain_length=3)
    # an EunomiaConfig selects nothing in a store that has no uplink
    for protocol in ("eventual", "sseq", "aseq"):
        with pytest.raises(TypeError, match="config"):
            build_system(protocol, spec, wl, config=EunomiaConfig())


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       protocol=st.sampled_from(("cure", "gentlerain", "sseq")))
def test_assembly_routes_agree(seed, protocol):
    """Sequencer/GentleRain/Cure runs are identical no matter which
    assembly entry point built them — the refactor left one spine."""
    spec = GeoSystemSpec(seed=seed, **GOLDEN_SPEC)
    digests = []
    for route in (build_system, build_geo_system):
        system = route(protocol, spec, WorkloadSpec(**GOLDEN_WORKLOAD))
        system.run(0.8)
        system.quiesce(1.0)
        digests.append(run_fingerprint(system))
    assert digests[0] == digests[1]
