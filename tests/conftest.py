"""Shared fixtures: tiny environments, networks, and deployments.

Every test runs under two bounds on this process, so a runaway (a
simulator that never reaches its ``until``, a queue that grows without
end) fails the test it started in instead of taking the run down: an
address-space limit (a runaway allocation raises ``MemoryError``) and a
per-phase wall-clock alarm (``SIGALRM`` fails the test).
"""

from __future__ import annotations

import resource
import signal
from contextlib import contextmanager

import pytest

from repro.calibration import Calibration
from repro.core.config import EunomiaConfig
from repro.geo.system import GeoSystemSpec
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network
from repro.workload import WorkloadSpec

#: address-space bound of the pytest process: a whole tier-1 run peaks at
#: 236 MB of virtual memory (119 MB resident) on CPython 3.11
ADDRESS_SPACE_BYTES = 2 << 30
#: wall-clock bound of each test's setup, call and teardown, seconds: the
#: slowest tier-1 test takes 3.3–4.5 s on a 2-core machine
PHASE_SECONDS = 30


def pytest_configure(config):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _expire(signum, frame):
    # ``pytest.fail`` raises a BaseException: a hypothesis test does not
    # catch it as a failing example and shrink past the bound
    pytest.fail(f"test phase ran past {PHASE_SECONDS} s")


@contextmanager
def _alarm():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, PHASE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _alarm():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _alarm():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with _alarm():
        yield


@pytest.fixture
def env():
    """A fresh deterministic environment."""
    return Environment(seed=1234)


@pytest.fixture
def net(env):
    """A zero-ish latency network attached to ``env``."""
    return Network(env, ConstantLatency(0.0001))


@pytest.fixture
def metrics():
    return MetricsHub()


@pytest.fixture
def small_spec():
    """A 3-DC deployment small enough for fast integration tests."""
    return GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=3,
                         seed=99)


@pytest.fixture
def small_workload():
    return WorkloadSpec(read_ratio=0.8, n_keys=64)


@pytest.fixture
def config():
    return EunomiaConfig()


@pytest.fixture
def calibration():
    return Calibration()
