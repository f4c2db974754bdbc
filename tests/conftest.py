"""Shared fixtures: tiny environments, networks, and deployments.

Every test runs under two bounds on this process, so a runaway (a
simulator that never reaches its ``until``, a queue that grows without
end) fails the test it started in instead of taking the run down: an
address-space limit (a runaway allocation raises ``MemoryError``) and a
per-phase wall-clock alarm (``SIGALRM`` fails the test).

Every geo system a test builds is audited: its clients record a
:class:`~repro.checker.SessionHistory` (the test's own, when it passes
one), and once the test body has passed, the checks its protocol
promises run over it: placement routing always, and the session
guarantees and metadata integrity where ``ProtocolSpec.causal`` is set.
A violation fails the test.  A test that builds a system to break its
promise (a mutant kill that expects a violation) opts out with
``@pytest.mark.unaudited(reason)``.
"""

from __future__ import annotations

import resource
import signal
from contextlib import contextmanager

import pytest

from repro.checker import CausalChecker, SessionHistory
from repro.geo.system import GeoSystem
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network

#: address-space bound of the pytest process: a whole tier-1 run peaks at
#: 236 MB of virtual memory (119 MB resident) on CPython 3.11
ADDRESS_SPACE_BYTES = 2 << 30
#: wall-clock bound of each test's setup, call and teardown, seconds: the
#: slowest tier-1 test takes 3.3–4.5 s on a 2-core machine
PHASE_SECONDS = 30


#: (system, history) of every geo system built since the last audit
_BUILT: list = []


def _recording_init(init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        history = next((c.history for c in self.clients
                        if c.history is not None), None)
        if history is None:
            history = SessionHistory()
        for client in self.clients:
            client.history = history
        _BUILT.append((self, history))
    return __init__


def pytest_configure(config):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    config.addinivalue_line(
        "markers", "unaudited(reason): the geo systems this test builds "
        "skip the consistency audit")
    GeoSystem.__init__ = _recording_init(GeoSystem.__init__)


def _violations(system, history) -> list:
    """What ``system``'s protocol promises and ``history`` breaks."""
    checker = CausalChecker(history)
    site = system.datacenters[0]
    found = checker.check_placement_routing(system.placement, site.ring)
    if site.protocol.causal:
        found += checker.check() + checker.check_write_read_pairs()
    return found


class PhaseTimeout(BaseException):
    """A test phase ran past ``PHASE_SECONDS``.  Neither an ``Exception``
    nor pytest's ``Failed``: hypothesis catches those as a failing example
    and reruns it to shrink, past the one-shot alarm, so a property test
    that loops forever would run on."""


def _expire(signum, frame):
    raise PhaseTimeout(f"test phase ran past {PHASE_SECONDS} s")


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


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        with _alarm():
            result = yield
            if item.get_closest_marker("unaudited") is None:
                for system, history in _BUILT:
                    found = _violations(system, history)
                    assert not found, (
                        f"{system.protocol}: {len(found)} violation(s), "
                        f"first {found[0]}")
        return result
    finally:
        _BUILT.clear()


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

