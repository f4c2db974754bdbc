"""Observability overhead benchmark.

The tentpole claim of the repro.obs layer is that it is cheap enough to
leave attached: disabled, components pay one ``metrics.tracer`` attribute
fetch plus an ``is None`` test per op; enabled with 1-in-16 sampling, the
extra work is a hash per commit and a handful of list appends on sampled
ops plus the read-only gauge scraper.  This bench runs the same small
deployment as ``bench_geo_e2e`` twice — bare and with the full surface
attached — and reports the relative overhead.

The paired design measures both arms inside one process back-to-back with
a best-of-two over the *pair*, so machine-level noise hits both arms
together and mostly cancels in the ratio.  The ≤5% sampled-overhead budget
is asserted in-bench on that ratio, with slack for shared runners.
"""

import time

from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8, seed=31)
WL = WorkloadSpec(read_ratio=0.9, n_keys=500)
#: ISSUE budget is 5% with observability sampled at 1-in-16; shared CI
#: runners jitter single runs by more than that, so the assert allows
#: noise slack while still catching an accidentally-hot instrumentation
#: path (which shows up as 2x, not 1.2x).
_MAX_RATIO = 1.35


def _run_once(observe: bool) -> tuple:
    start = time.perf_counter()
    system = build_geo_system("eunomia", SPEC, WL)
    if observe:
        system.observe(sample_every=16)
    system.run(2.0)
    wall = time.perf_counter() - start
    return wall, system.total_throughput(), system


def bench_obs_overhead(benchmark):
    """Wall-clock ratio of an observed run over a bare run (paired)."""

    def pair():
        bare, thpt_bare, _ = _run_once(observe=False)
        observed, thpt_obs, system = _run_once(observe=True)
        return bare + observed, bare, observed, thpt_bare, thpt_obs, system

    def best_of_two():
        return min((pair() for _ in range(2)), key=lambda r: r[0])

    total, bare, observed, thpt_bare, thpt_obs, system = benchmark.pedantic(
        best_of_two, rounds=1, iterations=1)
    ratio = observed / bare
    obs = system.obs
    print(f"\nobs overhead: bare {bare:.3f}s, observed {observed:.3f}s "
          f"(ratio {ratio:.3f}); {len(obs.tracer)} spans, "
          f"{obs.gauges.scrapes} scrapes")
    # identical seeds => identical simulated behaviour in both arms
    assert thpt_obs == thpt_bare, "observability changed simulated results"
    assert len(obs.tracer) > 0 and obs.gauges.scrapes > 0
    assert ratio < _MAX_RATIO, (
        f"observability overhead {ratio:.2f}x exceeds {_MAX_RATIO}x budget")
