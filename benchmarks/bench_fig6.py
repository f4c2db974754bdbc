"""Figure 6 bench — remote-update visibility CDFs (§7.2.2).

Regenerates the visibility distributions on the near (dc1→dc2) and far
(dc2→dc3) pairs.  Paper shapes asserted: EunomiaKV ~95% within ~15 ms extra
on both pairs; GentleRain floored at ~40 ms on the near pair by its false
dependency on the farthest datacenter, Cure under 20 ms there; on the far
pair GentleRain beats Cure (the vector buys nothing there) while EunomiaKV
still leads.
"""

from conftest import run_figure

from repro.harness.figures import fig6


def bench_fig6_visibility_cdfs(benchmark):
    result = run_figure(benchmark, fig6, fig6.Fig6Params.quick())

    def row(system, pair, column):
        col = result.columns.index(column)
        for r in result.rows:
            if r[0] == system and r[1] == pair:
                return r[col]
        raise KeyError((system, pair))

    # EunomiaKV: the paper's headline visibility band.  The floor is a
    # release that finds its payload written and its chain idle — one LAN
    # hop and the publish, not a scaled storage write
    assert row("eunomia", "dc1->dc2", "p95_ms") < 9.0
    assert row("eunomia", "dc1->dc2", "min_ms") < 1.0
    assert row("eunomia", "dc1->dc2", "pct_within_15ms") > 85.0

    # GentleRain's near-pair floor: the farthest-DC false dependency
    # (80 − 40 ms of one-way delay, plus the report and aggregate phases)
    assert 40.0 < row("gentlerain", "dc1->dc2", "min_ms") < 46.0
    # Cure waits for heartbeat + stabilization periods only, whatever the
    # foreground load (28 ms while its rounds queued behind client ops)
    assert row("cure", "dc1->dc2", "p95_ms") < 20.0
    assert row("cure", "dc1->dc2", "p90_ms") < row("gentlerain", "dc1->dc2",
                                                   "p90_ms")

    # far pair: vector overhead, no latency benefit -> GentleRain <= Cure
    assert row("gentlerain", "dc2->dc3", "p90_ms") <= row(
        "cure", "dc2->dc3", "p90_ms") + 1.0
    # EunomiaKV best everywhere
    assert row("eunomia", "dc2->dc3", "p90_ms") < row(
        "gentlerain", "dc2->dc3", "p90_ms")

    # the CDF series are exported for plotting
    assert "eunomia:dc1->dc2" in result.series
