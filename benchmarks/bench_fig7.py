"""Figure 7 bench — straggler sensitivity (§7.2.3).

Regenerates the straggler timeline: one dc3 partition reports to Eunomia
every 10/100/1000 ms for the middle third of the run.  Paper shapes
asserted: the p90 visibility of healthy-partition dc3 updates at dc2 tracks
the straggling interval, then recovers after healing; under S-Seq healthy
visibility is untouched but the straggler's own clients pay the interval on
every update.
"""

from conftest import run_figure

from repro.harness.figures import fig7


def _assert_fig7_shapes(result, params):
    def eunomia_row(interval_ms, column):
        col = result.columns.index(column)
        for r in result.rows:
            if r[0] == "eunomia (healthy partitions)" and r[1] == interval_ms:
                return r[col]
        raise KeyError(interval_ms)

    for interval in params.straggle_intervals:
        ms = interval * 1e3
        healthy = eunomia_row(ms, "healthy_p90_ms")
        straggling = eunomia_row(ms, "straggling_p90_ms")
        healed = eunomia_row(ms, "healed_p90_ms")
        # the delay tracks the straggling interval...
        assert straggling > 0.5 * ms
        # ...and snaps back afterwards
        assert healed < healthy + 10.0

    col = result.columns.index("straggling_p90_ms")
    sseq_vis = next(r[col] for r in result.rows
                    if r[0] == "sseq (healthy partitions)")
    sseq_lat = next(r[col] for r in result.rows
                    if r[0].startswith("sseq (client"))
    assert sseq_vis < 15.0                       # visibility untouched
    assert sseq_lat > 0.5 * params.straggle_intervals[-1] * 1e3


def bench_fig7_straggler(benchmark):
    params = fig7.Fig7Params.quick()
    result = run_figure(benchmark, fig7, params)
    _assert_fig7_shapes(result, params)


def bench_fig7_straggler_full(benchmark):
    """Figure 7 over its full paper parameters — all three straggling
    intervals (10/100/1000 ms) with the 10 s per-phase timeline (30
    simulated seconds per interval, sequencer comparison included).
    Promoted to CI by the batched dataplane under the full-Figure-1
    recipe: shapes asserted in-bench, wall clock printed."""
    params = fig7.Fig7Params()
    result = run_figure(benchmark, fig7, params)
    _assert_fig7_shapes(result, params)
