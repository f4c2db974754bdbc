"""Figure 1 bench — the motivating throughput/visibility tradeoff (§2).

Regenerates: S-Seq and A-Seq throughput penalties versus an eventually
consistent baseline, plus GentleRain/Cure across the stabilization-interval
sweep.  Paper shapes asserted: A-Seq ≈ free, S-Seq pays double digits of
nothing but waiting, and the global-stabilization systems trade throughput
for visibility along the interval axis.
"""

from conftest import run_figure

from repro.harness.figures import fig1


def _assert_fig1_shapes(result):
    sseq_penalty = result.row_value("sseq", "penalty_pct")
    aseq_penalty = result.row_value("aseq", "penalty_pct")
    assert sseq_penalty < -4.0              # the synchronous-sequencer tax
    assert aseq_penalty > sseq_penalty + 3  # ...which A-Seq mostly dodges

    gr_fast = result.row_value("gentlerain@1ms", "penalty_pct")
    gr_slow = result.row_value("gentlerain@100ms", "penalty_pct")
    assert gr_fast < gr_slow                # small interval = more CPU burned

    cure_slow = result.row_value("cure@100ms", "penalty_pct")
    assert cure_slow < -5.0                 # paper: −11.6% even at 100 ms
    # the round's cost is charged to the foreground server although the
    # stabilization plane runs beside it; moving it off cpu must trip this
    assert result.row_value("cure@1ms", "penalty_pct") < -30.0

    gr_vis_fast = result.row_value("gentlerain@1ms", "vis_p90_ms")
    gr_vis_slow = result.row_value("gentlerain@100ms", "vis_p90_ms")
    assert gr_vis_slow > gr_vis_fast + 50   # interval dominates visibility


def bench_fig1_motivation_tradeoff(benchmark):
    result = run_figure(benchmark, fig1, fig1.Fig1Params.quick())
    _assert_fig1_shapes(result)


def bench_fig1_motivation_tradeoff_full(benchmark):
    """Figure 1 over its full parameter grid — all five stabilization
    intervals, 6 s runs, 8 clients per DC.  The batched sim core made this
    affordable in the smoke-bench job (previously only the ``quick()`` cut
    ran in CI); the shapes are asserted at paper-scale load and the wall
    clock is printed."""
    result = run_figure(benchmark, fig1, fig1.Fig1Params())
    _assert_fig1_shapes(result)
