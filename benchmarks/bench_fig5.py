"""Figure 5 bench — geo-replicated throughput by workload mix (§7.2.1).

Regenerates the Eventual / EunomiaKV / GentleRain / Cure comparison across
read:write mixes.  Paper shapes asserted: the ordering
eventual ≥ eunomia > gentlerain > cure holds on every mix, and EunomiaKV
stays within a few percent of the eventually consistent ceiling.
"""

from conftest import run_figure

from repro.harness.figures import fig5


def _assert_fig5_shapes(result):
    for row in result.rows:
        label, eventual, eunomia, gentlerain, cure, drop = row
        assert eunomia > gentlerain > cure, label
        assert eventual >= eunomia * 0.99, label
        assert drop > -12.0, label          # paper: −4.7% average

    # the update-heavy mix hurts every causal system more
    heavy = result.rows[0]   # 50:50
    light = result.rows[-1]  # most read-heavy in the sweep
    assert heavy[1] < light[1]


def bench_fig5_geo_throughput(benchmark):
    result = run_figure(benchmark, fig5, fig5.Fig5Params.quick())
    _assert_fig5_shapes(result)


def bench_fig5_geo_throughput_full(benchmark):
    """Figure 5 over its full paper grid — all four read:write mixes, both
    key distributions, 5 s runs, 8 clients per DC (32 protocol deployments
    per round).  Promoted to CI by the batched dataplane under the same
    recipe as the full Figure 1 run: the simulated results are asserted
    in-bench and the wall clock is printed."""
    result = run_figure(benchmark, fig5, fig5.Fig5Params())
    _assert_fig5_shapes(result)
