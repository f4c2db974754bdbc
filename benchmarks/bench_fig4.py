"""Figure 4 bench — impact of replica failures on Eunomia (§7.1).

Regenerates the crash timeline: the leader dies at t₁, its successor at t₂.
Paper shapes asserted: 1-FT goes to zero after the first crash; 2-FT
survives the first (recovering to ~95%+) and dies at the second; 3-FT
survives both.  The sharded variant replays the same schedule against
Alg. 4 × K=2 replica groups and asserts the identical shape — replicating
the sharded pipeline preserves the paper's failover behaviour.
"""

from conftest import run_figure

from repro.harness.figures import fig4


def _assert_failover_shape(result):
    one = {c: result.row_value("1-FT", c)
           for c in ("before_crash1", "between_crashes", "after_crash2")}
    two = {c: result.row_value("2-FT", c)
           for c in ("before_crash1", "between_crashes", "after_crash2")}
    three = {c: result.row_value("3-FT", c)
             for c in ("before_crash1", "between_crashes", "after_crash2")}

    for row in (one, two, three):
        assert row["before_crash1"] > 0.9          # healthy start
    assert one["between_crashes"] < 0.05           # 1-FT dead after t1
    assert two["between_crashes"] > 0.9            # 2-FT failed over
    assert two["after_crash2"] < 0.05              # ...and died at t2
    assert three["between_crashes"] > 0.9          # 3-FT survives t1
    assert three["after_crash2"] > 0.9             # ...and t2


def bench_fig4_failure_timeline(benchmark):
    _assert_failover_shape(run_figure(benchmark, fig4,
                                      fig4.Fig4Params.quick()))


def bench_fig4_failure_timeline_sharded(benchmark):
    """The same failure schedule with every replica group K=2-sharded."""
    _assert_failover_shape(run_figure(benchmark, fig4,
                                      fig4.Fig4Params.quick_sharded()))


def bench_fig4_amnesia_rejoin(benchmark):
    """Crash → amnesia → rejoin (durability="wal", beyond the paper).

    The K=2 × 3-replica leader group loses its state at t₁ and rejoins at
    t₂ via checkpoint + WAL replay and peer state transfer.  Asserted
    shape: healthy before the crash, the interim leader carries near-full
    throughput through the outage, and the restored leader carries it
    after the rejoin handover — amnesia costs availability only for the
    failover/handover dips, never a stall.
    """
    result = run_figure(benchmark, fig4, fig4.Fig4Params.quick_amnesia())
    phases = {c: result.row_value("3-FT+rejoin", c)
              for c in ("before_crash1", "between_crashes", "after_crash2")}
    assert phases["before_crash1"] > 0.9      # healthy start
    assert phases["between_crashes"] > 0.9    # interim leader took over
    assert phases["after_crash2"] > 0.9       # restored leader resumed
