"""Tests for the §7.1 load rigs and the figure harness plumbing."""

import pytest

from repro.calibration import Calibration
from repro.core import EunomiaConfig
from repro.harness import (
    FigureResult,
    build_eunomia_rig,
    build_sequencer_rig,
    format_table,
)
from repro.harness.figures import FIGURES


class TestRigs:
    def test_sequencer_rig_saturates_at_service_cost(self):
        cal = Calibration(scale=10.0)
        rig = build_sequencer_rig(20, calibration=cal, seed=1)
        rig.run(1.0)
        expected_cap = 1.0 / cal.cost("sequencer_request")
        assert rig.throughput() == pytest.approx(expected_cap, rel=0.05)

    def test_sequencer_rig_below_saturation_tracks_offered_load(self):
        cal = Calibration(scale=10.0)
        rig = build_sequencer_rig(2, calibration=cal, seed=1)
        rig.run(1.0)
        # 2 closed-loop clients can't reach the ~4.8k cap
        assert rig.throughput() < 0.5 / cal.cost("sequencer_request")

    def test_chain_rig_slower_than_plain(self):
        cal = Calibration(scale=10.0)
        plain = build_sequencer_rig(20, calibration=cal, seed=1)
        plain.run(1.0)
        chain = build_sequencer_rig(20, chain_length=3, calibration=cal,
                                    seed=1)
        chain.run(1.0)
        ratio = chain.throughput() / plain.throughput()
        assert ratio == pytest.approx(2 / 3, abs=0.05)  # paper: −33%

    def test_eunomia_rig_outscales_sequencer(self):
        cal = Calibration(scale=10.0)
        eunomia = build_eunomia_rig(30, calibration=cal, seed=1)
        eunomia.run(1.0)
        sequencer = build_sequencer_rig(30, calibration=cal, seed=1)
        sequencer.run(1.0)
        assert eunomia.throughput() > 3 * sequencer.throughput()

    def test_eunomia_rig_ft_mode(self):
        config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
        rig = build_eunomia_rig(6, config=config, seed=1)
        rig.run(1.0)
        assert rig.throughput() > 0
        assert rig.sink.received > 0

    def test_throughput_timeline_has_buckets(self):
        rig = build_sequencer_rig(5, seed=1)
        rig.run(1.0)
        timeline = rig.throughput_timeline(width=0.25)
        assert len(timeline) == 4
        assert all(rate > 0 for _, rate in timeline)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 20.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert "20.25" in lines[3]

    def test_figure_result_roundtrip(self):
        result = FigureResult("Figure X", "title", ["a", "b"])
        result.add_row("row1", 1.0)
        result.add_series("s", [(0.0, 1.0), (1.0, 2.0)])
        result.note("hello")
        assert result.row_value("row1", "b") == 1.0
        with pytest.raises(KeyError):
            result.row_value("missing", "b")
        text = result.render_text()
        assert "Figure X" in text and "hello" in text and "series s" in text

    def test_registry_complete(self):
        assert sorted(FIGURES) == [1, 2, 3, 4, 5, 6, 7]
        for number, module in FIGURES.items():
            assert hasattr(module, "run")
            assert hasattr(module, f"Fig{number}Params")
            params_cls = getattr(module, f"Fig{number}Params")
            assert hasattr(params_cls, "quick")

    def test_package_exports_resolve_lazily(self):
        import repro.harness as harness

        assert harness.FIGURES is FIGURES
        assert harness.FigureResult is FigureResult
        for name in harness.__all__:
            assert getattr(harness, name) is not None
        with pytest.raises(AttributeError, match="no attribute 'fig9'"):
            harness.fig9

    def test_fig4_phase_means_pinned(self):
        """Figure 4's three ``_phase_mean`` columns on a seeded rig
        timeline, as printed when ``mean`` was numpy's (captured at
        26a0e71): the stdlib ``fsum / n`` gives the same floats here."""
        from repro.harness.figures import fig4

        result = fig4.run(fig4.Fig4Params(
            n_partitions=4, replica_counts=(2,), duration=12.0, crash1=3.0,
            crash2=8.0, window=1.0))
        assert result.rows == [
            ["non-FT (baseline)", 1.0, 1.0, 1.0],
            ["2-FT", 0.9905619185167769, 0.9947267658616867, 0.0]]
