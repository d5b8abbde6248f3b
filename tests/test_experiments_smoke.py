"""Experiment modules: reduced-scale smoke tests of run/summarize/format.

The benchmarks run the full-scale versions and assert the paper shapes;
these just guarantee every experiment's plumbing works on a small input
(so a refactor can't silently break a figure between benchmark runs).
"""

import pytest

from repro.experiments import (
    checkpoint_perf,
    failure_sweep,
    fig1_footprint,
    fig6_coldstart,
    fig7_performance,
    fig8_tiering,
    fig9_sensitivity,
    fig10_porter,
    keepalive_study,
    scalability,
    table1,
)

SMALL = ["float", "json"]


class TestSingleMechanismExperiments:
    def test_table1(self):
        rows = table1.run()
        assert len(rows) == 10
        assert "Footprint" in table1.format_rows(rows)

    def test_fig1(self):
        rows = fig1_footprint.run(SMALL, invocations=8)
        assert len(rows) == 2
        avg = fig1_footprint.averages(rows)
        assert avg["init"] + avg["read_only"] + avg["read_write"] == pytest.approx(1.0)
        assert "float" in fig1_footprint.format_rows(rows)

    def test_fig6(self):
        rows = fig6_coldstart.run(SMALL)
        assert all(r.container_create_ms > 0 for r in rows)
        assert fig6_coldstart.summarize(rows)["container_create_ms_spread"] == 0

    def test_fig7(self):
        rows = fig7_performance.run(SMALL, mechanisms=("localfork", "cxlfork"))
        assert len(rows) == 4
        summary = fig7_performance.summarize(rows)
        assert summary["cxlfork_vs_localfork"] > 0
        assert "restore" in fig7_performance.format_rows(rows)

    def test_fig8(self):
        rows = fig8_tiering.run(["float"], warm_invocations=1)
        assert {r.policy for r in rows} == {"mow", "moa", "hybrid"}
        summary = fig8_tiering.summarize(rows)
        assert summary["moa_mem_vs_mow"] > 1.0

    def test_fig9(self):
        rows = fig9_sensitivity.run(functions=["float"], latencies=[400.0, 100.0])
        assert len(rows) == 2
        summary = fig9_sensitivity.summarize(rows)
        assert "float_warm_gain" in summary

    def test_checkpoint_perf(self):
        rows = checkpoint_perf.run(["float"])
        summary = checkpoint_perf.summarize(rows)
        assert summary["criu_vs_cxlfork"] > 1.0


class TestPlatformExperiments:
    def test_fig10_tiny(self):
        config = fig10_porter.Fig10Config(
            total_rps=15, duration_s=3, functions=SMALL, cpu_count=8
        )
        rows = fig10_porter.run(config, arms=("criu-cxl", "cxlfork"))
        all_rows = [r for r in rows if r.function == "ALL"]
        assert len(all_rows) == 2
        summary = fig10_porter.summarize(rows)
        assert "mem100_cxlfork_p99_vs_criu" in summary

    def test_keepalive_tiny(self):
        rows = keepalive_study.run(
            windows=(1, 60), functions=("float",), total_rps=8, duration_s=4
        )
        assert len(rows) == 2
        assert rows[0].warm_hits + rows[0].restores > 0

    def test_failure_sweep_between_stage(self):
        """§3.1: the source node dies after checkpointing, before any restore."""
        points = [
            p for p in failure_sweep.points("float") if p.param("stage") == "between"
        ]
        rows = [failure_sweep.run_point(p) for p in points]
        outcomes = {r.mechanism: r.survived for r in rows}
        assert outcomes == {
            "cxlfork": True, "criu-cxl": True, "mitosis-cxl": False,
        }
        assert all(r.leaked_frames == 0 for r in rows)

    def test_scalability_tiny(self):
        rows = scalability.run(node_counts=(2,), policies=("mow",), function="float")
        assert len(rows) == 1
        assert rows[0].warm_ms > 0
