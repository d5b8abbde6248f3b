"""Experiment modules — one per paper figure/table.

Each module exposes a ``run_*`` function returning plain data rows and a
``format_*`` helper printing the same table/series the paper reports.  The
benchmarks under ``benchmarks/`` wrap these, and EXPERIMENTS.md records
paper-vs-measured for each.
"""

__all__ = [
    "common",
    "table1",
    "fig1_footprint",
    "fig3_motivation",
    "fig6_coldstart",
    "fig7_performance",
    "fig8_tiering",
    "fig9_sensitivity",
    "fig10_porter",
    "checkpoint_perf",
    # extensions (§3.1/§5/§8 discussion points, implemented)
    "failure",
    "scalability",
    "keepalive_study",
    "density",
    "write_heavy",
    "failure_sweep",
    "corruption_sweep",
    "cluster_scale",
]
