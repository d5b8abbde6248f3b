"""Figure 3c: the motivation experiment — CRIU-CXL and Mitosis-CXL forking
a BERT instance to a new node, vs local fork.

Paper anchors: CRIU's restore alone takes 2.7x the local fork + execution
time and its child consumes 42x the local memory of a local fork's child;
Mitosis ends up 2.6x slower end-to-end with 24x the memory (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import Experiment
from repro.experiments.common import make_pod, measure_cold_start, prepare_parent
from repro.sim.units import MS


@dataclass
class Fig3Result:
    """The motivating BERT comparison."""

    localfork_total_ms: float
    criu_restore_ms: float
    criu_total_ms: float
    mitosis_total_ms: float
    localfork_mb: float
    criu_mb: float
    mitosis_mb: float

    @property
    def criu_restore_vs_localfork_total(self) -> float:
        """Paper: just CRIU's restore is ~2.7x local fork + execution."""
        return self.criu_restore_ms / self.localfork_total_ms

    @property
    def criu_total_vs_localfork(self) -> float:
        return self.criu_total_ms / self.localfork_total_ms

    @property
    def mitosis_total_vs_localfork(self) -> float:
        """Paper: ~2.6x."""
        return self.mitosis_total_ms / self.localfork_total_ms

    @property
    def criu_mem_vs_localfork(self) -> float:
        """Paper: ~42x."""
        return self.criu_mb / self.localfork_mb

    @property
    def mitosis_mem_vs_localfork(self) -> float:
        """Paper: ~24x."""
        return self.mitosis_mb / self.localfork_mb


def run(function: str = "bert") -> Fig3Result:
    results = {}
    for mech in ("localfork", "criu-cxl", "mitosis-cxl"):
        pod = make_pod()
        parent = prepare_parent(pod, function)
        results[mech] = measure_cold_start(pod, parent, mech)
    return Fig3Result(
        localfork_total_ms=results["localfork"].total_ns / MS,
        criu_restore_ms=results["criu-cxl"].restore_ns / MS,
        criu_total_ms=results["criu-cxl"].total_ns / MS,
        mitosis_total_ms=results["mitosis-cxl"].total_ns / MS,
        localfork_mb=results["localfork"].local_mb,
        criu_mb=results["criu-cxl"].local_mb,
        mitosis_mb=results["mitosis-cxl"].local_mb,
    )


def format_result(result: Fig3Result) -> str:
    return "\n".join(
        [
            f"local fork + exec:      {result.localfork_total_ms:8.1f} ms, "
            f"{result.localfork_mb:7.1f} MB",
            f"CRIU-CXL restore:       {result.criu_restore_ms:8.1f} ms "
            f"({result.criu_restore_vs_localfork_total:.2f}x local fork+exec; paper ~2.7x)",
            f"CRIU-CXL total:         {result.criu_total_ms:8.1f} ms, "
            f"{result.criu_mb:7.1f} MB ({result.criu_mem_vs_localfork:.0f}x mem; paper ~42x)",
            f"Mitosis-CXL total:      {result.mitosis_total_ms:8.1f} ms "
            f"({result.mitosis_total_vs_localfork:.2f}x; paper ~2.6x), "
            f"{result.mitosis_mb:7.1f} MB ({result.mitosis_mem_vs_localfork:.0f}x mem; paper ~24x)",
        ]
    )


EXPERIMENTS = (
    Experiment(
        name="fig3",
        description="Fig. 3c: motivation on BERT",
        # One BERT cell per mechanism: quick and full are the same run.
        run=lambda quick, seed, jobs: run(),
        format=format_result,
        bench="fig3",
    ),
)
