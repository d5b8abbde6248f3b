"""Table 1: the serverless functions and their memory footprints."""

from __future__ import annotations

from repro.experiments import Experiment
from repro.faas.functions import TABLE1


def run() -> list:
    """Rows of (name, description, footprint MB)."""
    return [(s.name, s.description, s.footprint_mb) for s in TABLE1]


def format_rows(rows: list) -> str:
    lines = [f"{'Function':<12} {'Description':<42} {'Footprint (MB)':>14}"]
    for name, description, mb in rows:
        lines.append(f"{name:<12} {description:<42} {mb:>14}")
    return "\n".join(lines)


EXPERIMENTS = (
    Experiment(
        name="table1",
        description="Table 1: evaluation functions",
        run=lambda quick, seed, jobs: run(),
        format=format_rows,
    ),
)
