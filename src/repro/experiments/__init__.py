"""Experiment modules — one per paper figure/table or extension.

Each module exposes ``run_*``/``format_*`` helpers returning plain data rows
and printing the table the paper reports, and declares what the CLI,
``repro bench`` and ``repro report`` need to know about it as one or more
:class:`Experiment` records in a module-level ``EXPERIMENTS`` tuple.
:func:`registry` collects them lazily, so importing one experiment module
never imports the others.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    "scalability",
    "keepalive_study",
    "density",
    "write_heavy",
    "failure_sweep",
    "corruption_sweep",
    "cluster_scale",
]


def _no_failures(result: Any) -> list:  # noqa: ARG001 - nothing to gate
    return []


@dataclass(frozen=True)
class Experiment:
    """Everything the CLI, the bench harness and the report know about one
    experiment.

    ``run(quick, seed, jobs)`` returns the result object that
    ``repro bench`` digests; ``quick`` selects the reduced-scale config
    (``--fast``, bench quick mode, the default report).  ``check(result)``
    lists the failures of the experiment's hard gates (leaks, wrong bytes,
    audits); an empty list passes.
    """

    name: str
    description: str
    run: Callable[[bool, Optional[int], int], Any]
    format: Callable[[Any], str]
    check: Callable[[Any], list] = _no_failures
    #: Default seed, or ``None`` when the experiment takes no seed.
    seed: Optional[int] = None
    #: Whether ``jobs`` shards the grid over :mod:`repro.parallel` workers.
    sharded: bool = False
    #: Name of the committed ``BENCH_<bench>.json`` baseline, if any.
    bench: Optional[str] = None


@functools.lru_cache(maxsize=None)
def registry() -> dict:
    """Every experiment record by name, in ``__all__`` module order."""
    records: dict = {}
    for module_name in __all__:
        module = importlib.import_module(f"{__name__}.{module_name}")
        for record in getattr(module, "EXPERIMENTS", ()):
            if record.name in records:
                raise ValueError(f"duplicate experiment name {record.name!r}")
            records[record.name] = record
    return records


def with_summary(
    *parts: Callable[[Any], str], summarize: Callable[[Any], dict]
) -> Callable[[Any], str]:
    """A record ``format``: each part's text, then one right-aligned
    ``key: value`` line per headline value of ``summarize``."""

    def format_result(result: Any) -> str:
        summary = summarize(result)
        width = max(map(len, summary), default=0)
        lines = [
            f"{key:>{width}}: {value:.3f}" if isinstance(value, float)
            else f"{key:>{width}}: {value}"
            for key, value in summary.items()
        ]
        return "\n\n".join([part(result) for part in parts] + ["\n".join(lines)])

    return format_result
