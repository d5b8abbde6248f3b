"""Figure 6: the anatomy of a cold start — state initialization vs
container creation.

The paper measures 250-500 ms of per-function state initialization plus a
~130 ms container-creation cost that barely varies across functions, and a
bare configured container holding only 512 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments import Experiment, with_summary
from repro.experiments.common import FAST_FUNCTIONS, make_pod
from repro.faas.container import ContainerFactory
from repro.faas.functions import function_names
from repro.faas.workload import FunctionWorkload
from repro.sim.units import MS


@dataclass
class Fig6Row:
    """One bar of Fig. 6."""

    function: str
    container_create_ms: float
    state_init_ms: float

    @property
    def total_ms(self) -> float:
        return self.container_create_ms + self.state_init_ms


def run(functions: Optional[list] = None) -> list:
    rows: list[Fig6Row] = []
    names = functions if functions is not None else function_names()
    for fn in names:
        pod = make_pod()
        node = pod.source
        factory = ContainerFactory(node)
        t0 = node.clock.now
        container = factory.create(fn)
        t1 = node.clock.now
        workload = FunctionWorkload(fn)
        workload.build_instance(node, container=container)
        t2 = node.clock.now
        rows.append(
            Fig6Row(
                function=fn,
                container_create_ms=(t1 - t0) / MS,
                state_init_ms=(t2 - t1) / MS,
            )
        )
    return rows


def summarize(rows: list) -> dict:
    creates = [r.container_create_ms for r in rows]
    inits = [r.state_init_ms for r in rows]
    return {
        "container_create_ms_mean": sum(creates) / len(creates),
        "container_create_ms_spread": max(creates) - min(creates),
        "state_init_ms_min": min(inits),
        "state_init_ms_max": max(inits),
    }


def format_rows(rows: list) -> str:
    lines = [f"{'function':<12} {'container(ms)':>14} {'state init(ms)':>15} {'total':>9}"]
    for row in rows:
        lines.append(
            f"{row.function:<12} {row.container_create_ms:>14.1f} "
            f"{row.state_init_ms:>15.1f} {row.total_ms:>9.1f}"
        )
    return "\n".join(lines)


EXPERIMENTS = (
    Experiment(
        name="fig6",
        description="Fig. 6: cold-start anatomy",
        run=lambda quick, seed, jobs: run(FAST_FUNCTIONS if quick else None),
        format=with_summary(format_rows, summarize=summarize),
    ),
)
