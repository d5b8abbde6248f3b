#!/usr/bin/env python3
"""Sensitivity self-test: does each end-to-end metric see its layer?

For each pairing below, adds a fixed host busy-wait to one layer function
(``run.py --delay``) and checks two predictions against an undelayed run
of the same seed:

* on the *heavy* workload, the predicted metric worsens by more than its
  bound from BENCHMARK.json (the benchmark can see a regression there);
* on the *bypass* workload, the same metric moves by less than its bound
  (the delay does not leak into a workload that skips the layer).

    python3 perfbench/sensitivity.py [--seconds 20] [--seed 7]

Exits 0 when every prediction holds.
"""

from __future__ import annotations

import argparse
import json
import sys

from stability import ROOT, run_once

#: (function, delay in µs, metric, heavy workload, bypass workload)
PAIRINGS = (
    ("os.access_range", 10, "sim_ops_per_host_s", "cluster-serve", "seal-ship"),
    ("dedup.intern_leaf", 1500, "host_step_ms.p50", "seal-ship", "restore-storm"),
    ("check.check_pod", 50000, "host_step_ms.p90", "seal-ship", "cluster-serve"),
    ("sim.event_step", 800, "sim_ops_per_host_s", "cluster-serve", "restore-storm"),
)


def run(workload: str, seed: int, seconds: int, delay: str = "") -> dict:
    result = run_once(workload, seed, seconds, delay)
    if not result["correct"]:
        raise RuntimeError(f"{workload} {delay}: incorrect run")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    baselines: dict = {}

    def base(workload: str) -> dict:
        if workload not in baselines:
            baselines[workload] = run(workload, args.seed, args.seconds)
        return baselines[workload]

    def worsening(metric: str, before: float, after: float) -> float:
        change = (after - before) / before
        return change if metrics[metric]["better"] == "lower" else -change

    ok = True
    print(f"{'delayed function':<18} {'delay':>8}  {'metric':<19} "
          f"{'heavy workload':<14} {'worse by':>9}  "
          f"{'bypass workload':<15} {'worse by':>9}  bound  verdict")
    for function, micros, metric, heavy, bypass in PAIRINGS:
        delay = f"{function}={micros}"
        bound = metrics[metric]["bound"]
        heavy_move = worsening(metric, base(heavy)[metric],
                               run(heavy, args.seed, args.seconds, delay)[metric])
        bypass_move = worsening(metric, base(bypass)[metric],
                                run(bypass, args.seed, args.seconds, delay)[metric])
        good = heavy_move > bound and abs(bypass_move) < bound
        ok &= good
        print(f"{function:<18} {micros:>6}us  {metric:<19} {heavy:<14} "
              f"{heavy_move:>9.1%}  {bypass:<15} {bypass_move:>9.1%}  "
              f"{bound:>5.0%}  {'pass' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
