#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Runs ``run.py`` once per seed on each named workload, one run at a time,
and prints, per metric, the median and the quartile spread (Q3 - Q1 over
the median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them) next to the metric's bound from BENCHMARK.json.  A spread above a
third of its bound is flagged.

    python3 perfbench/stability.py --workloads seal-ship --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, delay: str = "") -> dict:
    """One untraced ``run.py`` run; its result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if delay:
        command += ["--delay", delay]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect")
        steady &= not bad
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            flag = "" if s < bound / 3 or name == "setup_s" else "  WIDE"
            steady &= not flag
            print(f"  {name:<22} median {statistics.median(values):>11.5g}"
                  f"  spread {s:7.2%}  bound {bound:.0%}{flag}")
            print(f"    values {[round(v, 4) for v in values]}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
