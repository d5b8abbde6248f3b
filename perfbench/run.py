#!/usr/bin/env python3
"""Host-speed benchmark of the CXLfork simulator.

Run from the repository root:

    python3 perfbench/run.py --workload restore-storm --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``restore-storm``, ``seal-ship`` and
``cluster-serve``.  Each run sets the workload up ``SETUP_RUNS`` times
(twice in fresh child processes, once here) and reports the median set-up
time, then runs the workload's closed loop for ``--seconds`` of host time.

``--trace 0`` reports the end-to-end metrics: host time per step, simulated
operations per host second, set-up time and peak RSS.  ``--trace 1`` runs
the first half of the time with every layer function wrapped
(perfbench/layers.py) and the second half unwrapped, and reports per-layer
call counts, self times and ratios plus the tracing overhead.

Every step is checked (see workloads.py); failed steps are counted.  The
simulated outputs of the first ``DIGEST_STEPS`` steps are hashed into a
digest that is stored under ``.bench_build/perfbench``; a later run of the
same code and seed whose digest differs counts those steps as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--delay
NAME=MICROS`` adds a fixed host busy-wait to one layer function (used by
perfbench/sensitivity.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("restore-storm", "seal-ship", "cluster-serve")
DIGEST_STEPS = 20
SETUP_RUNS = 3
#: Host times are reported as if the calibration kernel took exactly this
#: long (about its time on a 2-vCPU x86-64 VM running CPython 3.11).
CAL_REF_S = 0.0010
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", action="append", default=[],
                        metavar="NAME=MICROS",
                        help="add a host busy-wait to one layer function")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def parse_delays(specs: list) -> dict:
    delays = {}
    for spec in specs:
        name, _, micros = spec.partition("=")
        delays[name] = float(micros) * 1e-6
    return delays


def load_program() -> None:
    """Put the simulator's sources on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: simulator sources not found under src/repro",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def code_hash() -> str:
    """Identity of the code under test: the simulator and this benchmark."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def timed_setup(workload) -> float:
    """Normalized host seconds of ``workload.setup()``."""
    before = speed_scale()
    t0 = clock()
    workload.setup()
    raw = clock() - t0
    return raw * (before + speed_scale()) / 2


def child_setup_seconds(args: argparse.Namespace) -> float:
    """Set the workload up in a fresh process; its set-up seconds."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    for spec in args.delay:
        command += ["--delay", spec]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def calibrate() -> float:
    """Host seconds for one fixed calibration kernel: a dict-and-integer
    Python loop plus small numpy ops on a 512-entry array, the simulator's
    own instruction mix.  The kernel never changes, so its time tracks the
    speed of the machine, not of the code under test."""
    import numpy as np

    table = np.arange(512, dtype=np.int64)
    start = clock()
    counts: dict = {}
    acc = 0
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += i * 3 % 7
    for i in range(60):
        mask = (table & (i + 1)) == 0
        acc += int(np.count_nonzero(mask)) + int(table[mask].sum())
    return clock() - start


def speed_scale(samples: int = 5) -> float:
    """Reference kernel time over the median of ``samples`` kernel runs."""
    return CAL_REF_S / statistics.median(calibrate() for _ in range(samples))


class Phase:
    """One timed closed-loop phase.  It ends on a whole block of the
    workload's steps, so every run measures the same step mix.  Each step's
    host time is normalized by the calibration kernels run just before and
    after it; ``elapsed`` is the sum of the normalized step times."""

    def __init__(self) -> None:
        self.times: list[float] = []  # normalized step seconds
        self.raw_times: list[float] = []
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.elapsed = 0.0

    def run(self, workload, seconds: float, min_steps: int,
            records: list) -> "Phase":
        prepare = getattr(workload, "prepare", None)
        block = workload.BLOCK
        start = clock()
        cal_before = calibrate()
        while True:
            if prepare is not None:
                prepare()
            t0 = clock()
            step = workload.step()
            raw = clock() - t0
            cal_after = calibrate()
            self.raw_times.append(raw)
            self.times.append(raw * CAL_REF_S * 2 / (cal_before + cal_after))
            cal_before = cal_after
            self.ops += step.ops
            if not step.ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(step.problem)
            if len(records) < DIGEST_STEPS:
                records.append(step.record)
            steps = len(self.times)
            if (clock() - start >= seconds and steps >= min_steps
                    and steps % block == 0):
                break
        self.elapsed = sum(self.times)
        return self


def percentile_ms(times: list, wanted: float) -> tuple:
    """(value_ms, percentile used): the wanted percentile, lowered until at
    least ``TAIL_SAMPLES`` samples lie beyond it."""
    n = len(times)
    used = min(wanted, 100.0 * (n - TAIL_SAMPLES) / n) if n > TAIL_SAMPLES else 0.0
    ordered = sorted(times)
    rank = used / 100.0 * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value * 1000.0, used


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Record this run's digest; False if an earlier run of the same code
    and seed recorded a different one."""
    store = STATE / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{workload}|{seed}|{code_hash()}"
    previous = known.setdefault(key, digest)
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return previous == digest


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, phase: Phase, before: dict, after: dict,
                  untraced: Phase) -> dict:
    out: dict = {}
    stats = tracer.stats()
    for name, row in stats.items():
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_ms"] = (row["self_ms"], "ms")
        if layers.EXTRA_NAMES.get(name) == "bytes":
            out[f"{name}.bytes"] = (row["extra"], "B")
    access = stats["os.access_range"]
    out["os.faults_per_call"] = (_ratio(access["extra"], access["calls"]),
                                 "faults/call")

    def delta(group: str, key: str) -> float:
        return after.get(group, {}).get(key, 0) - before.get(group, {}).get(key, 0)

    hits, builds = delta("plan", "hits"), delta("plan", "builds")
    out["rfork.plan_hit_ratio"] = (_ratio(hits, hits + builds), "ratio")
    dhits, dmiss = delta("dedup", "hits"), delta("dedup", "misses")
    out["dedup.hit_ratio"] = (_ratio(dhits, dhits + dmiss), "ratio")
    out["cluster.delta_wire_ratio"] = (_ratio(
        delta("delta", "wire_page_bytes") + delta("delta", "hash_bytes"),
        delta("delta", "full_page_bytes")), "ratio")
    kinds_total = sum(after.get("kinds", {}).values()) - sum(
        before.get("kinds", {}).values())
    out["porter.warm_ratio"] = (_ratio(delta("kinds", "warm"), kinds_total),
                                "ratio")
    for layer in layers.LAYERS:
        self_ms = sum(row["self_ms"] for name, row in stats.items()
                      if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_share"] = (
            100.0 * self_ms / 1000.0 / sum(phase.raw_times), "%")
    traced_rate = phase.ops / phase.elapsed
    untraced_rate = untraced.ops / untraced.elapsed
    out["trace.ops_per_host_s.traced"] = (traced_rate, "1/s")
    out["trace.ops_per_host_s.untraced"] = (untraced_rate, "1/s")
    out["trace.overhead"] = (100.0 * (_ratio(untraced_rate, traced_rate) - 1.0),
                             "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    delays = parse_delays(args.delay)
    if delays:
        layers.install_delays(delays)
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    setup_samples = [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    setup_samples.append(timed_setup(workload))
    gc.collect()
    gc.freeze()

    records: list = []
    if args.trace:
        tracer = layers.LayerTracer()
        before = workload.counters()
        tracer.install()
        phase = Phase().run(workload, args.seconds / 2, DIGEST_STEPS, records)
        tracer.uninstall()
        after = workload.counters()
        untraced = Phase().run(workload, args.seconds / 2, 1, records)
        phases = [phase, untraced]
    else:
        phase = Phase().run(workload, args.seconds, DIGEST_STEPS, records)
        phases = [phase]

    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    problems += workload.finish()
    if not check_digest(args.workload, args.seed, digest):
        failed = min(attempted, failed + DIGEST_STEPS)
        problems.append("digest differs from an earlier run of this code "
                        "and seed")

    timed = phases[-1]  # end-to-end numbers come from an untraced phase
    p50, _ = percentile_ms(timed.times, 50.0)
    p90, p90_used = percentile_ms(timed.times, 90.0)
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "sim_ops_per_host_s": (timed.ops / timed.elapsed, "1/s"),
        "host_step_ms.p50": (p50, "ms"),
        "host_step_ms.p90": (p90, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.trace:
        metrics = layer_metrics(tracer, phase, before, after, untraced)
        STATE.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(STATE / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digest {digest}")
    print(f"untraced steps {len(timed.times)} in {sum(timed.raw_times):.3f} "
          f"raw s, {timed.elapsed:.3f} normalized s "
          f"(p90 reported at percentile {p90_used:.1f}); "
          f"setup samples {[round(s, 3) for s in setup_samples]}")
    print(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio")
    shown = dict(end_to_end, **metrics) if args.trace else metrics
    for name, (value, unit) in shown.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for msg in problems:
        print(f"  problem: {msg}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
