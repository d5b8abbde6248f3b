"""Command-line entry point: run any experiment by name.

Experiments are the records of :func:`repro.experiments.registry`; ``run``
prints the record's table and the ``sim_results_digest`` that
``repro bench`` gates, and exits nonzero when the record's checks fail.

Usage::

    python -m repro list
    python -m repro run fig7
    python -m repro run fig10 --fast
    python -m repro run fig7 --check
    python -m repro run fig7 --jobs 8
    python -m repro trace fig6 [-o trace.json] [--jsonl spans.jsonl]
    python -m repro report [--full] [-o report.md]
    python -m repro bench [--quick] [--update] [fig7 fig3 ...]
    python -m repro check [--seed 0] [--steps 60] [--scenarios 4]
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list() -> int:
    from repro.experiments import registry

    records = registry()
    width = max(len(name) for name in records)
    for name, record in records.items():
        print(f"{name:<{width}}  {record.description}")
    return 0


def _cmd_run(
    name: str,
    fast: bool,
    check: bool = False,
    seed: int | None = None,
    jobs: int = 1,
) -> int:
    if check:
        from repro.check import CHECK, summary_line

        CHECK.reset()
        CHECK.enable()
        try:
            status = _cmd_run(name, fast, check=False, seed=seed, jobs=jobs)
        finally:
            CHECK.disable()
        print(f"\n[check] {summary_line()}")
        return status

    from repro.bench import results_digest
    from repro.experiments import registry
    from repro.parallel import resolve_jobs

    record = registry().get(name)
    if record is None:
        print(f"unknown experiment {name!r}; `python -m repro list`",
              file=sys.stderr)
        return 2
    if seed is not None and record.seed is None:
        seeded = sorted(r.name for r in registry().values() if r.seed is not None)
        print(f"experiment {name!r} does not take a seed "
              f"(seed-aware: {', '.join(seeded)})", file=sys.stderr)
        return 2
    try:
        workers = resolve_jobs(jobs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if jobs != 1 and not record.sharded:
        sharded = sorted(r.name for r in registry().values() if r.sharded)
        print(f"experiment {name!r} does not shard over --jobs "
              f"(jobs-aware: {', '.join(sharded)})", file=sys.stderr)
        return 2
    result = record.run(fast, record.seed if seed is None else seed, workers)
    print(record.format(result))
    print(f"\nsim_results_digest: {results_digest(result)}")
    failures = record.check(result)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _cmd_trace(
    name: str,
    fast: bool,
    output: str | None,
    jsonl: str | None,
) -> int:
    """Run one experiment under tracing; export the trace + phase table."""
    from repro.analysis.report import format_phase_breakdown
    from repro.telemetry import TRACE, write_chrome_trace, write_jsonl

    TRACE.reset()
    TRACE.enable()
    try:
        status = _cmd_run(name, fast)
    finally:
        TRACE.disable()
    if status != 0:
        return status
    trace_path = output if output is not None else f"trace-{name}.json"
    events = write_chrome_trace(trace_path, TRACE)
    print(f"\nwrote {trace_path} ({events} trace events; "
          "load in chrome://tracing or https://ui.perfetto.dev)")
    if jsonl is not None:
        lines = write_jsonl(jsonl, TRACE)
        print(f"wrote {jsonl} ({lines} records)")
    print("\nPhase breakdown (virtual time):\n")
    print(format_phase_breakdown(TRACE))
    return 0


def _cmd_report(full: bool, output: str | None) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(fast=not full)
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    if args_in and args_in[0] == "bench":
        # The bench harness owns its argument parsing (it is also runnable
        # as benchmarks/harness.py from the repo root).
        from repro.bench import main as bench_main

        return bench_main(args_in[1:])
    if args_in and args_in[0] == "check":
        # The scenario fuzzer owns its argument parsing (see repro.check.fuzz).
        from repro.check.fuzz import main as check_main

        return check_main(args_in[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CXLfork reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see `list`)")
    run_parser.add_argument("--fast", action="store_true",
                            help="reduced scale (the bench quick config for "
                                 "baselined experiments)")
    run_parser.add_argument("--check", action="store_true",
                            help="run under the repro.check differential "
                                 "oracle + invariant checker")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="seed (seed-aware experiments only; "
                                 "default: the experiment's own)")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for sweep grids "
                                 "(0 = one per CPU; results are "
                                 "bit-identical to --jobs 1)")
    trace_parser = sub.add_parser(
        "trace", help="run one experiment under tracing; export a trace file"
    )
    trace_parser.add_argument("experiment", help="experiment name (see `list`)")
    trace_parser.add_argument("--fast", action="store_true",
                              help="reduced scale")
    trace_parser.add_argument("-o", "--output", default=None,
                              help="Chrome trace-event JSON path "
                                   "(default: trace-<experiment>.json)")
    trace_parser.add_argument("--jsonl", default=None,
                              help="also write a JSONL span/metric dump here")
    sub.add_parser(
        "bench",
        help="wall-clock benchmark harness (handled above; see repro.bench)",
    )
    sub.add_parser(
        "check",
        help="differential-oracle scenario fuzzer (handled above; "
             "see repro.check.fuzz)",
    )
    report_parser = sub.add_parser("report", help="generate the full report")
    report_parser.add_argument("--full", action="store_true",
                               help="full-scale sweeps (slow)")
    report_parser.add_argument("-o", "--output", default=None,
                               help="write the report to a file")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.fast, args.check, args.seed, args.jobs
        )
    if args.command == "trace":
        return _cmd_trace(args.experiment, args.fast, args.output, args.jsonl)
    if args.command == "report":
        return _cmd_report(args.full, args.output)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
