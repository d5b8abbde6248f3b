"""repro.check — correctness tooling for the rfork mechanisms.

The paper's core claim is *semantic equivalence*: a CXLfork child must be
indistinguishable from a CRIU-restored or Mitosis-forked child — same
logical address-space contents, protections, and CoW behaviour — only
cheaper.  This package proves it on every run that opts in:

* :mod:`repro.check.oracle` — differential address-space oracle.  Snapshots
  a parent's logical contents and diffs any child against it (and against
  children produced by the other mechanisms) at page granularity.
* :mod:`repro.check.invariants` — pod-wide invariant checker runnable at
  clock barriers: frame refcounts vs. PTE back-references, no dangling
  ATTACHED leaves, shootdown/TLB soundness proxies, allocator totals vs.
  the ``faults.audit`` owner model.
* :mod:`repro.check.fuzz` — seed-reproducible scenario fuzzer driving
  randomized fork/write/read/migrate/crash interleavings through all three
  mechanisms in lockstep.
* :mod:`repro.check.mutation` — env-var-gated deliberate bugs that the
  oracle must catch (the checker's own smoke test).

A process-global :class:`~repro.sim.switch.Switch`, :data:`CHECK`, lets
the CLI (``python -m repro run <exp> --check``) and the experiment
plumbing enable checking without threading a flag through every call site.
All checks are read-only walks of simulator state and never advance a
virtual clock, so enabling them cannot perturb experiment outputs — bench
digests stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.switch import Switch


class CheckFailure(AssertionError):
    """A correctness check failed (oracle divergence or invariant violation)."""


@dataclass
class CheckStats:
    """Counters for one checking session."""

    oracle_runs: int = 0
    invariant_runs: int = 0
    divergences: int = 0
    violations: int = 0
    failures: list = field(default_factory=list)


def fail(message: str) -> None:
    """Record a check failure on :data:`CHECK` and raise it."""
    CHECK.stats.failures.append(message)
    raise CheckFailure(message)


def summary_line() -> str:
    """One line for the CLI: the counts since the last reset and a verdict."""
    s = CHECK.stats
    status = "clean" if not s.failures else f"{len(s.failures)} FAILURE(S)"
    return (
        f"check: {s.oracle_runs} oracle run(s), "
        f"{s.invariant_runs} invariant sweep(s), "
        f"{s.divergences} divergence(s), {s.violations} violation(s) — {status}"
    )


#: The process-global checking switch, off by default (zero overhead).
#: When active, the experiment plumbing snapshots parents, diffs
#: children, and runs invariant sweeps; any failure raises
#: :class:`CheckFailure`.  ``CHECK.stats`` counts since the last reset.
CHECK = Switch("check", counters={"stats": CheckStats})

__all__ = ["CHECK", "CheckFailure", "CheckStats", "fail", "summary_line"]
