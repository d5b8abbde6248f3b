"""The common checkpoint/restore interface all mechanisms implement.

CXLfork, CRIU-CXL and Mitosis-CXL share one interface and differ only in
what their restore attaches, copies or rebuilds (§6.2, Fig. 7), so they
share one skeleton too.  :meth:`RemoteForkMechanism.checkpoint` opens the
``<trace_name>.checkpoint`` span, freezes the task around the mechanism's
``_capture`` and logs the result; :meth:`RemoteForkMechanism.restore`
checks the mechanism's preconditions, serves the checkpoint's
:class:`~repro.rfork.restoreplan.RestorePlan`, RAS-verifies CXL-resident
images before anything is spawned, creates the process and hands it to
the mechanism's ``_restore_into``, unwinding the half-built clone on any
failure.  The reference baselines (local fork, cold start) and the
resilient wrapper override both entry points outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Optional

from repro.os.node import ComputeNode
from repro.os.proc.namespaces import NamespaceSet
from repro.os.proc.task import Task, TaskState
from repro.ras import RAS
from repro.rfork.restoreplan import RestorePlan, plan_for, verify_planned
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE

#: Cost of creating the process that will call <mechanism>-restore on the
#: target node (clone + basic setup inside an existing container).
PROC_CREATE_NS = 500_000.0
#: Re-opening one file descriptor by path on the restoring node.
FD_REOPEN_NS = 20_000.0
#: Restoring mount points + the PID namespace.
NS_RESTORE_NS = 300_000.0
#: One mmap() call while rebuilding an address space (CRIU/Mitosis restore).
MMAP_SYSCALL_NS = 3_000.0


@dataclass
class CheckpointMetrics:
    """What taking a checkpoint cost and where the state landed."""

    latency_ns: float = 0.0
    cxl_bytes: int = 0
    local_shadow_bytes: int = 0
    serialized_bytes: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Open telemetry span mirroring the breakdown as phase child spans
    #: (set by the mechanism while tracing is enabled; see repro.telemetry).
    span: Any = field(default=None, repr=False, compare=False)

    def note(self, phase: str, ns: float) -> None:
        self.breakdown[phase] = self.breakdown.get(phase, 0.0) + ns
        self.latency_ns += ns
        if self.span is not None:
            self.span.add_phase(phase, ns)


@dataclass
class RestoreMetrics:
    """What a restore cost on its critical path (and off it)."""

    latency_ns: float = 0.0
    background_ns: float = 0.0
    prefetched_pages: int = 0
    copied_pages: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Open telemetry span mirroring the breakdown as phase child spans.
    span: Any = field(default=None, repr=False, compare=False)

    def note(self, phase: str, ns: float) -> None:
        self.breakdown[phase] = self.breakdown.get(phase, 0.0) + ns
        self.latency_ns += ns
        if self.span is not None:
            self.span.add_phase(phase, ns)


@dataclass
class RestoreResult:
    """A restored (cloned) task plus the metrics of restoring it."""

    task: Task
    metrics: RestoreMetrics


class RemoteForkMechanism:
    """Checkpoint a process on one node; clone it on another."""

    #: Identifier used in experiment tables ("cxlfork", "criu-cxl", ...).
    name: str = "abstract"
    #: Prefix of the mechanism's spans, event-log names and RAS contexts
    #: ("cxlfork" -> ``cxlfork.restore``, ``cxlfork_checkpoint``).
    trace_name: str = "abstract"
    #: Whether restore can target a ghost container (CRIU-CXL cannot, §6.2).
    supports_ghost_containers: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Every mechanism owns its entry points as class attributes, so a
        # wrapper bound to one mechanism's ``restore`` (perfbench's layer
        # tracer patches ``CxlFork.restore`` and its siblings) instruments
        # that mechanism alone.
        for entry in ("checkpoint", "restore"):
            if entry not in cls.__dict__:
                setattr(cls, entry, getattr(cls, entry))

    # -- checkpoint --------------------------------------------------------------

    def checkpoint(self, task: Task) -> tuple[Any, CheckpointMetrics]:
        """Freeze ``task`` and capture its state; returns (checkpoint, metrics).

        Virtual time is charged to the *source* node's clock.
        """
        node = task.node
        metrics = CheckpointMetrics()
        span = TRACE.span(
            f"{self.trace_name}.checkpoint", clock=node.clock, comm=task.comm
        )
        if span.recording:
            metrics.span = span
        task.freeze()
        try:
            ckpt, pages = self._capture(task, metrics)
        except BaseException:
            span.finish()  # failed checkpoints must not leave the span open
            raise
        finally:
            task.thaw()
        span.set(pages=pages, cxl_bytes=ckpt.cxl_bytes)
        span.finish()
        node.log.emit(node.clock.now, f"{self.trace_name}_checkpoint",
                      comm=task.comm, pages=pages)
        return ckpt, metrics

    def _capture(self, task: Task, metrics: CheckpointMetrics) -> tuple[Any, int]:
        """Capture the frozen ``task``; returns (checkpoint, pages captured).

        Charges its phases to ``metrics`` and advances the source clock.
        On failure it releases whatever it allocated, then re-raises.
        """
        raise NotImplementedError

    # -- restore -----------------------------------------------------------------

    def restore(
        self,
        checkpoint: Any,
        node: ComputeNode,
        *,
        container: Optional[Any] = None,
        policy: Optional[Any] = None,
    ) -> RestoreResult:
        """Clone the checkpointed process onto ``node``.

        Virtual time is charged to the *target* node's clock.
        """
        policy = self._restore_policy(checkpoint, policy)
        plan = plan_for(checkpoint, node.fabric, self.build_restore_plan)
        if plan.frames is not None and RAS.active():
            # Verify before spawning anything: a poisoned image must never
            # begin serving, and failing here leaves nothing to unwind.
            verify_planned(node.fabric.device.frames, plan,
                           context=f"{self.trace_name}.restore")
        kernel = node.kernel
        metrics = RestoreMetrics()
        attrs = {} if policy is None else {"policy": policy.name}
        span = TRACE.span(
            f"{self.trace_name}.restore", clock=node.clock,
            comm=checkpoint.comm, node=node.name, **attrs,
        )
        if span.recording:
            metrics.span = span

        metrics.note("process_create", PROC_CREATE_NS)
        task = kernel.spawn_task(checkpoint.comm, container=container)
        try:
            result = self._restore_into(
                task, checkpoint, node, policy, metrics, plan
            )
        except BaseException:
            # Unwind a partially built clone (e.g. OOM during prefetch) so
            # failed restores never leak frames.  If the node crashed
            # mid-restore, node.fail() already tore the task down.
            span.finish()
            if task.state is not TaskState.DEAD:
                kernel.exit_task(task)
            raise
        span.finish()
        return result

    def _restore_policy(self, checkpoint: Any, policy: Optional[Any]) -> Optional[Any]:
        """Check the restore's preconditions; return the policy to restore with."""
        return policy

    @staticmethod
    def build_restore_plan(checkpoint: Any) -> RestorePlan:
        """The checkpoint's image-derived restore inputs (see restoreplan)."""
        raise NotImplementedError

    def _restore_into(
        self,
        task: Task,
        checkpoint: Any,
        node: ComputeNode,
        policy: Optional[Any],
        metrics: RestoreMetrics,
        plan: RestorePlan,
    ) -> RestoreResult:
        """Rebuild the checkpointed process inside the freshly spawned ``task``."""
        raise NotImplementedError

    def delete_checkpoint(self, checkpoint: Any) -> None:
        """Release the checkpoint's storage (object-store reclaim)."""
        checkpoint.delete()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def reopen_global_state(task: Task, node: ComputeNode, fd_records, ns_record,
                        metrics: RestoreMetrics) -> None:
    """Re-open the checkpointed fds by path and redo the PID/mount namespaces."""
    for fd_record in fd_records:
        entry = fd_record.reopen()
        inode = node.rootfs.ensure(entry.path)
        task.fdtable.install(dc_replace(entry, inode=inode.ino))
    metrics.note("fd_reopen", FD_REOPEN_NS * len(fd_records))
    task.namespaces = NamespaceSet.restore_into(
        {"pid": ns_record.pid_ns, "mnt": ns_record.mnt_ns}, task.namespaces
    )
    metrics.note("ns_restore", NS_RESTORE_NS)


def rebuild_from_records(task: Task, checkpoint: Any, node: ComputeNode,
                         metrics: RestoreMetrics, plan: RestorePlan) -> None:
    """Redo a serialized image's registers, global state and VMA tree.

    Shared by CRIU-CXL and Mitosis-CXL, whose images carry the task as
    records.  Every VMA is recreated with an mmap call; the rebuilt
    ``Vma`` objects are immutable, so the plan shares one list across
    every restore.
    """
    record = checkpoint.task_record
    task.regs = record.regs.restore_into()
    reopen_global_state(task, node, record.fds, record.namespaces, metrics)
    for vma in plan.vma_specs:
        if vma.is_file_backed():
            node.rootfs.ensure(vma.path, size_bytes=vma.npages * PAGE_SIZE)
        task.mm.vmas.insert(vma)
        task.mm.note_range_used(vma.start_vpn, vma.npages)
    metrics.note("vma_rebuild", MMAP_SYSCALL_NS * len(plan.vma_specs))


__all__ = [
    "RemoteForkMechanism",
    "CheckpointMetrics",
    "RestoreMetrics",
    "RestoreResult",
    "PROC_CREATE_NS",
    "FD_REOPEN_NS",
    "NS_RESTORE_NS",
    "MMAP_SYSCALL_NS",
    "rebuild_from_records",
    "reopen_global_state",
]
