"""Per-node kernel: process lifecycle, memory population, and page faults.

The fault path is the load-bearing piece.  It is vectorized per page-table
leaf (numpy masks over 512-entry PTE arrays) because the simulator routinely
faults hundreds of thousands of pages per invocation, but the *semantics*
are per-page and mirror Linux + the CXLfork patch:

* writes to COW-marked present pages copy the page to local DRAM
  (``COW_LOCAL`` / ``COW_CXL`` depending on where the source lives);
* non-present pages in checkpoint-backed ranges are resolved by the
  process's tiering policy (copy to local vs map the CXL frame in place);
* non-present pages in ordinary VMAs follow anon/file fault rules through
  the per-node page cache;
* OS-level PTE updates to *shared* leaves (checkpoint-attached or forked)
  first privatize the leaf — the PTE-leaf CoW of §4.2.1 — while
  hardware-style A/D bit updates go through the shared leaf directly, which
  is exactly what lets hybrid tiering harvest access bits pod-wide.

Frame lifetime is uniformly refcounted: every mapping holds one reference
(page cache holds its own), so fork/CoW/exit compose without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.os.mm.faults import (
    DEFAULT_FAULT_COSTS,
    WARMING_KINDS,
    FaultCostModel,
    FaultKind,
)
from repro.os.mm.mmdesc import MemoryDescriptor
from repro.os.mm.pagetable import LEAF_SHIFT, PTES_PER_LEAF, PageTable, PteLeaf
from repro.os.mm.pte import (
    PTE_FRAME_SHIFT,
    PteFlags,
    make_ptes,
    ptes_flag_mask,
)
from repro.os.mm.vma import Vma, VmaKind, VmaPerms
from repro.os.proc.task import Task, TaskState
from repro.ras import RAS, verify_frames
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.node import ComputeNode

_PRESENT = np.int64(int(PteFlags.PRESENT))
_WRITE = np.int64(int(PteFlags.WRITE))
_ACCESSED = np.int64(int(PteFlags.ACCESSED))
_DIRTY = np.int64(int(PteFlags.DIRTY))
_COW = np.int64(int(PteFlags.COW))
_CXL = np.int64(int(PteFlags.CXL))


@dataclass
class FaultStats:
    """What a batch of memory accesses cost, by fault kind.

    Also tallies where the touched pages ended up (local vs CXL) after all
    transitions, so callers don't need a second page-table pass.
    """

    #: Per-kind fault tallies.  A plain dict, not a Counter: one FaultStats
    #: is allocated per access_range call, and Counter's __init__/update
    #: overhead was measurable at cluster scale.
    counts: dict = field(default_factory=dict)
    cost_ns: float = 0.0
    touched_local: int = 0
    touched_cxl: int = 0
    #: Running total of the cache-warming kinds (see
    #: :data:`repro.os.mm.faults.WARMING_KINDS`), kept incrementally so
    #: hot callers never re-walk the counter.
    warmed: int = 0

    def add(self, kind: FaultKind, n: int, cost_each_ns: float) -> None:
        if n <= 0:
            return
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + n
        self.cost_ns += n * cost_each_ns
        if kind in WARMING_KINDS:
            self.warmed += n

    def add_cost(self, ns: float) -> None:
        self.cost_ns += ns

    def merge(self, other: "FaultStats") -> "FaultStats":
        counts = self.counts
        for kind, n in other.counts.items():
            counts[kind] = counts.get(kind, 0) + n
        self.cost_ns += other.cost_ns
        self.touched_local += other.touched_local
        self.touched_cxl += other.touched_cxl
        self.warmed += other.warmed
        return self

    @property
    def touched(self) -> int:
        """Pages this batch touched (post-fault placement tally)."""
        return self.touched_local + self.touched_cxl

    @property
    def total_faults(self) -> int:
        return sum(self.counts.values())

    def count(self, kind: FaultKind) -> int:
        return self.counts.get(kind, 0)


@dataclass
class CheckpointBacking:
    """Links a restored address space to its CXL checkpoint and policy."""

    checkpoint: Any  # exposes .pagetable (the checkpointed PageTable)
    policy: Any  # tiering policy (see repro.tiering)
    #: Whether mapped checkpoint frames are refcounted on the fabric
    #: (True for CXL-resident checkpoints; False for Mitosis, whose
    #: "checkpoint" lives in the parent node's private memory).
    holds_frame_refs: bool = True


class SegfaultError(RuntimeError):
    """Access violated VMA permissions (test aid; real code would SIGSEGV)."""


class NodeFailedError(RuntimeError):
    """An operation targeted a crashed node, or state lost with one."""


class Kernel:
    """The OS instance of one compute node."""

    def __init__(
        self,
        node: "ComputeNode",
        fault_costs: Optional[FaultCostModel] = None,
    ) -> None:
        self.node = node
        self.fault_costs = fault_costs or DEFAULT_FAULT_COSTS
        self._tasks: dict[int, Task] = {}

    # -- conveniences -----------------------------------------------------------

    @property
    def clock(self):
        return self.node.clock

    @property
    def latency(self):
        return self.node.fabric.latency

    @property
    def log(self):
        return self.node.log

    def fault_cost(self, kind: FaultKind, **kw) -> float:
        return self.fault_costs.cost_ns(kind, self.latency, **kw)

    def tasks(self) -> list[Task]:
        return list(self._tasks.values())

    def _check_alive(self) -> None:
        """Raise :class:`NodeFailedError` if this kernel's node has crashed.

        Every public entry point calls this — except :meth:`exit_task`,
        which must keep working on a crashed node because ``node.fail()``
        itself uses it and pod janitors tear down dead nodes' tasks.
        """
        if getattr(self.node, "failed", False):
            raise NodeFailedError(f"node {self.node.name!r} has failed")

    # -- process lifecycle --------------------------------------------------------

    def spawn_task(self, comm: str, *, container=None) -> Task:
        """Create a fresh task (an execve'd process with an empty mm)."""
        self._check_alive()
        namespaces = container.namespaces if container is not None else None
        cgroup = container.cgroup if container is not None else None
        from repro.os.proc.namespaces import NamespaceSet

        ns = namespaces if namespaces is not None else NamespaceSet()
        task = Task(
            comm=comm,
            kernel=self,
            pid=ns.pid.alloc_pid(),
            namespaces=ns,
            cgroup=cgroup,
        )
        self._tasks[task.tid] = task
        TRACE.count("kernel.task_spawn")
        return task

    def exit_task(self, task: Task) -> None:
        """Tear down a task: unmap everything, drop all frame references."""
        if task.state is TaskState.DEAD:
            raise RuntimeError(f"double exit of {task}")
        local_chunks: list[np.ndarray] = []
        cxl_chunks: list[np.ndarray] = []
        for _, leaf in task.mm.pagetable.leaves():
            present = ptes_flag_mask(leaf.ptes, PteFlags.PRESENT)
            if leaf.cxl_resident:
                # Attached checkpoint leaf: we hold refs on its CXL frames
                # (taken at attach time) but the leaf contents are not ours.
                frames = (leaf.ptes[present] >> PTE_FRAME_SHIFT).astype(np.int64)
                if frames.size:
                    cxl_chunks.append(frames)
                continue
            frames = (leaf.ptes[present] >> PTE_FRAME_SHIFT).astype(np.int64)
            if frames.size == 0:
                continue
            on_cxl = ptes_flag_mask(leaf.ptes[present], PteFlags.CXL)
            if np.any(on_cxl):
                cxl_chunks.append(frames[on_cxl])
            local = frames[~on_cxl]
            if local.size:
                local_chunks.append(local)
        backing = task.mm.ckpt_backing
        holds_refs = backing is None or backing.holds_frame_refs
        if cxl_chunks and holds_refs:
            self.node.fabric.put_frames(np.concatenate(cxl_chunks))
        if local_chunks:
            self.node.dram.put(np.concatenate(local_chunks))
        # Drop leaf references (attached checkpoint leaves stay alive for
        # other sharers; private leaves are garbage collected with the task).
        for leaf_index in list(task.mm.pagetable.leaf_indices()):
            task.mm.pagetable.detach_leaf(leaf_index)
        task.mm.vmas.detach_all()
        if task.cgroup is not None:
            task.cgroup.uncharge(task.mm.owned_local_pages * PAGE_SIZE)
        task.mm.owned_local_pages = 0
        task.state = TaskState.DEAD
        self._tasks.pop(task.tid, None)
        TRACE.count("kernel.task_exit")

    # -- memory population (cold-start construction) ----------------------------------

    def alloc_local_frames(
        self, mm: MemoryDescriptor, count: int, *, task: Optional[Task] = None
    ) -> np.ndarray:
        """Allocate local frames on behalf of an address space.

        Charges the pages to the process's owned-memory accounting (the
        Fig. 7b metric) and, when the owning task runs inside a cgroup with
        a memory limit, to that cgroup — raising
        :class:`~repro.cxl.allocator.OutOfMemoryError` on limit breach,
        like the kernel's memcg charge path.
        """
        self._check_alive()
        owner = task if task is not None else self._task_of(mm)
        if owner is not None and owner.cgroup is not None:
            if not owner.cgroup.charge(count * PAGE_SIZE):
                from repro.cxl.allocator import OutOfMemoryError

                raise OutOfMemoryError(self.node.dram, count)
        frames = self.node.dram.alloc_many(count)
        mm.owned_local_pages += count
        return frames

    def _task_of(self, mm: MemoryDescriptor) -> Optional[Task]:
        for task in self._tasks.values():
            if task.mm is mm:
                return task
        return None

    # Backwards-compatible internal alias.
    _alloc_local = alloc_local_frames

    def map_anon_region(
        self,
        task: Task,
        npages: int,
        *,
        label: str = "",
        populate: bool = True,
        flags: int = int(
            PteFlags.PRESENT
            | PteFlags.WRITE
            | PteFlags.USER
            | PteFlags.ACCESSED
            | PteFlags.DIRTY
        ),
    ) -> Vma:
        """mmap an anonymous RW region, optionally populating it eagerly.

        Population models a function writing its state during init; the time
        for that is part of the function's measured init latency, so no
        fault costs are charged here.
        """
        self._check_alive()
        vma = task.mm.add_vma(
            npages, VmaPerms.READ | VmaPerms.WRITE, kind=VmaKind.ANON, label=label
        )
        if populate:
            frames = self._alloc_local(task.mm, npages)
            task.mm.pagetable.map_range(vma.start_vpn, frames, flags)
        return vma

    def map_file_region(
        self,
        task: Task,
        path: str,
        npages: int,
        *,
        writable: bool = False,
        label: str = "",
        populate: bool = True,
    ) -> Vma:
        """mmap a private file-backed region (library/runtime image)."""
        self._check_alive()
        perms = VmaPerms.READ | (VmaPerms.WRITE if writable else VmaPerms.NONE)
        self.node.rootfs.ensure(path, size_bytes=npages * PAGE_SIZE)
        vma = task.mm.add_vma(
            npages,
            perms,
            kind=VmaKind.FILE_PRIVATE,
            path=path,
            label=label or f"map:{path}",
        )
        if populate:
            _, frames = self.node.pagecache.ensure_range(path, 0, npages)
            self.node.dram.get(frames)  # the mapping's reference
            flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
            if writable:
                flags |= PteFlags.COW  # private file: first write copies
            task.mm.pagetable.map_range(vma.start_vpn, frames, int(flags))
        return vma

    # -- address-space syscalls -------------------------------------------------------

    #: Handler cost of an mprotect/munmap call (excluding leaf copies).
    MPROTECT_BASE_NS = 1_500.0
    MUNMAP_BASE_NS = 1_800.0

    def mprotect(
        self, task: Task, start_vpn: int, npages: int, perms: "VmaPerms"
    ) -> FaultStats:
        """Change protections on a whole-VMA-aligned range.

        Splits the VMA as needed, rewrites PTE permission bits, and — when
        the affected VMA/PTE leaves are checkpoint-attached — privatizes
        them first (the §4.2.1 lazy-copy path, reached from the OS API
        rather than a fault).
        """
        self._check_alive()
        stats = FaultStats()
        mm = task.mm
        vma = mm.vmas.find(start_vpn)
        if vma is None or start_vpn + npages > vma.end_vpn:
            raise SegfaultError(f"mprotect outside a VMA at vpn {start_vpn}")
        pos, _ = mm.vmas.find_leaf(start_vpn)
        leaf, copied = mm.vmas.privatize_leaf(pos)
        if copied:
            stats.add(
                FaultKind.VMA_LEAF_COW, 1, self.fault_cost(FaultKind.VMA_LEAF_COW)
            )
        from dataclasses import replace as dc_replace

        pieces = []
        target = vma
        if start_vpn > vma.start_vpn:
            head, target = target.split_at(start_vpn)
            pieces.append(head)
        if start_vpn + npages < target.end_vpn:
            target, tail = target.split_at(start_vpn + npages)
            pieces.append(tail)
        changed = dc_replace(target, perms=perms)
        mm.vmas.remove(vma)
        for piece in pieces + [changed]:
            mm.vmas.insert(piece)

        # Rewrite hardware write permission on present PTEs.
        writable = bool(perms & VmaPerms.WRITE)
        flips = 0
        for pleaf, leaf_index, sl, _ in mm.pagetable.iter_existing_range(
            start_vpn, npages
        ):
            window = pleaf.ptes[sl]
            present = (window & _PRESENT) != 0
            if not present.any():
                continue
            if pleaf.shared:
                pleaf = self._privatize_pte_leaf(task, leaf_index, stats)
                window = pleaf.ptes[sl]
                present = (window & _PRESENT) != 0
            if writable:
                # Writable again: CoW-marked pages stay CoW (they are
                # shared); only plainly read-only private pages regain W.
                mask = present & ((window & _COW) == 0) & ((window & _WRITE) == 0)
                window[mask] |= _WRITE
            else:
                mask = present & ((window & _WRITE) != 0)
                window[mask] &= ~_WRITE
            flips += int(mask.sum())
        if flips:
            stats.add_cost(self.fault_costs.tlb.shootdown_cost_ns(flips, batched=True))
        stats.add_cost(self.MPROTECT_BASE_NS)
        self.clock.advance(stats.cost_ns)
        return stats

    def munmap(self, task: Task, vma: Vma) -> FaultStats:
        """Unmap a whole VMA, releasing its frames."""
        self._check_alive()
        stats = FaultStats()
        mm = task.mm
        found = mm.vmas.find_leaf(vma.start_vpn)
        if found is None:
            raise SegfaultError(f"munmap of unmapped VMA at vpn {vma.start_vpn}")
        pos, _ = found
        leaf, copied = mm.vmas.privatize_leaf(pos)
        if copied:
            stats.add(
                FaultKind.VMA_LEAF_COW, 1, self.fault_cost(FaultKind.VMA_LEAF_COW)
            )
        current = mm.vmas.find(vma.start_vpn)
        mm.vmas.remove(current)

        backing = mm.ckpt_backing
        holds = backing is None or backing.holds_frame_refs
        unmapped = 0
        local_unmapped = 0
        for pleaf, leaf_index, sl, _ in mm.pagetable.iter_existing_range(
            current.start_vpn, current.npages
        ):
            window = pleaf.ptes[sl]
            present = (window & _PRESENT) != 0
            if not present.any():
                continue
            if pleaf.shared:
                pleaf = self._privatize_pte_leaf(task, leaf_index, stats)
                window = pleaf.ptes[sl]
                present = (window & _PRESENT) != 0
            frames = (window[present] >> PTE_FRAME_SHIFT).astype(np.int64)
            on_cxl = (window[present] & _CXL) != 0
            if on_cxl.any() and holds:
                self.node.fabric.put_frames(frames[on_cxl])
            local = frames[~on_cxl]
            if local.size:
                self.node.dram.put(local)
                local_unmapped += int(local.size)
            unmapped += int(present.sum())
            window[present] = 0
        if unmapped:
            stats.add_cost(
                self.fault_costs.tlb.shootdown_cost_ns(unmapped, batched=True)
            )
            # Approximation: page-cache frames among the unmapped local
            # pages were never "owned", but the split is not tracked per
            # page; clamping keeps the accounting sane.
            released = min(mm.owned_local_pages, local_unmapped)
            mm.owned_local_pages -= released
            if task.cgroup is not None:
                task.cgroup.uncharge(released * PAGE_SIZE)
        stats.add_cost(self.MUNMAP_BASE_NS)
        self.clock.advance(stats.cost_ns)
        return stats

    # -- local fork -----------------------------------------------------------------

    #: Handler cost of duplicating one VMA struct during fork.
    FORK_PER_VMA_NS = 300.0
    #: Handler cost per page-table leaf beyond the data copy itself.
    FORK_PER_LEAF_NS = 150.0

    def local_fork(
        self, parent: Task, *, lazy_file_pages: bool = True
    ) -> tuple[Task, FaultStats]:
        """Fork: duplicate the address space with CoW sharing.

        ``lazy_file_pages`` models the zygote-style local fork the paper
        compares against (§7.1): clean private file mappings (libraries) are
        *not* carried into the child, which repopulates them lazily from the
        page cache on first touch.
        """
        self._check_alive()
        if parent.state is TaskState.DEAD:
            raise RuntimeError(f"cannot fork dead task {parent.comm!r}")
        stats = FaultStats()
        child = Task(
            comm=parent.comm,
            kernel=self,
            pid=parent.namespaces.pid.alloc_pid(),
            regs=parent.regs.copy(),
            fdtable=parent.fdtable.copy(),
            namespaces=parent.namespaces,
            cgroup=parent.cgroup,
            parent=parent,
        )
        self._tasks[child.tid] = child
        child.mm.ckpt_backing = parent.mm.ckpt_backing

        # Duplicate the VMA tree (child gets private copies of every leaf).
        vma_count = 0
        for leaf in parent.mm.vmas.leaves():
            child.mm.vmas.attach_leaf(leaf)
        for pos in range(child.mm.vmas.leaf_count):
            child.mm.vmas.privatize_leaf(pos)
        for vma in child.mm.vmas:
            child.mm.note_range_used(vma.start_vpn, vma.npages)
            vma_count += 1
        stats.add_cost(vma_count * self.FORK_PER_VMA_NS)

        # Duplicate page tables: copy each leaf, write-protect writable
        # anon pages on both sides (CoW), and take mapping references.
        leaf_copy_ns = self.latency.page_copy_ns(src_cxl=False, dst_cxl=False)
        shootdowns = 0
        for leaf_index, pleaf in list(parent.mm.pagetable.leaves()):
            if pleaf.shared:
                pleaf, copied = parent.mm.pagetable.privatize_leaf(leaf_index)
                if copied:
                    stats.add(FaultKind.PTE_LEAF_COW, 1, self.fault_cost(FaultKind.PTE_LEAF_COW))
            ptes = pleaf.ptes
            present = (ptes & _PRESENT) != 0
            writable = present & ((ptes & _WRITE) != 0)
            if np.any(writable):
                ptes[writable] = (ptes[writable] & ~_WRITE) | _COW
                shootdowns += int(np.count_nonzero(writable))
            child_ptes = ptes.copy()
            if lazy_file_pages:
                # Clean, read-only, non-CoW, non-CXL mappings are private
                # file pages: drop them from the child.
                file_clean = (
                    present
                    & ((ptes & _WRITE) == 0)
                    & ((ptes & _COW) == 0)
                    & ((ptes & _DIRTY) == 0)
                    & ((ptes & _CXL) == 0)
                )
                child_ptes[file_clean] = 0
            child.mm.pagetable.install_leaf(leaf_index, PteLeaf(child_ptes))
            child_present = (child_ptes & _PRESENT) != 0
            frames = (child_ptes[child_present] >> PTE_FRAME_SHIFT).astype(np.int64)
            if frames.size:
                on_cxl = ptes_flag_mask(child_ptes[child_present], PteFlags.CXL)
                backing = parent.mm.ckpt_backing
                holds = backing is None or backing.holds_frame_refs
                if np.any(on_cxl) and holds:
                    self.node.fabric.get_frames(frames[on_cxl])
                local = frames[~on_cxl]
                if local.size:
                    self.node.dram.get(local)
            stats.add_cost(leaf_copy_ns + self.FORK_PER_LEAF_NS)
        if shootdowns:
            stats.add_cost(self.fault_costs.tlb.shootdown_cost_ns(shootdowns, batched=True))
        self.clock.advance(stats.cost_ns)
        if TRACE.enabled:
            TRACE.add_span(
                "kernel.local_fork",
                self.clock.now - int(round(stats.cost_ns)),
                stats.cost_ns,
                clock=self.clock,
                parent=parent.pid,
                child=child.pid,
            )
            TRACE.count("kernel.forks")
        self.log.emit(self.clock.now, "local_fork", parent=parent.pid, child=child.pid)
        return child, stats

    # -- the fault path ----------------------------------------------------------------

    def handle_fault(self, task: Task, vpn: int, *, write: bool) -> FaultStats:
        """Resolve a single access (test/fidelity path)."""
        return self.access_range(task, vpn, 1, write=write)

    def access_range(
        self,
        task: Task,
        start_vpn: int,
        npages: int,
        *,
        write: bool,
        touched_mask: Optional[np.ndarray] = None,
    ) -> FaultStats:
        """Touch ``[start_vpn, start_vpn+npages)``, resolving faults.

        ``touched_mask`` restricts the touch to a subset of the range (the
        invocation engine samples working sets).  The range must lie within
        one VMA.  Returns the fault statistics; virtual time is advanced.
        This is the one-segment case of :meth:`access_segments`.
        """
        return self.access_segments(
            task, ((start_vpn, npages, write, touched_mask),)
        )[0]

    def access_segments(self, task: Task, segments) -> list[FaultStats]:
        """Touch several ranges of one address space in one pass.

        ``segments`` is a sequence of ``(start_vpn, npages, write, mask)``
        tuples, each with :meth:`access_range`'s meaning (``mask`` may be
        None: every page touched).  Returns one :class:`FaultStats` per
        segment, and every observable effect — PTE and A/D-bit writes,
        frame allocation, leaf privatization, clock advances, errors — is
        that of calling :meth:`access_range` on each segment in order.

        Ascending, disjoint segments (one invocation's working set) take
        the batched path: the touched vpns are built once, each touched
        PTE leaf is read once, and a leaf whose touched pages are all warm
        (present, and not CoW for writes) gets its A/D bits and placement
        tallies as array ops.  A leaf with any fault runs its chunks
        through :meth:`_access_chunk` in vpn order, so the batch replays
        the per-segment sequence exactly.  Any other input, or a clock
        with an alarm armed (which even a zero advance can fire), goes
        segment by segment.
        """
        if not segments:
            return []
        if len(segments) > 1:
            ordered = all(
                a[0] + a[1] <= b[0] for a, b in zip(segments, segments[1:])
            )
            if not ordered or self.clock.alarms_armed:
                return [self.access_segments(task, (seg,))[0] for seg in segments]
        self._check_alive()
        found = task.mm.vmas.find_ascending([seg[0] for seg in segments])
        error = None
        valid = 0
        for (start, npages, write, _mask), vma in zip(segments, found):
            if vma is None or start + npages > vma.end_vpn:
                error = SegfaultError(
                    f"{task.comm}/{task.pid}: access outside VMA at vpn {start}"
                )
                break
            if write and not (vma.perms & VmaPerms.WRITE):
                error = SegfaultError(
                    f"{task.comm}/{task.pid}: write to read-only VMA at vpn {start}"
                )
                break
            valid += 1
        # The segments before a bad one still run, as they would have as
        # separate calls.
        stats = self._touch_segments(task, segments[:valid])
        if error is not None:
            raise error
        return stats

    def _touch_segments(self, task: Task, segments) -> list[FaultStats]:
        """The batched body of :meth:`access_segments` (validated input)."""
        n_seg = len(segments)
        stats = [FaultStats() for _ in range(n_seg)]
        vpns, seg_of, masks = _touched_pages(segments)
        if not vpns.size:
            self._settle(stats, 0, n_seg)
            return stats
        pagetable = task.mm.pagetable
        leaf_of = vpns >> LEAF_SHIFT
        starts = np.flatnonzero(np.diff(leaf_of, prepend=-1))  # first page per leaf
        bounds = [*starts.tolist(), int(vpns.size)]
        leaf_ids = leaf_of[starts].tolist()
        offs = vpns & (PTES_PER_LEAF - 1)

        # One read of every touched PTE; a missing leaf reads as zeros (not
        # present), so it takes the fault path below, which creates it.
        # Leaves with no touched page are never created: empty leaves would
        # inflate local_table_pages() for sparse working sets.
        leaves = [pagetable.leaf_or_none(i) for i in leaf_ids]
        ptes = np.zeros(vpns.size, dtype=np.int64)
        for leaf, a, b in zip(leaves, bounds, bounds[1:]):
            if leaf is not None:
                ptes[a:b] = leaf.ptes[offs[a:b]]
        writes = np.fromiter(
            (seg[2] for seg in segments), dtype=bool, count=n_seg
        )[seg_of]
        cold = (ptes & _PRESENT) == 0
        cold |= writes & ((ptes & _COW) != 0)
        leaf_cold = np.logical_or.reduceat(cold, starts)

        # Warm pages: A on every touched page, D where a write meets a
        # hardware-writable PTE; placement is unchanged, so the tallies
        # come straight from the read.
        updated = ptes | _ACCESSED
        dirty = writes & ((ptes & _WRITE) != 0)
        np.bitwise_or(updated, _DIRTY, out=updated, where=dirty)
        on_cxl = (ptes & _CXL) != 0
        warm_seg = seg_of
        if leaf_cold.any():
            warm_page = np.repeat(~leaf_cold, np.diff(bounds))
            warm_seg = seg_of[warm_page]
            on_cxl &= warm_page
        n_warm = np.bincount(warm_seg, minlength=n_seg)
        n_cxl = np.bincount(seg_of[on_cxl], minlength=n_seg)
        for st, w, c in zip(stats, n_warm.tolist(), n_cxl.tolist()):
            st.touched_cxl = c
            st.touched_local = w - c

        # Only fault leaves and warm leaves whose bits change need a visit.
        changed = np.logical_or.reduceat(updated != ptes, starts)
        visit = np.flatnonzero(leaf_cold | changed).tolist()
        leaf_cold = leaf_cold.tolist()
        settled = 0
        seg_vmas: list[Optional[Vma]] = [None] * n_seg
        for i in visit:
            a, b = bounds[i], bounds[i + 1]
            leaf_index = leaf_ids[i]
            if not leaf_cold[i]:
                leaves[i].ptes[offs[a:b]] = updated[a:b]
                continue
            # A leaf with a fault: its chunks run one segment at a time,
            # as the per-segment loop ran them.
            ks, counts = np.unique(seg_of[a:b], return_counts=True)
            base = leaf_index << LEAF_SHIFT
            for k, n_sub in zip(ks.tolist(), counts.tolist()):
                self._settle(stats, settled, k)
                settled = k
                start, npages, write, _ = segments[k]
                vpn0 = max(start, base)
                vpn1 = min(start + npages, base + PTES_PER_LEAF)
                mask = masks[k]
                sub = None if mask is None else mask[vpn0 - start : vpn1 - start]
                # The VMA is looked up when its segment first faults: an
                # earlier fault may have replaced it (file registration).
                vma = seg_vmas[k]
                if vma is None:
                    vma = seg_vmas[k] = task.mm.vmas.find(start)
                leaf = pagetable.leaf_or_none(leaf_index)
                if leaf is None:
                    leaf = pagetable.ensure_leaf(leaf_index)
                lo = vpn0 - base
                self._access_chunk(
                    task, vma, leaf, leaf_index, slice(lo, lo + vpn1 - vpn0),
                    vpn0, sub, n_sub, write, stats[k],
                )
        self._settle(stats, settled, n_seg)
        return stats

    def _settle(self, stats: list[FaultStats], lo: int, hi: int) -> None:
        """Advance the clock for segments ``[lo, hi)``, in order.

        A zero-cost segment skips its advance unless an alarm is armed:
        with none armed, ``advance(0)`` changes nothing.
        """
        clock = self.clock
        armed = clock.alarms_armed
        for st in stats[lo:hi]:
            if st.cost_ns or armed:
                clock.advance(st.cost_ns)
                armed = clock.alarms_armed
            if TRACE.enabled and st.counts:
                for kind, n in st.counts.items():
                    TRACE.count(f"kernel.fault.{kind.value}", n)
                TRACE.observe("kernel.fault_batch_cost_ns", st.cost_ns)

    def _privatize_pte_leaf(
        self, task: Task, leaf_index: int, stats: FaultStats
    ) -> PteLeaf:
        leaf, copied = task.mm.pagetable.privatize_leaf(leaf_index)
        if copied:
            stats.add(FaultKind.PTE_LEAF_COW, 1, self.fault_cost(FaultKind.PTE_LEAF_COW))
        return leaf

    def _register_vma_files(self, task: Task, vma: Vma, stats: FaultStats) -> Vma:
        """Lazily privatize the VMA leaf and register file callbacks (§4.2)."""
        found = task.mm.vmas.find_leaf(vma.start_vpn)
        if found is None:  # pragma: no cover - defensive
            raise SegfaultError(f"VMA vanished at vpn {vma.start_vpn}")
        pos, _ = found
        leaf, _copied = task.mm.vmas.privatize_leaf(pos)
        to_register = [
            v for v in leaf.vmas if v.is_file_backed() and not v.file_registered
        ]
        stats.add(
            FaultKind.VMA_LEAF_COW,
            1,
            self.fault_cost(FaultKind.VMA_LEAF_COW, file_vmas_to_register=len(to_register)),
        )
        replacement = None
        from dataclasses import replace as dc_replace

        for v in to_register:
            new = dc_replace(v, file_registered=True)
            task.mm.vmas.replace_vma(pos, v, new)
            if v == vma:
                replacement = new
        return replacement if replacement is not None else vma

    def _access_chunk(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        leaf_index: int,
        sl: slice,
        vpn0: int,
        sub: Optional[np.ndarray],
        n_touched: int,
        write: bool,
        stats: FaultStats,
    ) -> None:
        """Resolve the touched pages of one PTE-leaf chunk.

        ``sub`` is either a normalized boolean mask (guaranteed non-empty by
        the caller) or ``None`` meaning every page in the chunk is touched —
        the fast path skips materializing an all-ones mask entirely.
        ``n_touched`` is the caller's already-reduced count of ``sub``
        (or the chunk length when ``sub`` is ``None``).

        One classification pass: every per-kind selector (present / CoW /
        demand) derives from a single read of the chunk's PTEs, counts are
        reduced once and reused for dispatch and accounting, and the
        not-present mask only materializes when a demand fault exists.  The
        warm case (all touched pages present, nothing to CoW) runs with two
        reductions and no intermediate mask allocations beyond ``present``.
        """
        ptes = leaf.ptes[sl]
        if sub is None:
            # count_nonzero on the masked ints skips the boolean conversion.
            n_tp = int(np.count_nonzero(ptes & _PRESENT))
            n_np = n_touched - n_tp
            # Everything present: masks degenerate to whole-slice ops, so no
            # boolean selector ever materializes (the warm re-access case
            # that dominates steady-state invocations).
            fast = n_np == 0
            present = touched_present = None
        else:
            present = (ptes & _PRESENT) != 0
            touched_present = sub & present
            n_tp = int(np.count_nonzero(touched_present))
            n_np = n_touched - n_tp
            fast = False
        if write and n_tp:
            if fast:
                cow_hits = (ptes & _COW) != 0
            else:
                if touched_present is None:
                    present = (ptes & _PRESENT) != 0
                    touched_present = present
                cow_hits = touched_present & ((ptes & _COW) != 0)
            n_cow = int(np.count_nonzero(cow_hits))
        else:
            cow_hits = None
            n_cow = 0

        if (n_np or n_cow) and leaf.shared:
            leaf = self._privatize_pte_leaf(task, leaf_index, stats)
            ptes = leaf.ptes[sl]

        # Hardware A/D updates happen regardless of faulting (and are legal
        # on shared leaves — this is the §4.3 harvesting channel).
        if n_tp:
            if fast:
                np.bitwise_or(ptes, _ACCESSED, out=ptes)
                if write:
                    hw_writable = (ptes & _WRITE) != 0
                    n_hw = int(np.count_nonzero(hw_writable))
                    if n_hw == n_touched:
                        np.bitwise_or(ptes, _DIRTY, out=ptes)
                    elif n_hw:
                        ptes[hw_writable] |= _DIRTY
            else:
                if touched_present is None:
                    present = (ptes & _PRESENT) != 0
                    touched_present = present
                ptes[touched_present] |= _ACCESSED
                if write:
                    hw_writable = touched_present & ((ptes & _WRITE) != 0)
                    if hw_writable.any():
                        ptes[hw_writable] |= _DIRTY

        if n_cow:
            self._do_cow(task, leaf, sl, cow_hits, stats, total=n_cow)

        if n_np:
            if present is None:
                present = (ptes & _PRESENT) != 0
            not_present = ~present if sub is None else sub & ~present
            self._do_not_present(task, vma, leaf, sl, vpn0, not_present, write, stats)

        # Final placement tally for the touched pages of this chunk.
        if n_cow or n_np:
            # Faults rewrote PTEs; re-derive placement from the final state.
            final = leaf.ptes[sl] if sub is None else leaf.ptes[sl][sub]
            n_cxl = int(np.count_nonzero(final & _CXL))
        elif fast:
            n_cxl = int(np.count_nonzero(ptes & _CXL))
        else:
            # Warm path: A/D updates never change placement, so the initial
            # read's classification stands (non-present touches are zero
            # PTEs, which count as local exactly like before).
            n_cxl = int(np.count_nonzero(touched_present & ((ptes & _CXL) != 0)))
        stats.touched_cxl += n_cxl
        stats.touched_local += n_touched - n_cxl

    # -- CoW ------------------------------------------------------------------------

    def _do_cow(
        self,
        task: Task,
        leaf: PteLeaf,
        sl: slice,
        cow_mask: np.ndarray,
        stats: FaultStats,
        total: Optional[int] = None,
    ) -> None:
        """CoW-resolve the ``cow_mask`` pages of one chunk.

        ``total`` optionally carries the caller's already-reduced count of
        ``cow_mask`` so the classification pass is not repeated.  The
        CXL/local split reduces once over the compacted selection instead
        of materializing full-width on-CXL / on-local masks.
        """
        mm = task.mm
        ptes = leaf.ptes[sl]
        if total is None:
            total = int(np.count_nonzero(cow_mask))
        old = ptes[cow_mask]
        old_frames = (old >> PTE_FRAME_SHIFT).astype(np.int64)
        old_is_cxl = (old & _CXL) != 0
        any_old_cxl = bool(old_is_cxl.any())
        if RAS.active():
            # The CoW read is the other hot path that copies checkpoint
            # bytes (eagerly mapped pages never demand-fault): the private
            # copy of a poisoned frame must not be served.  Checked before
            # any PTE/refcount mutation so a detection leaves no half-done
            # fault; has_poison keeps the clean-pool cost at one read.
            pool = self.node.fabric.device.frames
            if pool.has_poison and any_old_cxl:
                verify_frames(pool, old_frames[old_is_cxl], context="cow-fault")
        new_frames = self._alloc_local(mm, total)
        new_flags = (
            PteFlags.PRESENT
            | PteFlags.WRITE
            | PteFlags.USER
            | PteFlags.ACCESSED
            | PteFlags.DIRTY
        )
        ptes[cow_mask] = make_ptes(new_frames, int(new_flags))
        # Drop the mapping references on the source pages.
        backing = mm.ckpt_backing
        holds = backing is None or backing.holds_frame_refs
        if any_old_cxl and holds:
            self.node.fabric.put_frames(old_frames[old_is_cxl])
        local_old = old_frames[~old_is_cxl]
        if local_old.size:
            self.node.dram.put(local_old)
        n_cxl = int(np.count_nonzero(old_is_cxl))
        n_local = total - n_cxl
        stats.add(FaultKind.COW_CXL, n_cxl, self.fault_cost(FaultKind.COW_CXL))
        stats.add(FaultKind.COW_LOCAL, n_local, self.fault_cost(FaultKind.COW_LOCAL))

    # -- non-present resolution --------------------------------------------------------

    def _do_not_present(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        vpn0: int,
        np_mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        mm = task.mm
        backing = mm.ckpt_backing
        remaining = np_mask.copy()
        if backing is not None:
            ckpt_pt: PageTable = backing.checkpoint.pagetable
            # The chunk is exactly one leaf slice, so read the checkpointed
            # leaf's PTEs directly (a view) instead of paying gather_ptes'
            # per-chunk allocation + copy; _fault_from_checkpoint only
            # reads them.
            ckpt_leaf = ckpt_pt.leaf_or_none(vpn0 >> LEAF_SHIFT)
            if ckpt_leaf is not None:
                ckpt_ptes = ckpt_leaf.ptes[sl]
                covered = remaining & ((ckpt_ptes & _PRESENT) != 0)
                if np.any(covered):
                    self._fault_from_checkpoint(
                        task, vma, leaf, sl, covered, ckpt_ptes, write, backing, stats
                    )
                    remaining &= ~covered
        if not np.any(remaining):
            return
        if vma.kind is VmaKind.ANON:
            self._fault_anon(task, leaf, sl, remaining, write, stats)
            return
        if vma.kind is VmaKind.FILE_PRIVATE:
            if not vma.file_registered:
                vma = self._register_vma_files(task, vma, stats)
            self._fault_file(task, vma, leaf, sl, vpn0, remaining, write, stats)
            return
        raise SegfaultError(f"unsupported VMA kind for faulting: {vma.kind}")

    def _fault_anon(
        self,
        task: Task,
        leaf: PteLeaf,
        sl: slice,
        mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        mm = task.mm
        count = int(np.count_nonzero(mask))
        frames = self._alloc_local(mm, count)
        flags = PteFlags.PRESENT | PteFlags.WRITE | PteFlags.USER | PteFlags.ACCESSED
        if write:
            flags |= PteFlags.DIRTY
        leaf.ptes[sl][mask] = make_ptes(frames, int(flags))
        stats.add(FaultKind.ANON_ZERO, count, self.fault_cost(FaultKind.ANON_ZERO))

    def _fault_file(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        vpn0: int,
        mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        mm = task.mm
        idx = np.nonzero(mask)[0]
        vpns = vpn0 + idx
        file_pages = vma.file_offset_pages + (vpns - vma.start_vpn)
        newly, frames = self.node.pagecache.ensure_pages(vma.path, file_pages)
        self.node.dram.get(frames)  # mapping references
        mm.owned_local_pages += newly
        flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
        if vma.perms & VmaPerms.WRITE:
            flags |= PteFlags.COW
        leaf.ptes[sl][mask] = make_ptes(frames, int(flags))
        minor = len(idx) - newly
        stats.add(FaultKind.FILE_MAJOR, newly, self.fault_cost(FaultKind.FILE_MAJOR))
        stats.add(FaultKind.FILE_MINOR, minor, self.fault_cost(FaultKind.FILE_MINOR))
        if write:
            # Private file write: the fresh mapping is COW; copy immediately.
            sub = np.zeros_like(mask)
            sub[idx] = True
            self._do_cow(task, leaf, sl, sub, stats)

    def _fault_from_checkpoint(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        mask: np.ndarray,
        ckpt_ptes: np.ndarray,
        write: bool,
        backing: CheckpointBacking,
        stats: FaultStats,
    ) -> None:
        """MoA / hybrid-tiering resolution of checkpoint-covered pages."""
        if RAS.active():
            # Hot-path integrity check: a demand fault about to read (copy)
            # or map checkpoint frames must not touch poisoned ones.  The
            # has_poison guard keeps the clean-pool cost at one attribute
            # read, so checked runs stay digest-identical.
            pool = self.node.fabric.device.frames
            if pool.has_poison:
                src = (ckpt_ptes[mask] >> PTE_FRAME_SHIFT).astype(np.int64)
                verify_frames(pool, src, context="demand-fault")
        mm = task.mm
        policy = backing.policy
        a_bits = (ckpt_ptes & _ACCESSED) != 0
        hot_bits = (ckpt_ptes & np.int64(int(PteFlags.HOT))) != 0
        if write:
            copy_mask = mask.copy()
        else:
            copy_mask = mask & policy.select_copy_on_read(a_bits, hot_bits)
        map_mask = mask & ~copy_mask

        if np.any(copy_mask):
            count = int(np.count_nonzero(copy_mask))
            frames = self._alloc_local(mm, count)
            # The private copy is hardware-writable only in a writable VMA;
            # copies of read-only mappings (library images under MoA or
            # Mitosis) must stay read-only like the mapping they realize.
            flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
            if vma.perms & VmaPerms.WRITE:
                flags |= PteFlags.WRITE
            if write:
                flags |= PteFlags.DIRTY
            leaf.ptes[sl][copy_mask] = make_ptes(frames, int(flags))
            kind = policy.copy_fault_kind
            stats.add(kind, count, self.fault_cost(kind))
        if np.any(map_mask):
            count = int(np.count_nonzero(map_mask))
            src_frames = (ckpt_ptes[map_mask] >> PTE_FRAME_SHIFT).astype(np.int64)
            flags = (
                PteFlags.PRESENT
                | PteFlags.USER
                | PteFlags.ACCESSED
                | PteFlags.COW
                | PteFlags.CXL
            )
            leaf.ptes[sl][map_mask] = make_ptes(src_frames, int(flags))
            if backing.holds_frame_refs:
                self.node.fabric.get_frames(src_frames)
            stats.add(FaultKind.CXL_MAP, count, self.fault_cost(FaultKind.CXL_MAP))


def _touched_pages(segments) -> tuple[np.ndarray, np.ndarray, list]:
    """The touched vpns of ascending, disjoint segments, in vpn order.

    Returns ``(vpns, seg_of, masks)``: ``seg_of[i]`` indexes the segment
    that touches ``vpns[i]``, and ``masks`` holds each segment's mask as a
    boolean array (None: the whole range).  Segments that share one mask
    object — the invocation engine's cached touch masks — share a single
    ``flatnonzero``, and one broadcast adds all their starts.
    """
    n_seg = len(segments)
    counts = np.zeros(n_seg, dtype=np.int64)
    seg_groups: list = []
    groups: dict = {}
    for k, (start, npages, _write, mask) in enumerate(segments):
        key = ("all", npages) if mask is None else id(mask)
        group = groups.get(key)
        if group is None:
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
            group = groups[key] = (mask, npages, [], [])
        if mask is not None and group[0].shape != (npages,):
            raise ValueError(
                f"touch mask of shape {group[0].shape} for {npages} pages"
            )
        group[2].append(k)
        group[3].append(start)
        seg_groups.append(group)
    masks = [group[0] for group in seg_groups]
    placed = []
    for mask, npages, ks, starts in groups.values():
        idx = np.arange(npages) if mask is None else np.flatnonzero(mask)
        ks = np.array(ks)
        counts[ks] = idx.size
        placed.append((idx, ks, np.array(starts, dtype=np.int64)))
    pos = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(counts, out=pos[1:])
    vpns = np.empty(int(pos[-1]), dtype=np.int64)
    seg_of = np.empty(vpns.size, dtype=np.intp)
    for idx, ks, starts in placed:
        if not idx.size:
            continue
        rows = (pos[ks][:, None] + np.arange(idx.size)).ravel()
        vpns[rows] = (starts[:, None] + idx).ravel()
        seg_of[rows] = np.repeat(ks, idx.size)
    return vpns, seg_of, masks


__all__ = [
    "Kernel",
    "FaultStats",
    "CheckpointBacking",
    "NodeFailedError",
    "SegfaultError",
]
