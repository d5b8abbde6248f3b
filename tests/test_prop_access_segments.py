"""Old-versus-new property: one batched kernel pass equals the per-segment loop.

``Kernel.access_segments`` touches one invocation's whole working set in a
single pass.  Its contract is that every observable effect is the one the
per-segment loop produced: per-segment ``FaultStats``, every PTE (the
task's own leaves and the checkpoint-owned leaves it attaches, whose A bits
a read may set), frame refcounts, owned-page accounting, the VMA tree's
file registrations, virtual time, alarm firing times and the first
``SegfaultError``.

The reference below is the per-segment ``access_range`` body the batched
pass replaced, kept here verbatim so the two can be compared on identical
worlds: each example builds the same pod twice (restored child of a CXLfork
checkpoint under a drawn tiering policy, with packed file VMAs sharing PTE
leaves, CoW pages, a writable file mapping, populated and never-touched
anonymous regions) and runs the reference on one and the batch on the
other.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cxl.bandwidth import BandwidthTracker
from repro.exceptions import PoisonError
from repro.experiments.common import make_pod, prepare_parent
from repro.faas.invocation import InvocationEngine, InvocationResult, touch_mask
from repro.faas.profiles import SegmentRole
from repro.os.kernel import FaultStats, SegfaultError
from repro.os.mm.pagetable import LEAF_SHIFT, PTES_PER_LEAF
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaPerms
from repro.ras import RAS
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import GIB, PAGE_SIZE
from repro.telemetry import TRACE
from repro.tiering.hybrid import HybridTiering
from repro.tiering.moa import MigrateOnAccess
from repro.tiering.mow import MigrateOnWrite

pytestmark = pytest.mark.prop

#: What a batch may raise part-way: a bad segment, or a poisoned
#: checkpoint frame met by a demand fault or a CoW copy (RAS on).
ACCESS_ERRORS = (SegfaultError, PoisonError)

POLICIES = {"mow": MigrateOnWrite, "moa": MigrateOnAccess, "hybrid": HybridTiering}


def reference_access_range(
    kernel, task, start_vpn, npages, *, write, touched_mask=None
) -> FaultStats:
    """The per-segment ``access_range`` body before the batched pass."""
    kernel._check_alive()
    vma = task.mm.vmas.find(start_vpn)
    if vma is None or start_vpn + npages > vma.end_vpn:
        raise SegfaultError(
            f"{task.comm}/{task.pid}: access outside VMA at vpn {start_vpn}"
        )
    if write and not (vma.perms & VmaPerms.WRITE):
        raise SegfaultError(
            f"{task.comm}/{task.pid}: write to read-only VMA at vpn {start_vpn}"
        )
    stats = FaultStats()
    mask = None
    if touched_mask is not None:
        mask = np.asarray(touched_mask, dtype=bool)
    pagetable = task.mm.pagetable
    offset = 0
    vpn = start_vpn
    end = start_vpn + npages
    while vpn < end:
        leaf_index = vpn >> LEAF_SHIFT
        lo = vpn & (PTES_PER_LEAF - 1)
        hi = min(PTES_PER_LEAF, lo + (end - vpn))
        chunk_len = hi - lo
        sub = None
        n_sub = chunk_len
        if mask is not None:
            sub = mask[offset : offset + chunk_len]
            n_sub = int(np.count_nonzero(sub))
        if n_sub:
            leaf = pagetable.leaf_or_none(leaf_index)
            if leaf is None:
                leaf = pagetable.ensure_leaf(leaf_index)
            kernel._access_chunk(
                task, vma, leaf, leaf_index, slice(lo, hi), vpn, sub,
                n_sub, write, stats,
            )
        offset += chunk_len
        vpn += chunk_len
    kernel.clock.advance(stats.cost_ns)
    if TRACE.enabled and stats.total_faults:
        for kind, n in stats.counts.items():
            TRACE.count(f"kernel.fault.{kind.value}", n)
        TRACE.observe("kernel.fault_batch_cost_ns", stats.cost_ns)
    return stats


class World:
    """A restored child with mixed page states, built deterministically."""

    def __init__(self, policy: str) -> None:
        self.pod = make_pod(dram_bytes=1 * GIB, cxl_bytes=1 * GIB)
        source, target = self.pod.nodes
        kernel = source.kernel
        parent = kernel.spawn_task("segprop")
        # Small read-only libraries packed into the first PTE leaf, so one
        # leaf holds several segments (two never populated).  The leaf
        # holds no dirty page, so a MoW restore leaves it attached.
        for i in range(5):
            kernel.map_file_region(parent, f"/lib/seg{i}.so", 40, populate=i % 3 != 1)
        # Never-touched padding across the leaf boundary, then a small
        # writable anon buffer and a writable private file mapping (CoW on
        # write) sharing the next leaf.
        kernel.map_anon_region(parent, 400, populate=False)
        kernel.map_anon_region(parent, 30)
        kernel.map_file_region(parent, "/lib/segrw.so", 50, writable=True)
        # Larger anon regions spanning leaves: one populated, one half
        # touched before the checkpoint, one never touched (missing leaves
        # in the child).
        kernel.map_anon_region(parent, 700)
        half = kernel.map_anon_region(parent, 600, populate=False)
        kernel.access_range(parent, half.start_vpn, 300, write=True)
        kernel.map_anon_region(parent, 400, populate=False)
        self.parent = parent
        mech = CxlFork()
        self.checkpoint, _ = mech.checkpoint(parent)
        self.kernel = target.kernel
        self.child = mech.restore(
            self.checkpoint, target, policy=POLICIES[policy]()
        ).task
        # A harvest epoch: clear the checkpoint's A bits so reads through
        # attached leaves leave visible marks.
        for _, leaf in self.checkpoint.pagetable.leaves():
            leaf.ptes &= ~np.int64(int(PteFlags.ACCESSED))
        self.vmas = list(self.child.mm.vmas)
        self.fired: list[int] = []

    def arm(self, offset_ns: int) -> None:
        clock = self.kernel.clock
        clock.at(clock.now + offset_ns, lambda: self.fired.append(clock.now))

    def observe(self) -> dict:
        """Everything an access may change, as comparable plain data."""

        def leaves(pagetable):
            return {i: leaf.ptes.tolist() for i, leaf in pagetable.leaves()}

        return {
            "child": leaves(self.child.mm.pagetable),
            "checkpoint": leaves(self.checkpoint.pagetable),
            "dram": self.kernel.node.dram.snapshot_refcounts(),
            "cxl": self.pod.fabric.device.frames.snapshot_refcounts(),
            "owned": self.child.mm.owned_local_pages,
            "vmas": [
                (v.start_vpn, v.npages, v.file_registered)
                for v in self.child.mm.vmas
            ],
            "now": self.kernel.clock.now,
            "fired": list(self.fired),
        }


def stats_tuple(stats: FaultStats) -> tuple:
    return (
        sorted((k.value, n) for k, n in stats.counts.items()),
        stats.cost_ns,
        stats.touched_local,
        stats.touched_cxl,
        stats.warmed,
    )


def materialize(world: World, specs) -> list:
    """Turn drawn segment specs into ``(start, npages, write, mask)``.

    Writes to read-only mappings are dropped to reads unless the spec is
    the drawn bad one.  Masks drawn with the same ``(npages, seed)`` are
    one shared object, like the invocation engine's cached touch masks.
    """
    masks: dict = {}
    segments = []
    for vma_i, lo, n, write, mask_seed, density, bad in specs:
        vma = world.vmas[vma_i]
        start = vma.start_vpn + lo
        n = min(n, vma.npages - lo)
        if bad == "outside":
            start, n = vma.end_vpn, 1  # the guard page after the mapping
        elif bad != "write":
            write = write and bool(vma.perms & VmaPerms.WRITE)
        mask = None
        if mask_seed is not None:
            key = (n, mask_seed, density)
            mask = masks.get(key)
            if mask is None:
                rng = np.random.default_rng(mask_seed)
                mask = masks[key] = rng.random(n) < density
        segments.append((start, n, write, mask))
    return segments


def run_reference(world: World, segments) -> tuple:
    out = []
    try:
        for start, n, write, mask in segments:
            out.append(stats_tuple(reference_access_range(
                world.kernel, world.child, start, n, write=write, touched_mask=mask
            )))
    except ACCESS_ERRORS as exc:
        return out, f"{type(exc).__name__}: {exc}"
    return out, None


def run_batched(world: World, segments) -> tuple:
    try:
        stats = world.kernel.access_segments(world.child, segments)
    except ACCESS_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return [stats_tuple(s) for s in stats], None


@st.composite
def batches(draw):
    policy = draw(st.sampled_from(sorted(POLICIES)))
    n_vmas = 11
    picks = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=n_vmas - 1), min_size=1, max_size=n_vmas
    )))
    # At most one bad segment: a write to a read-only mapping or a start
    # past the mapping, either of which raises SegfaultError there.
    bad_at = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(picks) - 1)))
    bad_kind = draw(st.sampled_from(["write", "outside"]))
    specs = []
    for i, vma_i in enumerate(picks):
        lo = draw(st.integers(min_value=0, max_value=25))
        n = draw(st.integers(min_value=1, max_value=700))
        write = draw(st.booleans())
        mask_seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
        density = draw(st.sampled_from([0.05, 0.5, 1.0]))
        bad = bad_kind if i == bad_at else None
        specs.append((vma_i, lo, n, write, mask_seed, density, bad))
    prelude = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_vmas - 1),
            st.integers(min_value=1, max_value=300),
            st.booleans(),
        ),
        max_size=3,
    ))
    alarm = draw(st.one_of(st.none(), st.sampled_from([0, 1, 3_000, 200_000])))
    poison = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=96)))
    return policy, prelude, specs, alarm, poison


def build_pair(policy: str, prelude, alarm: Optional[int], poison=None):
    """Two identical worlds after the same warm-up accesses."""
    worlds = []
    for _ in range(2):
        world = World(policy)
        for vma_i, n, write in prelude:
            vma = world.vmas[vma_i]
            write = write and bool(vma.perms & VmaPerms.WRITE)
            world.kernel.access_range(
                world.child, vma.start_vpn, min(n, vma.npages), write=write
            )
        # A harvest epoch after the warm-up, so a batch's A-bit writes
        # show on the child's leaves as well as on attached ones.
        for _, leaf in world.child.mm.pagetable.leaves():
            leaf.ptes &= ~np.int64(int(PteFlags.ACCESSED))
        if alarm is not None:
            world.arm(alarm)
        if poison is not None:
            frames = world.checkpoint.data_frames
            world.pod.fabric.device.frames.poison(frames[poison % 97 :: 97])
        worlds.append(world)
    return worlds


class TestAccessSegmentsMatchesLoop:
    @given(batches())
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_per_segment_loop(self, drawn):
        policy, prelude, specs, alarm, poison = drawn
        ref, new = build_pair(policy, prelude, alarm, poison)
        with RAS.force(poison is not None):
            ref_stats, ref_err = run_reference(ref, materialize(ref, specs))
            new_stats, new_err = run_batched(new, materialize(new, specs))
        assert new_err == ref_err
        if ref_err is None:
            assert new_stats == ref_stats
        assert new.observe() == ref.observe()

    @given(batches())
    @settings(max_examples=30, deadline=None)
    def test_access_range_equals_reference(self, drawn):
        policy, prelude, specs, alarm, poison = drawn
        ref, new = build_pair(policy, prelude, alarm, poison)
        new_stats, new_err = [], None
        with RAS.force(poison is not None):
            ref_stats, ref_err = run_reference(ref, materialize(ref, specs))
            try:
                for start, n, write, mask in materialize(new, specs):
                    new_stats.append(stats_tuple(new.kernel.access_range(
                        new.child, start, n, write=write, touched_mask=mask
                    )))
            except ACCESS_ERRORS as exc:
                new_err = f"{type(exc).__name__}: {exc}"
        assert (new_stats, new_err) == (ref_stats, ref_err)
        assert new.observe() == ref.observe()


class TestSharedLeafPrivatizedMidBatch:
    """A write fault privatizes a shared checkpoint leaf between two warm
    reads of it: the first read's A bits land in the checkpoint's leaf, the
    second's only in the child's private copy — exactly as per segment."""

    def _segments(self, world: World) -> list:
        # lib1 was never populated, so its read faults; lib0 and lib2 are
        # attached and present, so their reads are warm.
        lib0, lib1, lib2 = world.vmas[:3]
        assert len({v.start_vpn >> LEAF_SHIFT for v in (lib0, lib1, lib2)}) == 1
        return [(v.start_vpn, v.npages, False, None) for v in (lib0, lib1, lib2)]

    def test_matches_reference(self):
        ref, new = World("mow"), World("mow")
        leaf_index = ref.vmas[0].start_vpn >> LEAF_SHIFT
        assert ref.child.mm.pagetable.leaf(leaf_index).shared
        ref_stats, ref_err = run_reference(ref, self._segments(ref))
        new_stats, new_err = run_batched(new, self._segments(new))
        assert ref_err is None and new_err is None
        assert new_stats == ref_stats
        assert new.observe() == ref.observe()
        # The fault privatized the leaf (one PTE-leaf CoW) ...
        assert not new.child.mm.pagetable.leaf(leaf_index).shared
        assert any(k == "pte_leaf_cow" for k, _ in new_stats[1][0])
        # ... after the first read marked the checkpoint's copy, before the
        # second read could.
        ckpt_leaf = new.checkpoint.pagetable.leaf(leaf_index).ptes
        accessed = np.int64(int(PteFlags.ACCESSED))
        lib0, _, lib2 = new.vmas[:3]
        lo0 = lib0.start_vpn & (PTES_PER_LEAF - 1)
        lo2 = lib2.start_vpn & (PTES_PER_LEAF - 1)
        assert np.all(ckpt_leaf[lo0 : lo0 + lib0.npages] & accessed)
        assert not np.any(ckpt_leaf[lo2 : lo2 + lib2.npages] & accessed)


class TestFaultErrorMidBatch:
    def test_poisoned_fault_stops_before_later_warm_leaves(self):
        """A PoisonError in one leaf's fault leaves every page as the
        per-segment loop left it: the faulting segment before it has
        advanced the clock, the warm leaves after it have no A bits."""
        ref, new = World("moa"), World("moa")
        for world in (ref, new):
            lib2, big = world.vmas[2], world.vmas[8]
            world.kernel.access_range(world.child, big.start_vpn, big.npages, write=False)
            for _, leaf in world.child.mm.pagetable.leaves():
                leaf.ptes &= ~np.int64(int(PteFlags.ACCESSED))
            pte = world.checkpoint.pagetable.get_pte(lib2.start_vpn)
            world.pod.fabric.device.frames.poison(pte >> PTE_FRAME_SHIFT)
        segs = lambda w: [(w.vmas[0].start_vpn, 8, False, None),
                          (w.vmas[2].start_vpn, 8, False, None),
                          (w.vmas[8].start_vpn, w.vmas[8].npages, False, None)]
        with RAS.force(True):
            _, ref_err = run_reference(ref, segs(ref))
            _, new_err = run_batched(new, segs(new))
        assert ref_err is not None and ref_err.startswith("PoisonError")
        assert new_err == ref_err
        assert new.observe() == ref.observe()


    def test_bad_segment_runs_the_valid_prefix_first(self):
        """Segments before a bad one run, then the SegfaultError: what
        separate calls would have done."""
        ref, new = World("moa"), World("moa")
        segs = lambda w: [(w.vmas[0].start_vpn, 20, False, None),
                          (w.vmas[1].start_vpn, 20, False, None),  # faults
                          (w.vmas[3].start_vpn, 4, True, None)]  # read-only
        before = new.kernel.clock.now
        _, ref_err = run_reference(ref, segs(ref))
        _, new_err = run_batched(new, segs(new))
        assert ref_err is not None and ref_err.startswith("SegfaultError")
        assert new_err == ref_err
        assert new.kernel.clock.now > before  # the prefix faulted
        assert new.observe() == ref.observe()


class TestAlarmSemantics:
    def test_due_alarm_fires_inside_warm_batch(self):
        """A zero-cost batch still advances by zero when an alarm is armed,
        so an alarm already due fires where the per-segment loop fired it."""
        ref, new = World("mow"), World("mow")
        for world in (ref, new):
            lib0 = world.vmas[0]
            world.kernel.access_range(world.child, lib0.start_vpn, 8, write=False)
            world.arm(0)
        segs = lambda w: [(w.vmas[0].start_vpn, 8, False, None),
                          (w.vmas[2].start_vpn, 8, False, None)]
        run_reference(ref, segs(ref))
        run_batched(new, segs(new))
        assert ref.fired and new.observe() == ref.observe()

    def test_unordered_segments_match_in_call_order(self):
        ref, new = World("moa"), World("moa")
        segs = lambda w: [(w.vmas[7].start_vpn, 50, True, None),
                          (w.vmas[0].start_vpn, 20, False, None)]
        ref_stats, _ = run_reference(ref, segs(ref))
        new_stats, _ = run_batched(new, segs(new))
        assert new_stats == ref_stats
        assert new.observe() == ref.observe()

    def test_mask_length_mismatch_rejected(self):
        world = World("mow")
        vma = world.vmas[7]
        with pytest.raises(ValueError):
            world.kernel.access_segments(
                world.child, [(vma.start_vpn, 10, False, np.ones(9, dtype=bool))]
            )


def reference_invocation(task, plan, invocation_index: int) -> InvocationResult:
    """The invocation engine's run before the batched pass: one
    ``access_range`` per segment, then a per-segment access-time loop."""
    spec = plan.spec
    node = task.node
    kernel = task.kernel
    latency = node.fabric.latency
    result = InvocationResult()
    seg_masks = []
    for seg in plan.segments:
        mask = touch_mask(seg.npages, seg.touch_frac, invocation_index)
        if not np.any(mask):
            continue
        write = seg.role is SegmentRole.READ_WRITE
        stats = reference_access_range(
            kernel, task, seg.start_vpn, seg.npages, write=write, touched_mask=mask
        )
        result.fault_stats.merge(stats)
        seg_masks.append((seg, mask, stats))
    result.fault_ns = result.fault_stats.cost_ns
    total_touched = sum(s.touched for _, _, s in seg_masks)
    result.touched_pages = total_touched
    miss_frac = node.cache.rereference_miss_fraction(total_touched * PAGE_SIZE)
    contention = node.fabric.contention_factor()
    access_ns = 0.0
    for seg, mask, stats in seg_masks:
        n_cxl = stats.touched_cxl
        n_local = stats.touched_local
        n_touched = n_cxl + n_local
        result.touched_local += n_local
        result.touched_cxl += n_cxl
        warmed = stats.warmed
        cold_first = max(0, n_touched - warmed)
        frac_cxl = n_cxl / n_touched if n_touched else 0.0
        ft_cxl = cold_first * frac_cxl
        ft_local = cold_first - ft_cxl
        result.first_touch_misses += cold_first
        reaccesses = n_touched * spec.reaccess_per_page
        re_misses = reaccesses * miss_frac
        re_cxl = re_misses * frac_cxl
        re_local = re_misses - re_cxl
        result.reaccess_misses += int(re_misses)
        access_ns += (ft_cxl + re_cxl) * latency.access_ns(cxl=True) * contention
        access_ns += (ft_local + re_local) * latency.access_ns(cxl=False)
    result.access_ns = access_ns
    result.compute_ns = spec.compute_ns
    node.clock.advance(access_ns + result.compute_ns)
    result.wall_ns = result.fault_ns + result.access_ns + result.compute_ns
    return result


def invocation_tuple(result: InvocationResult) -> tuple:
    fields = dataclasses.asdict(result)
    fields["fault_stats"] = stats_tuple(result.fault_stats)
    return tuple(sorted(fields.items()))


class TestInvocationMatchesPerSegmentEngine:
    """The whole invocation, old engine versus new: fault stats, every
    float of the access-time model and the clock, bit for bit."""

    @staticmethod
    def _child(function: str, policy: str, loaded: bool):
        pod = make_pod(dram_bytes=2 * GIB, cxl_bytes=2 * GIB)
        if loaded:
            pod.fabric.bandwidth = BandwidthTracker(capacity_gbps=1.0)
            pod.fabric.bandwidth.register_stream("noise", 0.9)
        parent = prepare_parent(pod, function)
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        restored = mech.restore(ckpt, pod.target, policy=POLICIES[policy]())
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        return pod, child

    @given(
        st.sampled_from(["float", "json"]),
        st.sampled_from(sorted(POLICIES)),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
    )
    # A loaded fabric under MoW is a case where a pairwise float sum of
    # the access-time terms differs from the sequential one.
    @example("float", "mow", True, [0, 1])
    @settings(max_examples=20, deadline=None)
    def test_invocations_bit_identical(self, function, policy, loaded, indices):
        ref_pod, ref = self._child(function, policy, loaded)
        new_pod, new = self._child(function, policy, loaded)
        engine = InvocationEngine()
        for index in indices:
            expected = reference_invocation(ref.task, ref.plan, index)
            got = engine.run(new.task, new.plan, index)
            assert invocation_tuple(got) == invocation_tuple(expected)
            assert new_pod.target.clock.now == ref_pod.target.clock.now
