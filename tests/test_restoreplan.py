"""Restore-plan cache: memoization, epoch invalidation, bit-identity.

The plan is the only restore path, so the inline computations it replaced
live on here as references (as ``tests/test_prop_access_segments.py``
keeps the per-segment access loop): every builder field must equal what
the old planless restore computed from the checkpoint and the restored
task's live state.
"""

import pytest

from repro.bench import results_digest
from repro.check import mutation
from repro.exceptions import PoisonError
from repro.experiments.common import make_pod
from repro.faas.workload import FunctionWorkload
from repro.os.mm.pte import PteFlags
from repro.os.mm.vma import VmaKind
from repro.ras import RAS, checkpoint_frames
from repro.ras.checksum import invalidate_restore_plan
from repro.rfork.cxlfork import CxlFork
from repro.rfork.registry import get_mechanism
from repro.rfork.restoreplan import (
    RESTORE_PLAN,
    cached_plan,
    plan_key,
)
from repro.sim.units import GIB

MECHANISMS = ["cxlfork", "criu-cxl", "mitosis-cxl"]


@pytest.fixture(autouse=True)
def _reset_runtimes():
    RESTORE_PLAN.reset()
    RAS.reset()
    yield
    RESTORE_PLAN.reset()
    RAS.reset()


def _checkpointed(pod, mech_name, parent):
    workload, instance = parent
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    ckpt, _ = mech.checkpoint(instance.task)
    return mech, ckpt


class TestRuntime:
    def test_summary_shape(self):
        summary = RESTORE_PLAN.summary()
        assert set(summary) == {"enabled", "builds", "hits", "invalidations"}


class TestMemoization:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_first_restore_builds_second_hits(self, pod, parent, mech_name):
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        assert cached_plan(ckpt) is None
        mech.restore(ckpt, pod.target)
        plan = cached_plan(ckpt)
        assert plan is not None
        assert RESTORE_PLAN.builds == 1
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is plan  # served, not rebuilt
        assert RESTORE_PLAN.hits >= 1
        assert RESTORE_PLAN.builds == 1

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_plan_off_leaves_no_plan(self, pod, parent, mech_name):
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        with RESTORE_PLAN.force(False):
            result = mech.restore(ckpt, pod.target)
        assert result.task is not None
        assert cached_plan(ckpt) is None
        assert RESTORE_PLAN.summary() == {
            "enabled": True, "builds": 0, "hits": 0, "invalidations": 0,
        }

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_plan_off_ignores_memoized_plan(self, pod, parent, mech_name):
        # Off means a fresh plan per restore: one memoized earlier is
        # neither served, rebuilt nor replaced.
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        mech.restore(ckpt, pod.target)
        plan = cached_plan(ckpt)
        with RESTORE_PLAN.force(False):
            mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is plan
        assert (RESTORE_PLAN.builds, RESTORE_PLAN.hits) == (1, 0)

    def test_key_captures_live_epochs(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt).key == plan_key(ckpt, pod.fabric)

    def test_delete_drops_plan(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not None
        ckpt.delete()
        assert cached_plan(ckpt) is None

    def test_mitosis_plan_has_no_frames(self, pod, parent):
        # Mitosis images live in node-local shadow memory, not on the
        # fabric — there is no CXL frame set for RAS to verify.
        mech, ckpt = _checkpointed(pod, "mitosis-cxl", parent)
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt).frames is None


class TestInvalidation:
    def test_pool_poison_epoch_rebuilds(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        stale = cached_plan(ckpt)
        pool = pod.fabric.device.frames
        frames = checkpoint_frames(ckpt)
        pool.poison(frames[:1])
        pool.clear_poison(frames[:1])  # image is clean again, epoch moved
        assert stale.key != plan_key(ckpt, pod.fabric)
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not stale
        assert RESTORE_PLAN.invalidations == 1
        assert RESTORE_PLAN.builds == 2

    def test_reseal_epoch_rebuilds(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        stale = cached_plan(ckpt)
        invalidate_restore_plan(ckpt)  # what re-seal / repair rewrites call
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not stale
        assert RESTORE_PLAN.invalidations == 1

    def test_dedup_repoint_epoch_in_key(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        before = cached_plan(ckpt).key
        pod.fabric.chunk_index.epoch += 1  # what repoint() does
        assert before != plan_key(ckpt, pod.fabric)

    def test_cached_verdict_still_counts_verifications(self, pod, parent):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)
        v1 = RAS.verifications
        mech.restore(ckpt, pod.target)  # plan hit + cached clean verdict
        assert RAS.verifications == v1 + 1

    def test_poison_defeats_cached_verdict(self, pod, parent):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)  # builds plan, caches clean verdict
        pod.fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
        with pytest.raises(PoisonError):
            mech.restore(ckpt, pod.target)


class TestStaleMutation:
    def test_listed_in_registry(self):
        assert "stale-restore-plan" in mutation.KNOWN

    def test_armed_serves_stale_but_fault_path_catches(
        self, pod, parent, monkeypatch
    ):
        """The seeded bug: a stale plan (and its cached clean verdict) is
        served across a poison-epoch bump, so the restore-time checksum is
        blinded — the child's first fault on a poisoned checkpoint frame
        must still raise through the non-plan-mediated verify."""
        RAS.enable()
        workload, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)  # memoize plan + clean verdict
        pod.fabric.device.frames.poison(ckpt.data_frames)
        monkeypatch.setenv(mutation.ENV_VAR, "stale-restore-plan")
        result = mech.restore(ckpt, pod.target)  # wrongly succeeds
        assert result.task is not None
        child = workload.placed_plan_for(instance, result.task)
        with pytest.raises(PoisonError):
            workload.invoke(child)

    def test_disarmed_restore_refuses(self, pod, parent, monkeypatch):
        RAS.enable()
        monkeypatch.delenv(mutation.ENV_VAR, raising=False)
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)
        pod.fabric.device.frames.poison(ckpt.data_frames)
        with pytest.raises(PoisonError):
            mech.restore(ckpt, pod.target)


class TestReplicationSeeding:
    @pytest.mark.parametrize("mechanism", ["cxlfork", "criu-cxl"])
    def test_landed_replica_arrives_with_plan(self, mechanism):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism=mechanism)
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        landed = []
        router.replicator.ship("float", src, dst, on_done=landed.append)
        while router.queue.peek_time() is not None:
            router.queue.step()
        replica = landed[0].checkpoint
        plan = cached_plan(replica)
        assert plan is not None
        assert plan.key == plan_key(replica, dst.fabric)

    def test_plan_off_replica_arrives_planless(self):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism="cxlfork")
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        with RESTORE_PLAN.force(False):
            landed = []
            router.replicator.ship("float", src, dst, on_done=landed.append)
            while router.queue.peek_time() is not None:
                router.queue.step()
        assert cached_plan(landed[0].checkpoint) is None


# -- builders versus the planless restore they replaced -------------------------


def reference_cxlfork(checkpoint, task) -> dict:
    """The planless cxlfork restore: heap derefs per restore, and the
    upper-table count read off the restored task's live tree."""
    pt_attach = [
        (leaf_index, checkpoint.heap.deref(offset))
        for leaf_index, offset in checkpoint.leaf_offsets.items()
    ]
    blob = checkpoint.heap.deref(checkpoint.global_offset)
    state, decode_ns = CxlFork().codec.decode_with_cost(blob, nrecords=8)
    return {
        "pt_attach": pt_attach,
        "naive_installed": sum(leaf.present_count() for _, leaf in pt_attach),
        "upper_tables": task.mm.pagetable.upper_level_tables(),
        "vma_leaves": [
            checkpoint.heap.deref(offset) for offset in checkpoint.vma_leaf_offsets
        ],
        "max_vpn": checkpoint.max_vpn,
        "global_state": state,
        "global_decode_ns": decode_ns,
    }


def reference_criu_install(checkpoint, task) -> tuple[list, int]:
    """The planless CRIU install loop: the skip rule applied through the
    restored task's live VMA tree."""
    install_specs = []
    total_installed = 0
    for pagemap in checkpoint.pagemaps:
        # Skip runs that were not dumped (clean file pages: neither
        # dirty nor a hardware-writable private copy — mirrors
        # ``_file_clean_pages``).
        if not pagemap.flags & (int(PteFlags.DIRTY) | int(PteFlags.WRITE)):
            vma = task.mm.vmas.find(pagemap.start_vpn)
            if vma is not None and vma.kind is VmaKind.FILE_PRIVATE:
                continue
        install_specs.append((pagemap.start_vpn, pagemap.npages))
        total_installed += pagemap.npages
    return install_specs, total_installed


def reference_criu(checkpoint, task) -> dict:
    install_specs, total_installed = reference_criu_install(checkpoint, task)
    return {
        "n_meta_records": 4 + len(checkpoint.vma_records) + len(checkpoint.pagemaps),
        "vma_specs": [r.rebuild(file_registered=True) for r in checkpoint.vma_records],
        "install_specs": install_specs,
        "total_installed": total_installed,
    }


def reference_mitosis(checkpoint, task) -> dict:
    return {
        "n_meta_records": (
            2 + len(checkpoint.vma_records) + checkpoint.present_pages // 64
        ),
        "vma_specs": [r.rebuild(file_registered=True) for r in checkpoint.vma_records],
    }


REFERENCES = {
    "cxlfork": reference_cxlfork,
    "criu-cxl": reference_criu,
    "mitosis-cxl": reference_mitosis,
}


@pytest.fixture
def mixed_parent(pod):
    """The seasoned ``float`` parent plus a writable private file mapping
    whose pages are dirty, hardware-writable but clean, or untouched, so
    the CRIU pagemaps inside file-private VMAs come in every flavour."""
    workload = FunctionWorkload("float")
    instance = workload.build_instance(pod.source)
    kernel = pod.source.kernel
    rw = kernel.map_file_region(instance.task, "/lib/mixed-rw.so", 48, writable=True)
    kernel.access_range(instance.task, rw.start_vpn, 16, write=True)
    workload.season(instance)  # clears DIRTY: those 16 stay writable only
    kernel.access_range(instance.task, rw.start_vpn, 8, write=True)
    return workload, instance


class TestBuildersMatchReferences:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_builder_equals_planless_reference(self, pod, mixed_parent, mech_name):
        mech, ckpt = _checkpointed(pod, mech_name, mixed_parent)
        task = mech.restore(ckpt, pod.target).task
        plan = cached_plan(ckpt)
        reference = REFERENCES[mech_name](ckpt, task)
        assert {field: getattr(plan, field) for field in reference} == reference

    def test_criu_pagemaps_cover_every_file_private_flavour(self, pod, mixed_parent):
        mech, ckpt = _checkpointed(pod, "criu-cxl", mixed_parent)
        task = mech.restore(ckpt, pod.target).task
        flavours = set()
        for pagemap in ckpt.pagemaps:
            vma = task.mm.vmas.find(pagemap.start_vpn)
            if vma.kind is VmaKind.FILE_PRIVATE:
                flavours.add(
                    (bool(pagemap.flags & int(PteFlags.DIRTY)),
                     bool(pagemap.flags & int(PteFlags.WRITE)))
                )
        assert flavours == {(False, False), (False, True), (True, True)}
        installed, _ = reference_criu_install(ckpt, task)
        assert 0 < len(installed) < len(ckpt.pagemaps)

    @pytest.mark.parametrize("naive", [False, True], ids=["attach", "naive"])
    def test_cxlfork_upper_tables_match_live_tree(self, pod, mixed_parent, naive):
        workload, instance = mixed_parent
        mech = CxlFork(naive_restore=naive)
        ckpt, _ = mech.checkpoint(instance.task)
        task = mech.restore(ckpt, pod.target).task
        plan = cached_plan(ckpt)
        assert plan.upper_tables == task.mm.pagetable.upper_level_tables()
        assert plan.naive_installed == reference_cxlfork(ckpt, task)["naive_installed"]


def _restore_trace(mech_name: str, plan_on: bool) -> dict:
    """Checkpoint + two restores + one invocation each, fully digested.

    Fresh pod per run: frame numbers and virtual times must line up
    exactly between the plan-on and plan-off sequences.
    """
    pod = make_pod(dram_bytes=4 * GIB, cxl_bytes=8 * GIB)
    workload = FunctionWorkload("float")
    instance = workload.build_instance(pod.source)
    workload.season(instance)
    with RESTORE_PLAN.force(plan_on):
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, cmetrics = mech.checkpoint(instance.task)
        rounds = []
        for _ in range(2):  # second round is the plan-hit path when on
            result = mech.restore(ckpt, pod.target)
            child = workload.placed_plan_for(instance, result.task)
            invocation = workload.invoke(child)
            leaves = [
                (index, leaf.ptes.tolist())
                for index, leaf in sorted(result.task.mm.pagetable.leaves())
            ]
            rounds.append(
                {
                    "restore_latency_ns": result.metrics.latency_ns,
                    "restore_breakdown": result.metrics.breakdown,
                    "prefetched": result.metrics.prefetched_pages,
                    "copied": result.metrics.copied_pages,
                    "mapped_pages": result.task.mm.mapped_pages(),
                    "leaves": leaves,
                    "invocation": invocation,
                    "clock_ns": pod.target.clock.now,
                }
            )
    return {
        "checkpoint_breakdown": cmetrics.breakdown,
        "rounds": rounds,
        "plan_used": cached_plan(ckpt) is not None,
    }


class TestBitIdentical:
    """The plan must be invisible in every simulated observable."""

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_plan_on_equals_plan_off(self, mech_name):
        RESTORE_PLAN.reset()
        on = _restore_trace(mech_name, plan_on=True)
        assert on["plan_used"]  # the cache really was exercised
        assert RESTORE_PLAN.hits >= 1
        off = _restore_trace(mech_name, plan_on=False)
        assert not off["plan_used"]
        on.pop("plan_used"), off.pop("plan_used")
        assert results_digest(on) == results_digest(off)

    def test_plan_on_equals_plan_off_with_ras(self):
        RAS.enable()
        on = _restore_trace("cxlfork", plan_on=True)
        off = _restore_trace("cxlfork", plan_on=False)
        on.pop("plan_used"), off.pop("plan_used")
        assert results_digest(on) == results_digest(off)
