"""Crash consistency: mid-operation crashes leak nothing; survivors recover.

The §3.1 contract under test: a node crash at *any* point — including
halfway through a checkpoint or restore — leaves no partially-pinned
frames, no dangling cxlfs spans, and no unaccounted CXL regions.  The
fault injector raises :class:`InjectedCrash` from inside the operation
(alarms fire while the victim's clock advances), so each mechanism's
cleanup handlers run exactly as they would on a real mid-operation panic.
"""

import pytest

from repro.cxl.allocator import OutOfMemoryError
from repro.experiments.common import make_pod, prepare_parent
from repro.faults import FaultInjector, InjectedCrash, audit_pod
from repro.faults.recovery import RetryPolicy
from repro.os.kernel import NodeFailedError
from repro.rfork.criu import CriuCheckpoint
from repro.rfork.registry import get_mechanism
from repro.rfork.resilient import ResilientFork
from repro.rfork.restoreplan import RESTORE_PLAN, cached_plan
from repro.sim.units import MS

MECHANISMS = ["cxlfork", "criu-cxl", "mitosis-cxl"]


def audit(pod, checkpoints=()):
    return audit_pod(
        pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=list(checkpoints)
    )


class TestMidCheckpointCrash:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_partial_checkpoint_leaks_nothing(self, mech_name):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        FaultInjector(seed=1).crash_after(pod.source, int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.checkpoint(parent.instance.task)
        # Partially-written images, pins, and spans all rolled back.
        report = audit(pod)
        assert report.clean, report.describe()

    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_survivor_restores_prior_checkpoint(self, mech_name):
        """A crash while re-checkpointing must not hurt the old image."""
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        fresh = prepare_parent(pod, "json", node=pod.nodes[1])
        FaultInjector(seed=2).crash_after(pod.nodes[1], int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.checkpoint(fresh.instance.task)
        result = mech.restore(ckpt, pod.nodes[2])
        invocation = parent.workload.invoke(
            parent.workload.placed_plan_for(parent.instance, result.task)
        )
        assert invocation.wall_ns > 0
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    def test_mitosis_checkpoint_dies_with_parent(self):
        """Mitosis keeps state on the parent: its death loses the template."""
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        mech = get_mechanism("mitosis-cxl", fabric=pod.fabric)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=3).crash_now(pod.source)
        with pytest.raises(NodeFailedError):
            mech.restore(ckpt, pod.target)
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()


class TestMidRestoreCrash:
    # Plan on (a memoized plan) and off (a fresh plan per restore): both
    # restore paths must unwind a crash without leaking.
    @pytest.mark.parametrize("mech_name,plan_on", [
        pytest.param(mech_name, plan_on,
                     id=mech_name if plan_on else f"{mech_name}-plan-off")
        for mech_name in MECHANISMS
        for plan_on in (True, False)
    ])
    def test_partial_restore_leaks_nothing(self, mech_name, plan_on):
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=4).crash_after(pod.target, int(1 * MS))
        with RESTORE_PLAN.force(plan_on), pytest.raises(InjectedCrash):
            mech.restore(ckpt, pod.target)
        assert (cached_plan(ckpt) is not None) == plan_on
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_checkpoint_survives_failed_restore_target(self, mech_name):
        """The image is untouched by a consumer's crash; retry elsewhere."""
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=5).crash_after(pod.target, int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.restore(ckpt, pod.target)
        result = mech.restore(ckpt, pod.nodes[2])
        assert result.task.node is pod.nodes[2]
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()


class TestResilientFork:
    def _resilient(self, pod, *, max_attempts=3):
        return ResilientFork(
            fabric=pod.fabric,
            cxlfs=pod.cxlfs,
            policy=RetryPolicy(
                base_ns=int(1 * MS),
                cap_ns=int(8 * MS),
                max_attempts=max_attempts,
                jitter=0.0,
            ),
        )

    def test_transient_oom_is_retried(self):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        resilient = self._resilient(pod)
        handle = FaultInjector(seed=6).transient_oom(
            pod.fabric.device.frames, failures=1
        )
        before = pod.source.clock.now
        ckpt, metrics = resilient.checkpoint(parent.instance.task)
        assert handle.injected == 1
        # Still a CXLfork image: one backoff, no degradation.
        assert not isinstance(ckpt, CriuCheckpoint)
        assert pod.source.clock.now - before >= int(1 * MS)  # backoff was paid
        handle.remove()
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    def test_persistent_exhaustion_falls_back_to_criu(self):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        resilient = self._resilient(pod, max_attempts=2)
        # Exactly exhaust the cxlfork retry budget; the CRIU fallback's
        # allocations then go through unharmed.
        handle = FaultInjector(seed=7).transient_oom(
            pod.fabric.device.frames, failures=2
        )
        ckpt, metrics = resilient.checkpoint(parent.instance.task)
        assert isinstance(ckpt, CriuCheckpoint)
        handle.remove()
        # A degraded checkpoint restores transparently through CRIU.
        result = resilient.restore(ckpt, pod.target)
        assert result.task.node is pod.target
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    def test_dead_node_is_not_retried(self):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        resilient = self._resilient(pod)
        ckpt, _ = resilient.checkpoint(parent.instance.task)
        pod.target.fail()
        before = pod.target.clock.now
        with pytest.raises(NodeFailedError):
            resilient.restore(ckpt, pod.target)
        assert pod.target.clock.now == before  # no backoff against the dead

    def test_oom_exhaustion_on_restore_propagates(self):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        resilient = self._resilient(pod, max_attempts=2)
        ckpt, _ = resilient.checkpoint(parent.instance.task)
        from repro.faults.recovery import RetryExhaustedError

        handle = FaultInjector(seed=8).transient_oom(
            pod.target.dram, failures=1_000_000
        )
        with pytest.raises(RetryExhaustedError) as info:
            resilient.restore(ckpt, pod.target)
        assert isinstance(info.value.last, OutOfMemoryError)
        handle.remove()
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()
