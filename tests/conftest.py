"""Shared fixtures: small pods, kernels, prepared functions, checking."""

from __future__ import annotations

import pytest

from repro.experiments.common import make_pod
from repro.faas.workload import FunctionWorkload
from repro.sim.units import GIB


@pytest.fixture
def pod():
    """A small two-node pod (4 GiB DRAM/node, 8 GiB CXL)."""
    return make_pod(dram_bytes=4 * GIB, cxl_bytes=8 * GIB)


@pytest.fixture
def fabric(pod):
    return pod.fabric


@pytest.fixture
def node0(pod):
    return pod.nodes[0]


@pytest.fixture
def node1(pod):
    return pod.nodes[1]


@pytest.fixture
def kernel(node0):
    return node0.kernel


@pytest.fixture
def parent(pod):
    """A seasoned small ``float`` function on the pod's source node —
    the common starting point of every rfork/porter test."""
    workload = FunctionWorkload("float")
    instance = workload.build_instance(pod.source)
    workload.season(instance)
    return workload, instance


@pytest.fixture
def checkpointed(parent):
    """``parent`` plus its CXLfork checkpoint."""
    from repro.rfork.cxlfork import CxlFork

    workload, instance = parent
    mech = CxlFork()
    ckpt, metrics = mech.checkpoint(instance.task)
    return workload, instance, mech, ckpt, metrics


@pytest.fixture
def check_enabled():
    """Enable the repro.check switch for one test, reset afterwards."""
    from repro.check import CHECK

    CHECK.reset()
    CHECK.enable()
    yield CHECK
    CHECK.disable()
    CHECK.reset()
