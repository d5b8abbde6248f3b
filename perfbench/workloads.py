"""The three benchmark workloads, each a closed loop of alike steps.

A workload object is built from a seed, ``setup()`` builds every pod,
parent, checkpoint and cache the timed loop needs, and each ``step()``
does one unit of simulated work and returns a :class:`Step`.  A step's
``record`` holds its simulated outputs; the runner hashes the records of
the first steps into the run's digest.  A step is ``ok`` only if it
passed its per-step correctness checks; ``finish()`` runs the end-of-run
checks.  ``ops`` counts the simulated operations the step completed:
one remote-forked invocation (restore-storm), one sealed-and-shipped
checkpoint generation (seal-ship), or the requests served in the time
slice (cluster-serve).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from repro.check import invariants
from repro.cluster import RouterConfig, build_federation, replication
from repro.dedup import DEDUP
from repro.experiments.cluster_scale import (
    ClusterScaleConfig,
    _porter_config,
    _topology,
)
from repro.experiments.common import make_pod, prepare_parent
from repro.experiments.density import _DstPod
from repro.faas.traces import Request, popularity_weights
from repro.rfork.registry import get_mechanism
from repro.rfork.restoreplan import RESTORE_PLAN
from repro.serial.codec import Codec
from repro.sim.units import GIB, MS, PAGE_SIZE, SEC


@dataclass
class Step:
    ops: int
    ok: bool
    record: tuple
    problem: str = ""


def _blocks(rng: random.Random, block: list):
    """Endless stream of seeded permutations of ``block``: the order comes
    from the seed while every block keeps the same mix."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def _warm_up(workload, steps: int) -> None:
    """Run untimed steps during set-up; any failure aborts the set-up."""
    for _ in range(steps):
        step = workload.step()
        if not step.ok:
            raise RuntimeError(f"{workload.name} warm-up: {step.problem}")


def _strata(rng: random.Random, count: int, span: float) -> list:
    """``count`` seeded times in ``[0, span)``, one per equal stratum."""
    width = span / count if count else 0.0
    return [(k + rng.random()) * width for k in range(count)]


def _failure(exc: BaseException) -> Step:
    return Step(ops=0, ok=False, record=("raised", type(exc).__name__),
                problem=f"{type(exc).__name__}: {exc}")


class RestoreStorm:
    """Remote forks from a fixed set of warm checkpoints (read/fault side).

    Small, mid and large Table-1 functions, each checkpointed by cxlfork,
    criu-cxl and mitosis-cxl on the source node.  A step restores one
    (function, mechanism) pair on the target node, invokes the child once
    and exits it; afterwards the target node and the CXL device must hold
    exactly what they held before the step (page-cache pages aside).
    """

    name = "restore-storm"
    BLOCK = 10  # steps per full mix: the nine pairs plus TAIL_PAIR
    FUNCTIONS = ("float", "bfs", "bert")
    MECHANISMS = ("cxlfork", "criu-cxl", "mitosis-cxl")
    #: Drawn twice per block of ten, so the slowest pair fills the top
    #: fifth of steps and the p90 lies inside it, not on a class edge.
    TAIL_PAIR = ("bert", "criu-cxl")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        DEDUP.disable()
        self.pod = make_pod(node_count=2, dram_bytes=16 * GIB,
                            cxl_bytes=16 * GIB)
        self.images = {}
        for function in self.FUNCTIONS:
            parent = prepare_parent(self.pod, function)
            for mech_name in self.MECHANISMS:
                mech = get_mechanism(mech_name, fabric=self.pod.fabric,
                                     cxlfs=self.pod.cxlfs)
                checkpoint, _ = mech.checkpoint(parent.instance.task)
                self.images[function, mech_name] = (parent, mech, checkpoint)
        # First restore of every image: builds its restore plan and fills
        # the touch-mask caches, so every timed restore is plan-served.
        for pair in self.images:
            self._fork(*pair)
        self.baseline = self._usage()
        block = sorted(self.images) + [self.TAIL_PAIR]
        self.pairs = _blocks(random.Random(self.seed), block)
        self.restore_ns: dict[tuple, list] = {pair: [] for pair in self.images}

    def _usage(self) -> tuple:
        """Target DRAM frames outside the page cache, target tasks, and
        CXL device frames."""
        target = self.pod.target
        return (target.dram.allocated_frames
                - target.pagecache.total_cached_pages(),
                len(target.kernel.tasks()),
                self.pod.fabric.device.frames.allocated_frames)

    def _fork(self, function: str, mech_name: str):
        parent, mech, checkpoint = self.images[function, mech_name]
        restored = mech.restore(checkpoint, self.pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        result = parent.workload.invoke(child)
        self.pod.target.kernel.exit_task(child.task)
        return restored.metrics, result

    def step(self) -> Step:
        pair = next(self.pairs)
        try:
            metrics, result = self._fork(*pair)
        except Exception as exc:  # a step that raises is a failed step
            return _failure(exc)
        record = (pair, metrics.latency_ns, result.wall_ns,
                  result.fault_stats.total_faults, result.touched_pages)
        self.restore_ns[pair].append(metrics.latency_ns)
        usage = self._usage()
        if usage != self.baseline:
            return Step(1, False, record,
                        f"{pair}: frames after exit {usage} != {self.baseline}")
        if not (metrics.latency_ns > 0 and result.wall_ns > 0):
            return Step(1, False, record, f"{pair}: non-positive latency")
        return Step(1, True, record)

    def finish(self) -> list[str]:
        """The paper's ordering: cxlfork restores faster than criu-cxl."""
        problems = []
        for function in self.FUNCTIONS:
            fast = self.restore_ns[function, "cxlfork"]
            slow = self.restore_ns[function, "criu-cxl"]
            if fast and slow and max(fast) >= min(slow):
                problems.append(f"{function}: cxlfork restore not faster "
                                "than criu-cxl")
        return problems

    def counters(self) -> dict:
        return {"plan": RESTORE_PLAN.summary()}


@dataclass
class _Gen:
    mechanism: str
    checkpoint: object
    replica: object


@dataclass
class _Chain:
    parent: object
    gens: list = field(default_factory=list)


class SealShip:
    """Checkpoint generations with dedup on, shipped to a peer pod.

    Two chains of small functions.  A step restores a chain's newest
    generation, invokes it (its writes break CoW), re-checkpoints it
    (four cxlfork seals to one criu-cxl per chain), ships the image
    through the wire pipeline, checks the replica re-encodes to the same
    bytes, and retires the chain's oldest generation on both pods.  Every
    ``AUDIT_EVERY``-th step runs ``check_pod`` on both pods.
    """

    name = "seal-ship"
    FUNCTIONS = ("float", "json")
    SEALS = ("cxlfork",) * 4 + ("criu-cxl",)
    LIVE_GENERATIONS = 4
    AUDIT_EVERY = 5
    WARMUP_STEPS = 12
    BLOCK = 10  # steps per full mix: each chain seals one whole SEALS cycle

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        DEDUP.enable()
        self.pod = make_pod(node_count=2, dram_bytes=4 * GIB,
                            cxl_bytes=16 * GIB)
        peer_pod = make_pod(node_count=2, dram_bytes=2 * GIB,
                            cxl_bytes=16 * GIB)
        self.peer_pod = peer_pod
        self.peer = _DstPod(peer_pod, name="peer")
        self.codec = Codec()
        self.delta = replication.DeltaStats()
        self.mechs = {
            name: get_mechanism(name, fabric=self.pod.fabric,
                                cxlfs=self.pod.cxlfs)
            for name in ("cxlfork", "criu-cxl")
        }
        self.chains = {}
        self.count = 0
        for function in self.FUNCTIONS:
            parent = prepare_parent(self.pod, function)
            checkpoint, _ = self.mechs["cxlfork"].checkpoint(parent.instance.task)
            self.pod.source.kernel.exit_task(parent.instance.task)
            chain = _Chain(parent=parent)
            chain.gens.append(
                _Gen("cxlfork", checkpoint, self._ship(checkpoint)[0]))
            self.chains[function] = chain
        rng = random.Random(self.seed)
        self.functions = _blocks(rng, list(self.FUNCTIONS))
        # Each chain cycles four cxlfork seals and one criu-cxl seal from a
        # seeded phase, so every seed sees the same per-chain transitions.
        self.cycles = {
            function: itertools.islice(
                itertools.cycle(self.SEALS), rng.randrange(len(self.SEALS)),
                None)
            for function in self.FUNCTIONS
        }
        # Grow every chain to its live set and run it until the share of
        # pages it adopts from the chunk index has settled.
        _warm_up(self, self.WARMUP_STEPS)
        self.count = 0

    def _ship(self, checkpoint):
        """wire_image -> encode -> missing_codes -> decode -> materialize."""
        wire = replication.wire_image(checkpoint)
        blob = self.codec.encode(wire)
        codes = replication.wire_chunk_codes(wire)
        missing = 0
        if codes.size:
            uniq = int(np.count_nonzero(np.unique(codes)))
            index = self.peer.fabric.chunk_index
            missing = int(index.missing_codes(codes).size)
            self.delta.delta_ships += 1
            self.delta.chunks_deduped += uniq - missing
            self.delta.full_page_bytes += checkpoint.data_bytes
            self.delta.wire_page_bytes += missing * PAGE_SIZE
            self.delta.hash_bytes += uniq * replication.HASH_WIRE_BYTES
        replica, install_ns = replication.materialize(
            self.codec.decode(blob), self.peer, codec=self.codec)
        same = self.codec.encode(replication.wire_image(replica)) == blob
        digest = hashlib.sha256(blob).hexdigest()[:16]
        return replica, (len(blob), digest, missing, install_ns, same)

    def _generation(self, function: str, mech_name: str):
        chain = self.chains[function]
        newest = chain.gens[-1]
        parent = chain.parent
        restored = self.mechs[newest.mechanism].restore(
            newest.checkpoint, self.pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        result = parent.workload.invoke(child)
        checkpoint, _ = self.mechs[mech_name].checkpoint(child.task)
        self.pod.target.kernel.exit_task(child.task)
        replica, ship = self._ship(checkpoint)
        chain.gens.append(_Gen(mech_name, checkpoint, replica))
        if len(chain.gens) > self.LIVE_GENERATIONS:
            old = chain.gens.pop(0)
            self.mechs[old.mechanism].delete_checkpoint(old.checkpoint)
            old.replica.delete()
        resident = getattr(checkpoint, "resident_cxl_bytes",
                           checkpoint.cxl_bytes)
        return (function, mech_name, restored.metrics.latency_ns,
                result.wall_ns, checkpoint.cxl_bytes, resident) + ship

    def _audit(self) -> str:
        live = [g.checkpoint for c in self.chains.values() for g in c.gens]
        replicas = [g.replica for c in self.chains.values() for g in c.gens]
        for label, pod, images in (("source", self.pod, live),
                                   ("peer", self.peer_pod, replicas)):
            report = invariants.check_pod(pod.fabric, pod.nodes,
                                          cxlfs=pod.cxlfs, checkpoints=images)
            if not report.clean:
                return f"{label} pod audit: {report.describe()[:300]}"
        return ""

    def step(self) -> Step:
        self.count += 1
        function = next(self.functions)
        mech_name = next(self.cycles[function])
        try:
            record = self._generation(function, mech_name)
            problem = "" if record[-1] else "replica re-encode differs"
            if not problem and self.count % self.AUDIT_EVERY == 0:
                problem = self._audit()
        except Exception as exc:  # a step that raises is a failed step
            return _failure(exc)
        return Step(1, not problem, record, problem)

    def finish(self) -> list[str]:
        return []

    def counters(self) -> dict:
        index = self.pod.fabric.chunk_index
        return {"plan": RESTORE_PLAN.summary(),
                "dedup": index.stats.snapshot(),
                "delta": self.delta.snapshot()}


class ClusterServe:
    """A seeded bursty trace replayed through the federated router.

    cluster-scale's federated arm: 4 pods x 2 nodes, small and mid
    functions, push replication.  A step advances the shared event queue
    by one fixed slice of simulated time; its ops are the requests that
    completed in the slice, and it fails if any of them failed.

    The trace comes in segments of ``SEGMENT_S`` seconds.  Each segment
    holds a fixed number of requests per function (its popularity share
    of ``RPS``); half of a function's requests fall in one ``BURST_S``
    burst that starts on a seeded slice boundary inside the function's own
    quarter of the segment, the rest spread over the segment.  Arrivals are
    stratified (one at a seeded time in each equal share of their window).
    Fixed counts, slice-aligned bursts and stratified arrivals keep the
    function mix and the load per slice, and so the host cost per request
    and per step, alike for every seed; the seed moves every burst and
    arrival.
    """

    name = "cluster-serve"
    BLOCK = 20  # slices per trace segment
    RPS = 120.0
    SLICE_NS = 100 * MS
    SEGMENT_S = 2.0
    BURST_S = 0.4
    BURST_SHARE = 0.5
    WARMUP_NS = 2 * SEC

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = ClusterScaleConfig(seed=seed)

    def setup(self) -> None:
        DEDUP.disable()
        cfg = self.config
        self.router = build_federation(
            cfg.pod_count,
            topology=_topology(cfg, cfg.nodes_per_pod),
            porter_config=_porter_config(cfg),
            router_config=RouterConfig(link=cfg.link,
                                       replication=cfg.replication),
            device_gbps=cfg.device_gbps,
        )
        self.queue = self.router.queue
        self.pods = self.router.membership.pods()
        for i, function in enumerate(cfg.functions):
            self.router.register_function(function)
            self.router.prewarm(function, home=self.pods[i % len(self.pods)].name)
        self.queue.run()  # land every pushed replica
        for pod in self.pods:
            self.queue.schedule_after(pod.porter.config.controller_tick_ns,
                                      pod.porter._controller_tick)
        weights = popularity_weights(list(cfg.functions), cfg.popularity_skew)
        self.per_segment = [round(self.RPS * self.SEGMENT_S * float(w))
                            for w in weights]
        self.origin = self.queue.now
        self.horizon = self.origin
        self.scheduled_to = self.origin
        self.segments = 0
        self.served = 0
        self.failed = 0
        for _ in range(self.WARMUP_NS // self.SLICE_NS):
            self.prepare()
            _warm_up(self, 1)

    def _schedule_segment(self) -> None:
        """Arrivals for the next ``SEGMENT_S`` seconds of the trace."""
        rng = random.Random(self.seed * 1_000_003 + self.segments)
        functions = self.config.functions
        quarter = self.SEGMENT_S / len(functions)
        slice_s = self.SLICE_NS / SEC
        arrivals = []
        for i, (function, count) in enumerate(zip(functions, self.per_segment)):
            slot = rng.randrange(round((quarter - self.BURST_S) / slice_s) + 1)
            burst = i * quarter + slot * slice_s
            in_burst = round(count * self.BURST_SHARE)
            arrivals += [(burst + when, function)
                         for when in _strata(rng, in_burst, self.BURST_S)]
            arrivals += [(when, function) for when in
                         _strata(rng, count - in_burst, self.SEGMENT_S)]
        base = self.scheduled_to
        for n, (when_s, function) in enumerate(sorted(arrivals)):
            request = Request(when=base + int(when_s * SEC), function=function,
                              request_id=self.segments * 100_000 + n)
            self.queue.schedule(request.when,
                                lambda r=request: self.router.submit(r),
                                label="arrival")
        self.segments += 1
        self.scheduled_to = base + int(self.SEGMENT_S * SEC)

    def _kinds(self) -> dict:
        kinds: dict = {}
        for pod in self.pods:
            for kind, count in pod.porter.metrics.start_kind_counts().items():
                kinds[kind] = kinds.get(kind, 0) + count
        return kinds

    def prepare(self) -> None:
        """Untimed: make sure the next slice's arrivals are scheduled."""
        while self.scheduled_to <= self.horizon + self.SLICE_NS:
            self._schedule_segment()

    def step(self) -> Step:
        self.horizon += self.SLICE_NS
        try:
            queue = self.queue
            while True:
                pending = queue.peek_time()
                if pending is None or pending > self.horizon:
                    break
                queue.step()
            kinds = self._kinds()
        except Exception as exc:  # a step that raises is a failed step
            return _failure(exc)
        served = sum(kinds.values())
        failed = kinds.get("failed", 0)
        new_failures = failed - self.failed
        ops = served - self.served - new_failures
        self.served, self.failed = served, failed
        record = (self.horizon, served, tuple(sorted(kinds.items())),
                  self.router.stats.routed, self.router.stats.pulls)
        if new_failures:
            return Step(ops, False, record,
                        f"{new_failures} request(s) failed in the slice")
        return Step(ops, True, record)

    def finish(self) -> list[str]:
        return []

    def counters(self) -> dict:
        kinds = self._kinds()
        return {"plan": RESTORE_PLAN.summary(), "kinds": kinds,
                "delta": self.router.replicator.delta.snapshot()}


WORKLOADS = {cls.name: cls for cls in (RestoreStorm, SealShip, ClusterServe)}
