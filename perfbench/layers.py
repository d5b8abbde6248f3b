"""Per-layer host tracing, installed from the benchmark side.

The benchmark never edits the simulator.  Instead it wraps the public
functions that sit on each layer boundary (``TARGETS``) at run time,
rebinding every module attribute and class slot that holds the original
function, and restores the originals on ``uninstall``.  Two uses:

* :class:`LayerTracer` records, per wrapped function, the call count, the
  self time (the call's duration minus the duration of wrapped calls it
  made), an optional extra quantity read from the call (faults, bytes),
  and one span per call kept in memory and written out at the end;
* :func:`install_delays` adds a fixed host busy-wait to chosen functions
  without recording anything — the sensitivity self-test's probe.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

clock = time.perf_counter


def _faults(result, args) -> int:
    return int(result.total_faults)


def _encoded_bytes(result, args) -> int:
    return len(result)


def _decoded_bytes(result, args) -> int:
    return len(args[0])


#: metric name -> (module, attribute paths, extra-quantity reader).
#: One metric may cover several implementations (the three mechanisms).
TARGETS: dict[str, tuple[str, tuple[str, ...], Optional[Callable]]] = {
    "os.access_range": ("repro.os.kernel", ("Kernel.access_range",), _faults),
    "os.exit_task": ("repro.os.kernel", ("Kernel.exit_task",), None),
    "cxl.alloc_many": (
        "repro.cxl.allocator", ("FrameAllocator.alloc_many",), None),
    "cxl.get": ("repro.cxl.allocator", ("FrameAllocator.get",), None),
    "cxl.put": ("repro.cxl.allocator", ("FrameAllocator.put",), None),
    "rfork.restore": ("repro.rfork", (
        "cxlfork.CxlFork.restore",
        "criu.CriuCxl.restore",
        "mitosis.MitosisCxl.restore",
    ), None),
    "rfork.checkpoint": ("repro.rfork", (
        "cxlfork.CxlFork.checkpoint",
        "criu.CriuCxl.checkpoint",
        "mitosis.MitosisCxl.checkpoint",
    ), None),
    "rfork.delete": ("repro.rfork", (
        "cxlfork.CxlForkCheckpoint.delete",
        "criu.CriuCheckpoint.delete",
        "mitosis.MitosisCheckpoint.delete",
    ), None),
    "faas.invoke": ("repro.faas.workload", ("FunctionWorkload.invoke",), None),
    "serial.encode": ("repro.serial.codec", ("encode",), _encoded_bytes),
    "serial.decode": ("repro.serial.codec", ("decode",), _decoded_bytes),
    "dedup.seal_codes": ("repro.dedup.seal", ("seal_codes",), None),
    "dedup.intern_leaf": (
        "repro.dedup.seal", ("ChunkInterner.intern_leaf",), None),
    "dedup.adopt_only": (
        "repro.dedup.seal", ("ChunkInterner.adopt_only",), None),
    "dedup.index_audit": ("repro.dedup.chunkindex", ("ChunkIndex.audit",), None),
    "cluster.wire_image": ("repro.cluster.replication", ("wire_image",), None),
    "cluster.materialize": ("repro.cluster.replication", ("materialize",), None),
    "cluster.ship": ("repro.cluster.replication", ("Replicator.ship",), None),
    "cluster.route": ("repro.cluster.router", ("ClusterRouter.route",), None),
    "faults.audit_pod": ("repro.faults.audit", ("audit_pod",), None),
    "check.check_pod": ("repro.check.invariants", ("check_pod",), None),
    "sim.event_step": ("repro.sim.events", ("EventQueue.step",), None),
    "porter.submit": ("repro.porter.autoscaler", ("CxlPorter.submit",), None),
}

#: Name of the extra quantity, per metric that has one.
EXTRA_NAMES = {
    "os.access_range": "faults",
    "serial.encode": "bytes",
    "serial.decode": "bytes",
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TARGETS))

#: Spans kept in memory per traced run; later calls are still counted.
MAX_SPANS = 200_000


def _resolve(module: str, path: str):
    """(owner, attribute, original) for one dotted target."""
    parts = path.split(".")
    owner = importlib.import_module(module)
    for i, part in enumerate(parts[:-1]):
        nxt = getattr(owner, part, None)
        if nxt is None and i == 0:
            nxt = importlib.import_module(f"{module}.{part}")
        owner = nxt
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class _Patcher:
    """Rebinds every holder of a target function; undoes it on request."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, module: str, path: str, make: Callable) -> None:
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        holders = [(owner, attr)]
        if not isinstance(owner, type):
            # Module-level function: also rebind every ``from x import f``.
            for name, mod in list(sys.modules.items()):
                if mod is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        holders.append((mod, key))
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def undo(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def _spin(seconds: float) -> None:
    end = clock() + seconds
    while clock() < end:
        pass


def install_delays(delays: dict[str, float]) -> _Patcher:
    """Add a fixed host busy-wait (seconds) to each named function."""
    patcher = _Patcher()
    for name, seconds in delays.items():
        if name not in TARGETS:
            raise KeyError(f"unknown layer function {name!r}")
        module, paths, _ = TARGETS[name]

        def make(original, seconds=seconds):
            def delayed(*args, **kwargs):
                _spin(seconds)
                return original(*args, **kwargs)

            return delayed

        for path in paths:
            patcher.patch(module, path, make)
    return patcher


class LayerTracer:
    """Call counts, self time, extras and in-memory spans per function."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.extra = [0] * len(self.names)
        self.span_id = array("H")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.spans_dropped = 0
        self._stack: list[float] = []
        self._patcher = _Patcher()
        self.t0 = 0.0

    def install(self) -> None:
        self.t0 = clock()
        for slot, name in enumerate(self.names):
            module, paths, extra = TARGETS[name]
            for path in paths:
                self._patcher.patch(
                    module, path,
                    lambda original, s=slot, e=extra: self._wrap(original, s, e),
                )

    def uninstall(self) -> None:
        self._patcher.undo()

    def _wrap(self, original: Callable, slot: int, extra: Optional[Callable]):
        stack = self._stack
        calls, self_s, extras = self.calls, self.self_s, self.extra
        ids, starts, durs = self.span_id, self.span_start, self.span_dur
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[slot] += dur - stack.pop()
                calls[slot] += 1
                if stack:
                    stack[-1] += dur
                if len(durs) < MAX_SPANS:
                    ids.append(slot)
                    starts.append(start)
                    durs.append(dur)
                else:
                    tracer.spans_dropped += 1
            if extra is not None:
                extras[slot] += extra(result, args)
            return result

        return traced

    def stats(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[i],
                "self_ms": self.self_s[i] * 1000.0,
                "extra": self.extra[i],
            }
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        """Chrome trace-event JSON of the kept spans (times in µs)."""
        events = [
            {
                "name": self.names[slot],
                "cat": self.names[slot].split(".")[0],
                "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for slot, start, dur in zip(self.span_id, self.span_start,
                                        self.span_dur)
        ]
        meta = {"spans_kept": len(events), "spans_dropped": self.spans_dropped}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)

