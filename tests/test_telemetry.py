"""Telemetry subsystem: spans, metrics, breakdowns, exporters, instrumentation."""

import json

import pytest

from repro.sim.clock import Clock
from repro.telemetry import (
    TRACE,
    Breakdown,
    MetricRegistry,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.breakdown import UNATTRIBUTED
from repro.telemetry.tracer import _NOOP_SPAN

#: Each remote-fork mechanism and the prefix of its spans.
SPAN_PREFIX = {"cxlfork": "cxlfork", "criu-cxl": "criu", "mitosis-cxl": "mitosis"}


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


@pytest.fixture
def traced():
    """The global tracer, enabled for one test and restored after."""
    TRACE.reset()
    TRACE.enable()
    yield TRACE
    TRACE.disable()
    TRACE.reset()


class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricRegistry()
        registry.counter("x").add()
        registry.counter("x").add(2)
        assert registry.counter("x").value == 3

    def test_histogram_stats(self):
        registry = MetricRegistry()
        h = registry.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.percentile(50) == 2.5

    def test_empty_histogram(self):
        h = MetricRegistry().histogram("empty")
        assert h.mean is None
        assert h.percentile(99) is None
        assert h.to_numpy().size == 0

    def test_clear(self):
        registry = MetricRegistry()
        registry.counter("a").add()
        registry.histogram("b").observe(1)
        registry.clear()
        assert registry.counters == {} and registry.histograms == {}


class TestSpans:
    def test_span_snapshots_virtual_time(self, tracer):
        clock = Clock()
        clock.advance(100)
        with tracer.span("op", clock=clock) as span:
            clock.advance(250)
        assert span.start_ns == 100
        assert span.end_ns == 350
        assert span.duration_ns == 250

    def test_child_inherits_clock_and_parent(self, tracer):
        clock = Clock()
        with tracer.span("outer", clock=clock) as outer:
            with tracer.span("inner") as inner:
                clock.advance(10)
            assert inner.clock is clock
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration_ns == 10

    def test_phases_tile_from_span_start(self, tracer):
        clock = Clock()
        clock.advance(1000)
        with tracer.span("restore", clock=clock) as span:
            span.add_phase("attach", 30)
            span.add_phase("fixup", 70)
            clock.advance(100)
        attach, fixup = tracer.spans("attach")[0], tracer.spans("fixup")[0]
        assert (attach.start_ns, attach.end_ns) == (1000, 1030)
        assert (fixup.start_ns, fixup.end_ns) == (1030, 1100)
        assert attach.duration_ns + fixup.duration_ns == span.duration_ns
        assert attach.parent_id == span.span_id

    def test_add_span_records_background_work(self, tracer):
        clock = Clock()
        tracer.add_span("prefetch", 500, 200, clock=clock, pages=17)
        (span,) = tracer.spans("prefetch")
        assert (span.start_ns, span.end_ns) == (500, 700)
        assert span.attrs["pages"] == 17

    def test_set_updates_attrs(self, tracer):
        with tracer.span("op", clock=Clock()) as span:
            span.set(pages=3)
        assert span.attrs["pages"] == 3

    def test_distinct_clocks_get_distinct_tracks(self, tracer):
        a, b = Clock(), Clock()
        tracer.register_track(a, "node0")
        with tracer.span("x", clock=a):
            pass
        with tracer.span("y", clock=b):
            pass
        sa, sb = tracer.spans("x")[0], tracer.spans("y")[0]
        assert sa.track != sb.track
        assert tracer.track_name(sa.track) == "node0"

    def test_exception_exits_span(self, tracer):
        clock = Clock()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", clock=clock):
                clock.advance(5)
                raise RuntimeError
        (span,) = tracer.spans("boom")
        assert span.end_ns == 5
        assert tracer._stack == []


class TestDisabled:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("op", clock=Clock(), attr=1) as span:
            span.add_phase("p", 10)
            span.set(x=2)
        tracer.add_span("bg", 0, 10)
        tracer.count("c")
        tracer.observe("h", 1.0)
        assert tracer.spans() == []
        assert tracer.metrics.counters == {}
        assert tracer.metrics.histograms == {}

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NOOP_SPAN
        assert tracer.span("b") is tracer.span("c")
        assert not _NOOP_SPAN.recording

    def test_global_tracer_disabled_by_default(self):
        assert TRACE.enabled is False

    def test_reset_keeps_enabled_flag(self, tracer):
        with tracer.span("x", clock=Clock()):
            pass
        tracer.count("c")
        tracer.reset()
        assert tracer.enabled
        assert tracer.spans() == []
        assert tracer.metrics.counters == {}


class TestBreakdown:
    def test_groups_by_top_level_name(self, tracer):
        clock = Clock()
        for _ in range(3):
            with tracer.span("restore", clock=clock) as span:
                span.add_phase("attach", 40)
                span.add_phase("fixup", 60)
                clock.advance(100)
        breakdown = Breakdown.from_tracer(tracer)
        group = breakdown.group("restore")
        assert group.count == 3
        assert group.total_ns == 300
        assert group.phases["attach"].total_ns == 120
        assert group.phases["fixup"].mean_ns == 60
        assert group.attributed_ns == group.total_ns
        assert UNATTRIBUTED not in group.phases

    def test_unattributed_residue(self, tracer):
        clock = Clock()
        with tracer.span("op", clock=clock) as span:
            span.add_phase("known", 30)
            clock.advance(100)
        group = Breakdown.from_tracer(tracer).group("op")
        assert group.phases[UNATTRIBUTED].total_ns == pytest.approx(70)

    def test_names_filter(self, tracer):
        clock = Clock()
        with tracer.span("keep", clock=clock):
            clock.advance(10)
        with tracer.span("drop", clock=clock):
            clock.advance(10)
        breakdown = Breakdown.from_tracer(tracer, names=["keep"])
        assert set(breakdown.groups) == {"keep"}
        assert breakdown.total_ns == 10

    def test_format_table_mentions_phases(self, tracer):
        clock = Clock()
        with tracer.span("op", clock=clock) as span:
            span.add_phase("attach", 100)
            clock.advance(100)
        table = Breakdown.from_tracer(tracer).format_table()
        assert "op" in table and "attach" in table and "100.0%" in table


class TestExporters:
    def _populate(self, tracer):
        clock = Clock()
        tracer.register_track(clock, "node0")
        with tracer.span("cxlfork.restore", clock=clock, comm="f") as span:
            span.add_phase("attach", 40)
            clock.advance(40)
        tracer.count("kernel.forks", 2)
        tracer.observe("lat", 5.0)

    def test_chrome_events_shape(self, tracer):
        self._populate(tracer)
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        parent = next(e for e in complete if e["name"] == "cxlfork.restore")
        assert parent["cat"] == "cxlfork"
        assert parent["dur"] == pytest.approx(0.04)  # 40 ns in µs
        assert parent["args"]["comm"] == "f"
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "node0"
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 2

    def test_chrome_trace_file_is_valid_json(self, tracer, tmp_path):
        self._populate(tracer)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count
        assert all("ph" in e for e in document["traceEvents"])

    def test_jsonl_lines_parse(self, tracer, tmp_path):
        self._populate(tracer)
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(str(path), tracer)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        kinds = {record["type"] for record in lines}
        assert kinds == {"span", "counter", "histogram"}
        histogram = next(r for r in lines if r["type"] == "histogram")
        assert histogram["count"] == 1 and histogram["mean"] == 5.0


class TestInstrumentation:
    """Tracing wired through the real mechanisms."""

    @pytest.mark.parametrize("mech_name", list(SPAN_PREFIX))
    def test_phases_match_metrics(self, traced, pod, mech_name):
        from repro.faas.workload import FunctionWorkload
        from repro.rfork.registry import get_mechanism

        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, cmetrics = mech.checkpoint(instance.task)
        result = mech.restore(ckpt, pod.target)

        (cspan,) = traced.spans(f"{SPAN_PREFIX[mech_name]}.checkpoint")
        assert cspan.duration_ns == pytest.approx(cmetrics.latency_ns, abs=1)
        (rspan,) = traced.spans(f"{SPAN_PREFIX[mech_name]}.restore")
        assert rspan.duration_ns == pytest.approx(result.metrics.latency_ns, abs=1)
        # Phase children reproduce the metrics breakdown exactly.
        children = [
            s for s in traced.spans() if s.parent_id == rspan.span_id
        ]
        by_phase = {}
        for child in children:
            by_phase[child.name] = by_phase.get(child.name, 0) + child.duration_ns
        for phase, ns in result.metrics.breakdown.items():
            assert by_phase[phase] == pytest.approx(ns, abs=1)

    @pytest.mark.parametrize("mech_name", list(SPAN_PREFIX))
    def test_breakdown_sum_within_one_percent_of_total(self, traced, pod, mech_name):
        from repro.faas.workload import FunctionWorkload
        from repro.rfork.registry import get_mechanism

        workload = FunctionWorkload("json")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(instance.task)
        result = mech.restore(ckpt, pod.target)

        group = Breakdown.from_tracer(traced).group(f"{SPAN_PREFIX[mech_name]}.restore")
        assert group.attributed_ns == pytest.approx(group.total_ns, rel=0.01)
        assert group.total_ns == pytest.approx(result.metrics.latency_ns, rel=0.01)

    def test_kernel_counters_emitted(self, traced, pod):
        kernel = pod.source.kernel
        task = kernel.spawn_task("t")
        vma = kernel.map_anon_region(task, 16, label="heap", populate=False)
        stats = kernel.access_range(task, vma.start_vpn, 16, write=True)
        assert stats.total_faults > 0
        counters = traced.metrics.counters
        assert counters["kernel.task_spawn"].value >= 1
        assert any(name.startswith("kernel.fault.") for name in counters)
        assert traced.metrics.histograms["kernel.fault_batch_cost_ns"].count == 1

    def test_invoke_span_records_fault_attr(self, traced, pod):
        from repro.faas.workload import FunctionWorkload

        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.invoke(instance)
        (invoke,) = traced.spans("faas.invoke")
        assert invoke.attrs["faults"] >= 0
        assert invoke.attrs["function"] == "float"

    def test_disabled_tracer_leaves_no_trace(self, pod):
        from repro.faas.workload import FunctionWorkload

        assert not TRACE.enabled
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.invoke(instance)
        assert TRACE.spans() == []
        assert TRACE.metrics.counters == {}


class TestLatencyRecorderBacking:
    def test_recorder_exposes_histograms(self):
        from repro.porter.metrics import LatencyRecorder

        recorder = LatencyRecorder()
        recorder.record("f", 2e6, kind="cold")
        recorder.record("f", 4e6)
        histogram = recorder.histogram("f")
        assert histogram.count == 2
        assert recorder.kinds("f") == ["cold", "warm"]
        assert recorder.histogram("missing") is None

    def test_registries_are_isolated(self):
        from repro.porter.metrics import LatencyRecorder

        a, b = LatencyRecorder(), LatencyRecorder()
        a.record("f", 1e6, kind="cold")
        assert b.count() == 0
        assert b.start_kind_counts() == {}
