"""Unit tests for repro.obs: registry, tracing, exporters, wiring."""

import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.exporters import (
    chrome_trace,
    lint_metric_names,
    load_spans_jsonl,
    render_flame,
    render_prometheus,
    write_obs_dir,
)
from repro.obs.registry import MetricsRegistry, snapshot_delta
from repro.obs.tracing import NOOP_SPAN, Tracer


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestRegistry:
    def test_disabled_calls_are_noops(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total").labels()
        gauge = registry.gauge("g").labels()
        hist = registry.histogram("h", buckets=(1.0,)).labels()
        counter.inc()
        gauge.set(5)
        hist.observe(0.5)
        assert counter.value == 0
        assert gauge.value == 0
        assert hist.counts == [0, 0]

    def test_enabled_counting(self, registry):
        counter = registry.counter("c_total").labels()
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        gauge = registry.gauge("g").labels()
        gauge.set(7)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 6

    def test_histogram_buckets(self, registry):
        hist = registry.histogram("h", buckets=(1, 2, 4)).labels()
        for value in (0, 1, 2, 3, 100):
            hist.observe(value)
        # bisect_left: <=1, <=1, <=2, <=4, overflow
        assert hist.counts == [2, 1, 1, 1]
        assert hist.sum == 106

    def test_labels_cached_and_validated(self, registry):
        family = registry.counter("c_total", labelnames=("stage",))
        assert family.labels(stage="a") is family.labels(stage="a")
        assert family.labels(stage="a") is not family.labels(stage="b")
        with pytest.raises(ConfigurationError):
            family.labels(wrong="a")

    def test_reregistration_idempotent(self, registry):
        first = registry.counter("c_total", labelnames=("x",))
        assert registry.counter("c_total", labelnames=("x",)) is first
        with pytest.raises(ConfigurationError):
            registry.gauge("c_total")
        with pytest.raises(ConfigurationError):
            registry.counter("c_total", labelnames=("y",))

    def test_reset_keeps_handles_valid(self, registry):
        counter = registry.counter("c_total").labels()
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert counter.value == 1

    def test_snapshot_merge_roundtrip(self, registry):
        registry.counter("c_total", labelnames=("k",)) \
            .labels(k="a").inc(2)
        registry.gauge("g").labels().set(3)
        registry.histogram("h", buckets=(1, 2)).labels().observe(1.5)
        snap = registry.snapshot()
        json.dumps(snap)

        other = MetricsRegistry()
        other.merge(snap)
        other.merge(snap)
        merged = other.snapshot()
        assert merged["c_total"]["series"][0]["value"] == 4
        assert merged["g"]["series"][0]["value"] == 3  # gauges take max
        assert merged["h"]["series"][0]["counts"] == [0, 2, 0]

    def test_snapshot_delta(self, registry):
        counter = registry.counter("c_total").labels()
        idle = registry.counter("idle_total").labels()
        counter.inc(2)
        idle.inc()
        before = registry.snapshot()
        counter.inc(5)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["c_total"]["series"][0]["value"] == 5
        assert "idle_total" not in delta  # zero-delta series dropped

    def test_delta_then_merge_equals_direct(self, registry):
        counter = registry.counter("c_total").labels()
        before = registry.snapshot()
        counter.inc(7)
        parent = MetricsRegistry(enabled=True)
        parent.counter("c_total").labels().inc(1)
        parent.merge(snapshot_delta(before, registry.snapshot()))
        assert parent.snapshot()["c_total"]["series"][0]["value"] == 8


class TestSnapshotDeltaEdges:
    """Merge/delta corners the process-pool aggregation path hits."""

    def test_pid_reuse_across_pool_restarts_adds(self):
        # A restarted pool can hand a new worker a recycled OS pid, so
        # two *different* worker lifetimes ship deltas for identically
        # labelled series.  Merging must add them (counters are
        # increments), never clobber one lifetime with the other.
        main = MetricsRegistry(enabled=True)
        for inc in (3, 2):  # two worker lifetimes, same pid label
            worker = MetricsRegistry(enabled=True)
            family = worker.counter("tasks_total",
                                    labelnames=("pid",))
            before = worker.snapshot()
            family.labels(pid="100").inc(inc)
            main.merge(snapshot_delta(before, worker.snapshot()))
        series = main.snapshot()["tasks_total"]["series"]
        assert series == [{"labels": {"pid": "100"}, "value": 5}]

    def test_series_only_in_after_passes_through(self, registry):
        before = registry.snapshot()
        registry.counter("late_total").labels().inc(4)
        hist = registry.histogram("lat_seconds", buckets=(1.0,))
        hist.labels().observe(0.5)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["late_total"]["series"][0]["value"] == 4
        assert delta["lat_seconds"]["series"][0]["counts"] == [1, 0]
        main = MetricsRegistry(enabled=True)
        main.merge(delta)  # families unknown to the target registry
        assert main.snapshot()["late_total"]["series"][0]["value"] == 4

    def test_empty_registry_delta_is_empty(self):
        registry = MetricsRegistry(enabled=True)
        assert snapshot_delta(registry.snapshot(),
                              registry.snapshot()) == {}

    def test_merge_of_empty_delta_changes_nothing(self, registry):
        registry.counter("c_total").labels().inc(2)
        before = registry.snapshot()
        registry.merge({})
        assert registry.snapshot() == before


class TestTracer:
    def test_disabled_returns_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is NOOP_SPAN
        with tracer.span("a") as span:
            span.set(x=1)
        assert tracer.spans == []

    def test_nesting_and_records(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner"):
                pass
            outer.set(extra=2)
        inner, outer = tracer.spans
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert outer.attrs == {"kind": "test", "extra": 2}
        assert outer.end_ns >= outer.start_ns
        for record in tracer.records():
            json.dumps(record)

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        spans = load_spans_jsonl([path])
        assert [s["name"] for s in spans] == ["a"]

    def test_foreign_records_adopted(self):
        tracer = Tracer(enabled=True)
        tracer.add_records([{"span_id": 1, "parent_id": 0, "name": "w",
                             "start_ns": 0, "end_ns": 10, "attrs": {},
                             "pid": 99}])
        assert [r["name"] for r in tracer.records()] == ["w"]
        tracer.reset()
        assert tracer.records() == []


class TestExporters:
    def test_prometheus_rendering(self, registry):
        registry.counter("c_total", "a counter",
                         labelnames=("k",)).labels(k="a").inc(2)
        registry.histogram("h", buckets=(1, 2)).labels().observe(1.5)
        text = render_prometheus(registry)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="a"} 2' in text
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_prometheus_deterministic(self, registry):
        family = registry.counter("c_total", labelnames=("k",))
        family.labels(k="b").inc()
        family.labels(k="a").inc()
        other = MetricsRegistry(enabled=True)
        fam2 = other.counter("c_total", labelnames=("k",))
        fam2.labels(k="a").inc()
        fam2.labels(k="b").inc()
        assert render_prometheus(registry) == render_prometheus(other)

    def test_chrome_trace_schema(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = chrome_trace(tracer.records())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert {"name", "pid", "tid", "args"} <= set(event)
        json.dumps(doc)

    def test_flame_render(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        text = render_flame(tracer.records())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert render_flame([]) == "(no spans)"

    def test_flame_separates_pids(self):
        """A worker's span ids must not resolve against parent spans."""
        records = [
            {"span_id": 1, "parent_id": 0, "name": "parent",
             "start_ns": 0, "end_ns": 100, "attrs": {}, "pid": 1},
            {"span_id": 2, "parent_id": 1, "name": "work",
             "start_ns": 10, "end_ns": 90, "attrs": {}, "pid": 2},
        ]
        text = render_flame(records)
        assert not any(line.startswith("  work")
                       for line in text.splitlines())

    def test_write_obs_dir(self, tmp_path, registry):
        registry.counter("c_total").labels().inc()
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        paths = write_obs_dir(tmp_path / "obs", registry, tracer)
        names = sorted(p.name for p in paths)
        assert names == ["metrics.json", "metrics.prom", "trace.json",
                         "trace.jsonl"]
        for path in paths:
            assert path.exists()
        doc = json.loads((tmp_path / "obs" / "trace.json").read_text())
        assert doc["traceEvents"]


@pytest.fixture()
def live_obs():
    """Enable the process-wide registry/tracer, restoring after."""
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


class TestMetricLint:
    def test_clean_registry_passes(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("runs_total", "Completed runs")
        registry.gauge("queue_depth", "Live queue depth")
        registry.histogram("task_seconds", "Task wall time",
                           buckets=(1.0,))
        assert lint_metric_names(registry) == []

    def test_counter_without_total_suffix(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("runs", "Completed runs")
        problems = lint_metric_names(registry)
        assert len(problems) == 1
        assert "_total" in problems[0]

    def test_histogram_without_unit_suffix(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("task_latency", "Task wall time",
                           buckets=(1.0,))
        problems = lint_metric_names(registry)
        assert len(problems) == 1
        assert "unit suffix" in problems[0]

    def test_missing_help(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("runs_total")
        problems = lint_metric_names(registry)
        assert len(problems) == 1
        assert "help" in problems[0]

    def test_gauges_need_no_suffix(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("workers", "Pool size")
        assert lint_metric_names(registry) == []

    def test_violations_sorted_by_family(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("zeta", "Z")
        registry.counter("alpha", "A")
        problems = lint_metric_names(registry)
        assert [p.split(":")[0] for p in problems] == ["alpha", "zeta"]

    def test_live_registry_is_clean(self):
        # Import the instrumented modules so their families register,
        # then lint the real registry — the same check obs_smoke runs.
        import repro.core.relay   # noqa: F401
        import repro.exec.runner  # noqa: F401
        import repro.soak.driver  # noqa: F401

        assert lint_metric_names(obs.REGISTRY) == []


class TestTraceAnchors:
    def test_tracer_has_wall_anchor(self):
        tracer = Tracer(enabled=True)
        assert isinstance(tracer.wall_anchor_ns, int)
        with tracer.span("s"):
            pass
        (record,) = tracer.records()
        assert record["anchor_ns"] == tracer.wall_anchor_ns

    def test_merged_processes_align_on_wall_clock(self):
        # Two "processes" whose monotonic clocks have wildly different
        # origins but whose anchors place them 1 ms apart in wall time.
        spans = [
            {"name": "a", "start_ns": 7_000_000, "end_ns": 8_000_000,
             "anchor_ns": 1_000_000_000, "pid": 1},
            {"name": "b", "start_ns": 2_000_000, "end_ns": 3_000_000,
             "anchor_ns": 1_006_000_000, "pid": 2},
        ]
        doc = chrome_trace(spans)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["a"]["ts"] == 0.0
        assert by_name["b"]["ts"] == 1000.0  # +1 ms in wall time

    def test_missing_anchor_falls_back_to_monotonic(self):
        spans = [
            {"name": "a", "start_ns": 7_000_000, "end_ns": 8_000_000,
             "anchor_ns": 1_000_000_000, "pid": 1},
            {"name": "b", "start_ns": 2_000_000, "end_ns": 3_000_000,
             "pid": 2},  # pre-anchor record
        ]
        doc = chrome_trace(spans)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        # Raw monotonic alignment: b starts first.
        assert by_name["b"]["ts"] == 0.0
        assert by_name["a"]["ts"] == 5000.0


class TestInstrumentation:
    def test_simulator_metrics_and_span(self, live_obs):
        from repro.circuit.logic import Logic
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.drive("a", Logic.ZERO, 0)
        sim.drive("a", Logic.ONE, 10)
        sim.run(100)
        snap = obs.REGISTRY.snapshot()
        assert snap["repro_sim_events_total"]["series"][0]["value"] >= 2
        assert snap["repro_sim_toggles_total"]["series"][0]["value"] >= 1
        assert snap["repro_sim_queue_depth"]["series"][0]["value"] == 0
        assert any(s.name == "sim.run" for s in obs.TRACER.spans)

    def test_exec_counters(self, live_obs, tmp_path):
        from repro.exec import ResultCache, SweepRunner
        from repro.exec.runner import expand_grid
        from repro.obs.stream import EventPublisher

        cache = ResultCache(tmp_path)
        tasks = expand_grid("repro.exec.testing:square_task",
                            {"x": (1, 2)})
        runner = SweepRunner(cache=cache)
        publisher = EventPublisher(None, kind="sweep", heartbeat_s=60.0)
        events = []
        publisher.add_listener(events.append)
        publisher.attach(runner.telemetry)
        with publisher:
            cold = runner.run(tasks).summary
            warm = runner.run(tasks).summary
        run = runner.telemetry.run_summary()
        assert (cold["cache_misses"], warm["cache_hits"]) == (2, 2)
        assert (run["cache_misses"], run["cache_hits"]) == (2, 2)
        assert run["events_processed"] == 2
        progress = [e for e in events if e["type"] == "progress"][-1]
        assert progress["executed"] == 2
        assert progress["cached"] == 2
        assert progress["events_processed"] == 2
        assert any(s.name == "sweep.run" for s in obs.TRACER.spans)

    def test_semantic_snapshot_excludes_nonsemantic(self, live_obs):
        obs.REGISTRY.counter("repro_exec_x_total").labels().inc()
        obs.REGISTRY.counter("repro_kernel_x_total").labels().inc()
        obs.REGISTRY.histogram("repro_x_seconds").labels().observe(1)
        obs.REGISTRY.counter("repro_graph_x_total").labels().inc()
        names = set(obs.semantic_snapshot())
        assert "repro_graph_x_total" in names
        assert "repro_exec_x_total" not in names
        assert "repro_kernel_x_total" not in names
        assert "repro_x_seconds" not in names
