"""The ``repro.obs`` layer: spans, metrics, exporters, propagation.

Covers the tentpole contracts: null-recorder default (zero state, valid
``elapsed``), deterministic span hierarchies and trace inheritance,
byte-stable Prometheus/Chrome exports, exactly-once pool buffer merges
with deterministic ordering, serve worker-thread spans + ``/metrics``,
and the schema-v2 ``provenance.obs`` summary round-trip.
"""

import json

import pytest

from repro.flow import FlowSpec, platform_spec, run_many
from repro.flow.runner import Flow
from repro.flow.spec import spec_hash
from repro.obs import (
    DEFAULT_BUCKETS,
    Counters,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    capture,
    disable,
    enable,
    get_recorder,
    now,
)
from repro.obs.export import (
    chrome_trace,
    phase_summary,
    phase_totals,
    read_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.results.record import RECORD_SCHEMA_VERSION, RunRecord


SPEC = platform_spec("Bm1", policy="heuristic3")
THERMAL_SPEC = platform_spec("Bm1", policy="thermal")


def run_traced(spec):
    with capture() as recorder:
        result = Flow().run(spec)
    return result, recorder


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc(2)
        registry.gauge("a.depth").set(7)
        registry.histogram("a.wait_s").observe(0.003)
        assert registry.counter("a.hits").value == 3
        assert registry.gauge("a.depth").value == 7.0
        assert registry.histogram("a.wait_s").count == 1

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labels_key_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("req", code=200).inc()
        registry.counter("req", code=500).inc(4)
        assert registry.counter("req", code=200).value == 1
        assert registry.counter("req", code=500).value == 4

    def test_histogram_quantile_is_bucket_bound(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(0.99) == 10.0
        assert Histogram().quantile(0.5) == 0.0

    def test_prometheus_text_is_byte_stable(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b.misses").inc(2)
            registry.counter("a.hits", worker="w1").inc()
            registry.gauge("depth").set(3)
            registry.histogram("wait_s").observe(0.004)
            return registry.to_prometheus_text()

        first, second = build(), build()
        assert first == second
        assert "# TYPE repro_a_hits counter" in first
        assert 'repro_a_hits{worker="w1"} 1' in first
        assert 'repro_wait_s_bucket{le="+Inf"} 1' in first
        assert first.index("repro_a_hits") < first.index("repro_b_misses")

    def test_export_merge_adds(self):
        source = MetricsRegistry()
        source.counter("n").inc(3)
        source.histogram("h").observe(0.02)
        target = MetricsRegistry()
        target.counter("n").inc()
        target.merge(source.export())
        target.merge(source.export())
        assert target.counter("n").value == 7
        assert target.histogram("h").count == 2


class TestCounters:
    def test_mapping_drop_in(self):
        bundle = Counters(("completed", "failed"))
        bundle.inc("completed")
        bundle.inc("completed", 2)
        assert bundle["completed"] == 3 and bundle["failed"] == 0
        assert dict(bundle) == {"completed": 3, "failed": 0}
        assert sum(bundle.values()) == 3
        assert bundle == {"completed": 3, "failed": 0}
        assert bundle != {"completed": 3}
        assert bundle.as_dict() == dict(bundle)

    def test_mirrors_into_enabled_recorder(self):
        with capture() as recorder:
            bundle = Counters(("hits",), namespace="unit.cache")
            bundle.inc("hits", 5)
        assert recorder.metrics.counter("unit.cache.hits").value == 5

    def test_keyword_init_mirrors_nonzero_only(self):
        with capture() as recorder:
            Counters(namespace="unit.s", steps=4, idle=0)
        exported = recorder.metrics.export()
        names = [entry["name"] for entry in exported["counters"]]
        assert names == ["unit.s.steps"]

    def test_no_namespace_never_touches_recorder(self):
        with capture() as recorder:
            Counters(hits=3).inc("hits")
        assert recorder.metrics.export()["counters"] == []


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_null_recorder_is_the_default(self):
        recorder = get_recorder()
        assert isinstance(recorder, NullRecorder)
        assert recorder.enabled is False
        assert recorder.export_spans() == []

    def test_null_span_still_measures(self):
        with NullRecorder().span("x") as span:
            pass
        assert span.end is not None and span.elapsed >= 0.0

    def test_nesting_parent_and_trace_inheritance(self):
        recorder = Recorder()
        with recorder.span("outer", trace="t1") as outer:
            with recorder.span("inner") as inner:
                pass
        spans = recorder.export_spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == outer.span_id
        assert spans[0]["trace"] == "t1"
        assert spans[1]["parent"] is None
        assert inner.span_id != outer.span_id

    def test_emit_files_under_current_span(self):
        recorder = Recorder()
        start = now()
        with recorder.span("req", trace="r1"):
            recorder.emit("queue", start, now(), worker="w0")
        queue, req = recorder.export_spans()
        assert queue["name"] == "queue"
        assert queue["parent"] == req["id"]
        assert queue["trace"] == "r1"
        assert queue["attrs"] == {"worker": "w0"}

    def test_buffer_bound_counts_drops(self):
        recorder = Recorder(max_spans=2)
        for index in range(4):
            with recorder.span(f"s{index}"):
                pass
        assert len(recorder.export_spans()) == 2
        assert recorder.dropped == 2
        recorder.clear()
        assert recorder.export_spans() == [] and recorder.dropped == 0

    def test_merge_buffer_remaps_ids_and_relabels_proc(self):
        worker = Recorder()
        with worker.span("flow", trace="abc"):
            with worker.span("flow.run"):
                pass
        parent = Recorder()
        with parent.span("host"):
            pass
        parent.merge_buffer(worker.export_buffer(), proc="pool:abc")
        spans = parent.export_spans()
        merged = {s["name"]: s for s in spans if s["proc"] == "pool:abc"}
        assert set(merged) == {"flow", "flow.run"}
        assert merged["flow.run"]["parent"] == merged["flow"]["id"]
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))

    def test_merge_buffer_merges_metrics(self):
        worker = Recorder()
        worker.counter("n", 3)
        parent = Recorder()
        parent.merge_buffer(worker.export_buffer())
        assert parent.metrics.counter("n").value == 3

    def test_capture_restores_previous_recorder(self):
        outer = enable()
        try:
            with capture() as inner:
                assert get_recorder() is inner
            assert get_recorder() is outer
        finally:
            disable()
        assert get_recorder().enabled is False


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def _spans(self):
        recorder = Recorder()
        with recorder.span("flow", trace="abc", policy="thermal"):
            with recorder.span("flow.run"):
                pass
        return recorder.export_spans()

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        spans = self._spans()
        path = write_jsonl(tmp_path / "t.jsonl", spans)
        assert read_spans(path) == spans

    def test_chrome_trace_shape(self):
        payload = chrome_trace(self._spans())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"flow", "flow.run"}
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        flow = next(e for e in complete if e["name"] == "flow")
        assert flow["args"] == {"policy": "thermal", "trace": "abc"}
        assert min(e["ts"] for e in complete) == 0.0

    def test_chrome_round_trip_preserves_timing(self, tmp_path):
        spans = self._spans()
        path = write_chrome_trace(tmp_path / "t.json", spans)
        loaded = read_spans(path)
        assert {s["name"] for s in loaded} == {"flow", "flow.run"}
        assert phase_totals(loaded) == pytest.approx(
            phase_totals(spans), abs=1e-5
        )

    def test_phase_summary_ordering(self):
        spans = [
            {"name": "b", "start": 0.0, "end": 2.0},
            {"name": "a", "start": 0.0, "end": 1.0},
            {"name": "a", "start": 0.0, "end": 1.0},
        ]
        rows = phase_summary(spans)
        assert [row["phase"] for row in rows] == ["a", "b"]
        assert rows[0] == {
            "phase": "a", "count": 2, "total_s": 2.0,
            "mean_s": 1.0, "min_s": 1.0, "max_s": 1.0,
        }


# ----------------------------------------------------------------------
# flow instrumentation
# ----------------------------------------------------------------------
class TestFlowSpans:
    def test_phase_spans_and_trace_id(self):
        result, recorder = run_traced(THERMAL_SPEC)
        spans = recorder.export_spans()
        names = {s["name"] for s in spans}
        assert {
            "flow", "flow.library", "flow.floorplan", "flow.thermal_build",
            "flow.schedule", "flow.evaluate", "flow.run",
        } <= names
        digest = spec_hash(THERMAL_SPEC)[:16]
        assert all(s["trace"] == digest for s in spans)
        root = next(s for s in spans if s["name"] == "flow")
        assert root["parent"] is None
        children = [s for s in spans if s["parent"] == root["id"]]
        assert {"flow.library", "flow.run"} <= {s["name"] for s in children}

    def test_phase_span_sum_close_to_root(self):
        _result, recorder = run_traced(THERMAL_SPEC)
        totals = phase_totals(recorder.export_spans())
        covered = totals.get("flow.library", 0.0) + totals.get("flow.run", 0.0)
        assert covered <= totals["flow"]
        assert covered >= 0.5 * totals["flow"]

    def test_provenance_obs_summary(self):
        result, _recorder = run_traced(THERMAL_SPEC)
        summary = result.provenance["obs"]
        assert summary["trace_id"] == spec_hash(THERMAL_SPEC)[:16]
        assert set(summary["phases"]) >= {"build", "run"}
        assert 0.0 <= summary["scheduler_fast_hit_rate"] <= 1.0

    def test_disabled_run_has_no_obs_key_and_same_content(self):
        disabled = Flow().run(SPEC)
        traced, _recorder = run_traced(SPEC)
        assert "obs" not in disabled.provenance
        strip = ("provenance", "timings")
        plain = {
            k: v for k, v in disabled.as_record(suite="t").to_dict().items()
            if k not in strip
        }
        observed = {
            k: v for k, v in traced.as_record(suite="t").to_dict().items()
            if k not in strip
        }
        assert plain == observed

    def test_timings_present_without_recorder(self):
        result = Flow().run(SPEC)
        assert result.timings["build"] > 0.0
        assert result.timings["run"] > 0.0

    def test_flow_metrics_counters(self):
        _result, recorder = run_traced(THERMAL_SPEC)
        exported = {
            entry["name"]: entry["value"]
            for entry in recorder.metrics.export()["counters"]
        }
        assert exported["flow.runs"] == 1
        assert exported["flow.hotspot_queries"] > 0
        assert exported["scheduler.candidates_evaluated"] > 0
        assert exported["scheduler.thermal_fast_queries"] > 0


class TestMigratedStatsShapes:
    def test_scheduler_stats_keep_dict_shape(self):
        result = Flow().run(THERMAL_SPEC)
        scheduler = result.diagnostics["scheduler"]
        assert set(scheduler) == {
            "steps", "candidates_evaluated", "thermal_fast_path",
            "thermal_fast_queries", "thermal_exact_requeries",
        }
        assert all(isinstance(v, int) for v in scheduler.values())

    def test_dse_thermal_stats_keep_dict_shape(self):
        from repro.dse.driver import screen_placement
        from repro.obs import Counters

        placement = (("a", 0.0, 0.0, 2.0, 2.0), ("b", 2.0, 0.0, 2.0, 2.0))
        stats = Counters(("full_rebuilds",), namespace="dse.thermal")
        assert dict(stats) == {"full_rebuilds": 0}
        with capture() as recorder:
            screen_placement(placement, stats)
            screen_placement(placement, stats)
        assert dict(stats) == {"full_rebuilds": 2}
        exported = {
            entry["name"]: entry["value"]
            for entry in recorder.metrics.export()["counters"]
        }
        assert exported["dse.thermal.full_rebuilds"] == 2


# ----------------------------------------------------------------------
# pool propagation
# ----------------------------------------------------------------------
class TestPoolPropagation:
    def test_worker_buffers_merge_exactly_once_in_input_order(self):
        specs = [SPEC, platform_spec("Bm2", policy="heuristic3")]
        with capture() as recorder:
            results = run_many(specs, workers=2)
        assert all(result.obs is None for result in results)
        spans = recorder.export_spans()
        flows = [s for s in spans if s["name"] == "flow"]
        assert [s["proc"] for s in flows] == [
            f"pool:{spec_hash(spec)[:12]}" for spec in specs
        ]
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        for flow in flows:
            children = [s for s in spans if s["parent"] == flow["id"]]
            assert {"flow.library", "flow.run"} <= {s["name"] for s in children}
            assert all(s["proc"] == flow["proc"] for s in children)
        counters = {
            entry["name"]: entry["value"]
            for entry in recorder.metrics.export()["counters"]
        }
        assert counters["flow.runs"] == 2
        assert counters["batch.cache.misses"] == 2
        waits = [s for s in spans if s["name"] == "batch.wait"]
        assert len(waits) == 2 and all(s["proc"] == "main" for s in waits)

    def test_cache_hits_counted_and_cached_rows_clean(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_many([SPEC], cache_dir=cache_dir)
        with capture() as recorder:
            results = run_many([SPEC], cache_dir=cache_dir)
        assert results[0].obs is None
        counters = {
            entry["name"]: entry["value"]
            for entry in recorder.metrics.export()["counters"]
        }
        assert counters["batch.cache.hits"] == 1
        assert "batch.cache.misses" not in counters

    def test_untraced_pool_results_carry_no_buffers(self):
        results = run_many([SPEC], workers=2)
        assert results[0].obs is None


# ----------------------------------------------------------------------
# serve integration
# ----------------------------------------------------------------------
class TestServeObs:
    def test_request_spans_and_metrics_endpoint(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeDaemon

        before = get_recorder()
        with ServeDaemon(port=0, workers=2) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0)
            first = client.submit(SPEC, store=False)
            second = client.submit(SPEC, store=False)
            recorder = get_recorder()
            assert recorder.enabled
            spans = recorder.export_spans()
            requests = [s for s in spans if s["name"] == "serve.request"]
            queues = [s for s in spans if s["name"] == "serve.queue"]
            assert {s["trace"] for s in requests} == {
                first["request_id"], second["request_id"]
            }
            assert len(requests) == 2 and len(queues) == 2
            assert all(
                s["thread"].startswith("serve-worker-") for s in requests
            )
            for queue_span in queues:
                parent = next(
                    s for s in requests if s["trace"] == queue_span["trace"]
                )
                assert queue_span["parent"] == parent["id"]
            flows = [s for s in spans if s["name"] == "flow"]
            assert {s["parent"] for s in flows} == {s["id"] for s in requests}

            text = client.metrics()
            assert "repro_serve_http_requests 2" in text
            assert "repro_serve_jobs_completed 2" in text
            assert "repro_serve_request_latency_s_count 2" in text
            assert "repro_serve_queue_depth 0" in text
            assert "repro_serve_workers 2" in text
        assert get_recorder() is before

    def test_obs_false_daemon_serves_empty_metrics(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeDaemon

        with ServeDaemon(port=0, workers=1, obs=False) as daemon:
            assert not get_recorder().enabled
            client = ServeClient(daemon.url, timeout_s=60.0)
            client.submit(SPEC, store=False)
            assert client.metrics() == ""
            assert daemon.stats()["requests"] == 1


# ----------------------------------------------------------------------
# records: schema v2 + provenance.obs round-trip
# ----------------------------------------------------------------------
class TestRecordSchemaV2:
    def test_schema_version_bumped(self):
        assert RECORD_SCHEMA_VERSION == 2

    def test_traced_record_round_trips_with_obs_summary(self):
        result, _recorder = run_traced(THERMAL_SPEC)
        record = result.as_record(suite="obs")
        payload = record.to_dict()
        assert payload["schema_version"] == 2
        assert "obs" in payload["provenance"]
        wire = json.loads(json.dumps(payload))
        restored = RunRecord.from_dict(wire)
        assert restored.to_dict() == payload
        assert restored.provenance["obs"]["phases"] == pytest.approx(
            payload["provenance"]["obs"]["phases"]
        )

    def test_spec_round_trip_unaffected(self):
        assert FlowSpec.from_json(THERMAL_SPEC.to_json()) == THERMAL_SPEC


# ----------------------------------------------------------------------
# the CLI profiling front end: repro trace record
# ----------------------------------------------------------------------
COUNTER_COLUMNS = (
    "candidates", "hotspot_queries", "solver_solves", "fast_queries",
    "exact_requeries", "fast_hit_rate",
)


class TestTraceRecordCli:
    @staticmethod
    def record(capsys, *argv):
        from repro.cli import main

        assert main(["trace", "record", "--json", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def counters(rows):
        return [
            {key: row[key] for key in ("benchmark", "policy") + COUNTER_COLUMNS}
            for row in rows
        ]

    def test_one_row_per_flow_with_diagnostics_counters(self, capsys, tmp_path):
        rows = self.record(
            capsys, "--benchmarks", "Bm1", "Bm2",
            "--policies", "heuristic3", "thermal", "-o", str(tmp_path / "t.json"),
        )
        assert [(r["benchmark"], r["policy"]) for r in rows] == [
            ("Bm1", "heuristic3"), ("Bm1", "thermal"),
            ("Bm2", "heuristic3"), ("Bm2", "thermal"),
        ]
        for row in rows:
            diagnostics = Flow().run(
                platform_spec(row["benchmark"], policy=row["policy"])
            ).diagnostics
            scheduler = diagnostics["scheduler"]
            assert row["candidates"] == scheduler["candidates_evaluated"]
            assert row["hotspot_queries"] == diagnostics["hotspot_queries"]
            assert row["solver_solves"] == (
                diagnostics["thermal_query"]["solver_solves"]
            )
            assert row["fast_queries"] == scheduler["thermal_fast_queries"]
            assert row["exact_requeries"] == scheduler["thermal_exact_requeries"]
            assert row["elapsed_ms"] >= row["run_ms"] > 0.0

    def test_pool_rows_match_serial_and_trace_has_worker_lanes(
        self, capsys, tmp_path
    ):
        grid = ("--benchmarks", "Bm1", "Bm2", "--policies", "heuristic3", "thermal")
        serial = self.record(capsys, *grid, "-o", str(tmp_path / "serial.json"))
        path = tmp_path / "pool.json"
        pooled = self.record(capsys, *grid, "--workers", "2", "-o", str(path))
        assert self.counters(pooled) == self.counters(serial)
        assert any(s["proc"].startswith("pool:") for s in read_spans(path))

    def test_jsonl_trace_summarizes_to_one_flow_span_per_flow(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        rows = self.record(
            capsys, "--benchmarks", "Bm1", "Bm2", "--format", "jsonl",
            "-o", str(path),
        )
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        phases = {
            row["phase"]: row for row in json.loads(capsys.readouterr().out)
        }
        assert phases["flow"]["count"] == len(rows) == 4

    def test_repeat_writes_only_each_flows_kept_repetition(
        self, capsys, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        rows = self.record(
            capsys, "--repeat", "2", "--format", "jsonl", "-o", str(path)
        )
        flows = [s for s in read_spans(path) if s["name"] == "flow"]
        assert len(flows) == len(rows) == 2
        for row, flow in zip(rows, flows):
            assert row["elapsed_ms"] == round(
                1e3 * round(flow["end"] - flow["start"], 6), 3
            )

    def test_cosynthesis_grid_is_profiled(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        rows = self.record(
            capsys, "--flow", "cosynthesis", "--benchmarks", "Bm1",
            "--policies", "thermal", "-o", str(path),
        )
        assert [(r["benchmark"], r["policy"]) for r in rows] == [
            ("Bm1", "thermal")
        ]
        assert "flow.search" in {s["name"] for s in read_spans(path)}

    def test_repeat_below_one_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["trace", "record", "--repeat", "0"])
        assert exc.value.code == 2
        assert "argument --repeat: must be at least 1" in capsys.readouterr().err

    def test_bench_is_not_a_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
