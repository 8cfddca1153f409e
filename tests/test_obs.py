"""Unit tests of the observability substrate (:mod:`repro.obs`).

Span nesting and attribute folding, thread-safety and re-entrancy of
the phase compatibility layer, the metrics registry, the worker records
that ride back with a task's result and their driver-side fold,
run-manifest round-trips and the ``repro-stats`` summaries — all
without touching the synthesis or simulation pipeline, so these tests
are fast and dependency-free.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    Tracer,
    append_manifest,
    fold_spill_record,
    load_manifests,
    metric_count,
    metric_observe,
    metrics_run,
    observed_call,
    record_counter_deltas,
    resolve_telemetry_dir,
    span,
    telemetry_active,
    telemetry_run,
    trace_run,
)
from repro.obs.stats_cli import main as stats_main
from repro.obs.trace import PHASES, collect_phases


@pytest.fixture(autouse=True)
def _isolated_telemetry_env(repro_env):
    """Shield these tests from a suite-wide $REPRO_TELEMETRY_DIR (CI leg)."""
    repro_env(REPRO_TELEMETRY_DIR=None)


class TestSpans:
    def test_spans_nest_into_paths(self):
        with trace_run() as tracer:
            with span("synthesize"):
                with span("synth.optimize"):
                    pass
            with span("simulate"):
                pass
            with span("simulate"):
                pass
        assert set(tracer.spans) == {"synthesize", "synthesize/synth.optimize",
                                     "simulate"}
        assert tracer.spans["simulate"].calls == 2
        assert tracer.spans["synthesize/synth.optimize"].name == "synth.optimize"
        for stats in tracer.spans.values():
            assert stats.wall_s >= 0.0
            assert stats.cpu_s >= 0.0

    def test_numeric_attrs_sum_others_keep_last(self):
        with trace_run() as tracer:
            with span("simulate", transitions=100, design="a"):
                pass
            with span("simulate", transitions=np.int64(28), design="b"):
                pass
        attrs = tracer.spans["simulate"].attrs
        assert attrs["transitions"] == 128
        assert isinstance(attrs["transitions"], int)  # numpy scalars cleaned
        assert attrs["design"] == "b"

    def test_span_is_noop_without_tracer(self):
        with span("simulate"):
            pass  # must not raise, and nothing to observe

    def test_tracers_stack(self):
        with trace_run() as outer:
            with span("score"):
                pass
            with trace_run() as inner:
                with span("simulate"):
                    pass
        assert set(outer.spans) == {"score", "simulate"}
        assert set(inner.spans) == {"simulate"}

    def test_phase_totals_and_attribution(self):
        tracer = Tracer()
        tracer.merge_span("synthesize", "synthesize", 1.0, 0.9, 2, {})
        tracer.merge_span("synthesize/synth.optimize", "synth.optimize",
                          0.6, 0.5, 2, {})
        tracer.merge_span("schedule.wait", "schedule.wait", 3.0, 0.0, 1, {})
        totals = tracer.phase_totals()
        assert totals["synthesize"]["calls"] == 2
        assert totals["synth.optimize"]["wall_s"] == pytest.approx(0.6)
        # Dotted names (sub-phases, scheduling wait) are not attributed.
        assert tracer.attributed_wall_s() == pytest.approx(1.0)


class TestPhasesCompat:
    def test_collect_phases_records_names_and_calls(self):
        with collect_phases() as phases:
            with span("synthesize"):
                with span("synth.optimize"):
                    pass
            with span("simulate"):
                pass
        assert phases.calls == {"synthesize": 1, "synth.optimize": 1,
                                "simulate": 1}
        assert "attributed" in phases.describe()

    def test_total_excludes_dotted_subphases(self):
        with collect_phases() as times:
            tracer = times.tracer
            tracer.merge_span("synthesize", "synthesize", 1.0, 0.0, 1, {})
            tracer.merge_span("synthesize/synth.optimize", "synth.optimize",
                              0.4, 0.0, 1, {})
            tracer.merge_span("schedule.wait", "schedule.wait", 5.0, 0.0, 1, {})
        assert times.seconds == pytest.approx(
            {"synthesize": 1.0, "synth.optimize": 0.4, "schedule.wait": 5.0})
        assert times.total() == pytest.approx(1.0)
        assert "schedule.wait" in PHASES

    def test_nested_collectors_stack(self):
        with collect_phases() as outer:
            with span("score"):
                pass
            with collect_phases() as inner:
                with span("simulate"):
                    pass
        assert set(outer.seconds) == {"score", "simulate"}
        assert set(inner.seconds) == {"simulate"}

    def test_collectors_are_thread_local(self):
        errors = []
        barrier = threading.Barrier(2)

        def worker(name):
            try:
                with collect_phases() as phases:
                    barrier.wait(timeout=5)
                    with span(name):
                        barrier.wait(timeout=5)
                    assert set(phases.seconds) == {name}, phases.seconds
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("synthesize", "simulate")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_collector_exposes_tracer(self):
        with collect_phases() as phases:
            with span("synthesize"):
                with span("synth.sta"):
                    pass
        assert "synthesize/synth.sta" in phases.tracer.spans


class TestMetrics:
    def test_counters_gauges_histograms(self):
        with metrics_run() as registry:
            metric_count("jobs.simulated", 3)
            metric_count("jobs.simulated")
            metric_observe("plan.group_size", 4)
            metric_observe("plan.group_size", 8)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["jobs.simulated"] == 4
        histogram = snapshot["histograms"]["plan.group_size"]
        assert histogram == {"count": 2, "total": 12.0, "min": 4.0,
                             "max": 8.0, "mean": 6.0}

    def test_metrics_are_noops_without_registry(self):
        metric_count("jobs.simulated")  # must not raise

    def test_merge_snapshot(self):
        first = MetricsRegistry()
        first.count("cache.hits", 2)
        first.observe("plan.group_size", 4)
        second = MetricsRegistry()
        second.count("cache.hits", 3)
        second.observe("plan.group_size", 10)
        second.merge_snapshot(first.snapshot())
        snapshot = second.snapshot()
        assert snapshot["counters"]["cache.hits"] == 5
        assert snapshot["histograms"]["plan.group_size"]["count"] == 2
        assert snapshot["histograms"]["plan.group_size"]["max"] == 10.0

    def test_record_counter_deltas_skips_zeroes(self):
        with metrics_run() as registry:
            record_counter_deltas("cache", {"hits": 2, "misses": 0})
        assert registry.snapshot()["counters"] == {"cache.hits": 2}


class TestSpill:
    def test_observed_call_returns_record_and_fold_merges(self):
        def task(value):
            with span("simulate"):
                pass
            metric_count("jobs.simulated")
            return value * 2

        with trace_run() as tracer, metrics_run() as registry:
            assert telemetry_active()
            result, record = observed_call(task, 21)
            assert result == 42
            assert set(record) == {"pid", "busy_s", "tasks", "spans", "metrics"}
            # Nothing is observed until the caller folds the record.
            assert "simulate" not in tracer.spans
            fold_spill_record(record)
        assert tracer.spans["simulate"].calls == 1
        assert registry.snapshot()["counters"]["jobs.simulated"] == 1
        assert len(tracer.workers) == 1
        worker = next(iter(tracer.workers.values()))
        assert worker["tasks"] == 1
        assert worker["busy_s"] >= 0.0

    def test_observed_call_isolates_worker_from_ambient_tracers(self):
        # The task runs in an empty context: the ambient tracer must not
        # observe the task's spans directly (only through the fold).
        def task():
            with span("simulate"):
                pass

        with trace_run() as tracer:
            _, record = observed_call(task)
        assert "simulate" not in tracer.spans
        assert record["spans"]["simulate"]["calls"] == 1

    def test_telemetry_active_reflects_context(self):
        assert not telemetry_active()
        with trace_run():
            assert telemetry_active()
        assert not telemetry_active()


class TestManifests:
    def test_manifest_roundtrip_schema(self, tmp_path):
        with telemetry_run(tmp_path, command="unit-test",
                           config={"width": 16}) as handle:
            with span("simulate"):
                pass
            metric_count("jobs.simulated", 2)
            handle.annotate(note="hello")
        assert handle.enabled
        assert handle.manifest_path is not None
        [manifest] = load_manifests(tmp_path)
        assert manifest == handle.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["command"] == "unit-test"
        assert manifest["config"] == {"width": 16}
        assert manifest["metrics"]["counters"]["jobs.simulated"] == 2
        assert manifest["phases"]["simulate"]["calls"] == 1
        assert manifest["note"] == "hello"
        assert manifest["elapsed_s"] > 0
        assert 0.0 <= manifest["attributed_fraction"]
        assert manifest["accounted_s"] >= manifest["attributed_s"]
        for key in ("run_id", "timestamp", "library_version", "host",
                    "spans", "workers"):
            assert key in manifest

    def test_nested_sessions_write_one_manifest(self, tmp_path):
        with telemetry_run(tmp_path, command="outer"):
            with telemetry_run(tmp_path, command="inner") as inner:
                with span("simulate"):
                    pass
            assert not inner.enabled
        manifests = load_manifests(tmp_path)
        assert [m["command"] for m in manifests] == ["outer"]
        # The inner block's spans were observed by the outer session.
        assert manifests[0]["phases"]["simulate"]["calls"] == 1

    def test_disabled_without_directory(self):
        with telemetry_run(None, command="nothing") as handle:
            pass
        assert not handle.enabled
        assert handle.manifest is None

    def test_inline_builds_manifest_without_directory(self):
        with telemetry_run(None, command="inline", inline=True) as handle:
            metric_count("jobs.simulated")
        assert handle.manifest is not None
        assert handle.manifest_path is None
        assert handle.manifest["metrics"]["counters"]["jobs.simulated"] == 1

    def test_env_var_activates(self, tmp_path, repro_env):
        repro_env(REPRO_TELEMETRY_DIR=str(tmp_path))
        assert resolve_telemetry_dir(None) == str(tmp_path)
        with telemetry_run(resolve_telemetry_dir(None), command="env-run"):
            pass
        assert [m["command"] for m in load_manifests(tmp_path)] == ["env-run"]

    def test_load_manifests_tolerates_garbage(self, tmp_path):
        append_manifest(tmp_path, {"schema": MANIFEST_SCHEMA, "command": "ok"})
        with open(tmp_path / "manifests.jsonl", "a") as handle:
            handle.write("not json\n")
        assert [m["command"] for m in load_manifests(tmp_path)] == ["ok"]
        assert load_manifests(tmp_path / "missing") == []


class TestStatsCli:
    def _write_runs(self, directory):
        with telemetry_run(directory, command="run_sweep"):
            with span("simulate"):
                pass
            metric_count("cache.hits", 3)
            metric_count("cache.misses", 1)
        with telemetry_run(directory, command="run_sweep"):
            with span("synthesize"):
                pass
            metric_count("cache.hits", 4)

    def test_stats_over_multiple_runs(self, tmp_path, capsys):
        self._write_runs(tmp_path)
        assert stats_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "Slowest phases" in out
        assert "hit rate" in out

    def test_stats_json_payload(self, tmp_path, capsys):
        self._write_runs(tmp_path)
        assert stats_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["runs"] == 2
        trend = payload["telemetry"]["cache_trend"]
        assert [row["hits"] for row in trend] == [3, 4]
        assert trend[0]["hit_rate"] == pytest.approx(0.75)

    def test_stats_requires_something_to_summarise(self, capsys):
        with pytest.raises(SystemExit):
            stats_main([])
