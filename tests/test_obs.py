"""Tests for the unified telemetry layer (repro.obs).

Covers: the metrics registry under concurrent writers (counters and
histograms must not lose increments), trace-context propagation across
thread- and process-pool backends, registry adapters over the pre-existing
stats objects, result-cache accounting, and the no-op guarantee — telemetry
on versus off must produce byte-identical join answers.
"""

from __future__ import annotations

import json
import logging
import re
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.data.generators import uniform_relation
from repro.engine import ParallelJoinEngine
from repro.engine.backends import ThreadPoolBackend, execute_task
from repro.engine.routing import build_worker_tasks, route_side
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanContext,
    format_trace_tree,
    log_buckets,
    percentile,
    resolve_level,
    span_record,
    tracer,
)
from repro.obs.tracing import Tracer
from repro.service import BandJoinService
from repro.config import ServiceConfig


@pytest.fixture(autouse=True)
def _isolated_obs_state():
    """Restore the global telemetry switch and drop traces around each test."""
    was_enabled = obs.is_enabled()
    obs.tracer().clear()
    yield
    (obs.enable if was_enabled else obs.disable)()
    obs.tracer().clear()


def _small_join(backend="serial", materialize=True, rows=800):
    s = uniform_relation("S", rows, 1, seed=3)
    t = uniform_relation("T", rows, 1, seed=4)
    condition = BandCondition.symmetric(["A1"], 0.01)
    engine = ParallelJoinEngine(backend=backend)
    return engine.join(s, t, condition, workers=4, materialize=materialize)


class TestPercentileAndBuckets:
    def test_percentile_matches_nearest_rank_semantics(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0
        assert percentile([], 99) == 0.0
        # rank = round(q/100 * (n-1)): q=95 over 5 values -> index 4
        assert percentile(values, 95) == 5.0

    def test_log_buckets_are_ascending_and_cover_range(self):
        buckets = log_buckets(1e-3, 10.0, per_decade=2)
        assert list(buckets) == sorted(buckets)
        assert buckets[0] <= 1e-3 and buckets[-1] >= 10.0

    def test_log_buckets_validate(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)


class TestRegistryConcurrency:
    def test_counter_exact_under_concurrent_writers(self):
        counter = Counter("c_total")
        threads, per_thread = 8, 2000

        def bump():
            for _ in range(per_thread):
                counter.inc(kind="x")

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert counter.value(kind="x") == threads * per_thread

    def test_histogram_exact_count_under_concurrent_writers(self):
        histogram = Histogram("h_seconds", buckets=log_buckets(1e-4, 10.0))
        threads, per_thread = 6, 1500

        def observe(seed):
            rng = np.random.default_rng(seed)
            for value in rng.uniform(1e-4, 5.0, per_thread):
                histogram.observe(float(value))

        workers = [threading.Thread(target=observe, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert histogram.count() == threads * per_thread
        assert histogram.sum() > 0
        median = histogram.quantile(50)
        assert 0.0 < median < 5.0

    def test_histogram_quantile_interpolates(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 50.0, 60.0):
            histogram.observe(value)
        assert histogram.quantile(25) <= 1.0
        assert 10.0 < histogram.quantile(90) <= 100.0

    def test_registry_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_gauge_callback_evaluated_at_scrape(self):
        registry = MetricsRegistry()
        state = {"n": 1}
        registry.gauge("g").set_function(lambda: state["n"])
        assert registry.get("g").value() == 1
        state["n"] = 7
        assert registry.get("g").value() == 7

    def test_prometheus_rendering_parses(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests").inc(3, op="query")
        registry.gauge("entries", "cached").set(5)
        registry.histogram("latency", "secs", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_prometheus()
        samples = 0
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert name_and_labels
            samples += 1
        # counter(1) + gauge(1) + histogram (2 buckets + inf + sum + count)
        assert samples == 1 + 1 + 5
        assert 'op="query"' in text
        # JSON snapshot is serializable (no inf bucket bounds)
        json.dumps(registry.snapshot())


class TestTracing:
    def test_disabled_returns_noop_span(self):
        obs.disable()
        span = tracer().span("x")
        assert span.context is None
        with span:
            assert tracer().current_context() is None

    def test_same_thread_nesting_builds_tree(self):
        obs.enable()
        with tracer().span("root") as root:
            with tracer().span("child_a"):
                with tracer().span("grandchild"):
                    pass
            with tracer().span("child_b"):
                pass
        traces = tracer().recent(1)
        assert len(traces) == 1
        tree = traces[0]["root"]
        assert tree["name"] == "root"
        names = [child["name"] for child in tree["children"]]
        assert names == ["child_a", "child_b"]
        assert tree["children"][0]["children"][0]["name"] == "grandchild"
        assert root.context is not None

    def test_explicit_context_crosses_threads(self):
        obs.enable()
        with tracer().span("root") as root:
            ctx = root.context

            def worker():
                with tracer().span("task", parent=ctx):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        tree = tracer().recent(1)[0]["root"]
        assert [child["name"] for child in tree["children"]] == ["task"]

    def test_attach_grafts_records_from_foreign_process(self):
        obs.enable()
        with tracer().span("root") as root:
            record = span_record("task", parent=None, start=root.start, duration=0.01, pid=999)
            tracer().attach(root.context, [record])
        tree = tracer().recent(1)[0]["root"]
        assert tree["children"][0]["attrs"]["pid"] == 999

    def test_ring_buffer_bounded(self):
        private = Tracer(max_traces=3)
        # Spans need the global enabled switch on.
        obs.enable()
        for i in range(5):
            span = private.span(f"root{i}")
            span.end()
        assert len(private.recent()) == 3
        assert private.recent()[0]["root"]["name"] == "root4"

    def test_format_trace_tree_renders(self):
        obs.enable()
        with tracer().span("root", op="query"):
            with tracer().span("child"):
                pass
        text = format_trace_tree(tracer().recent(1)[0])
        assert "root" in text and "child" in text and "ms" in text


class TestBackendPropagation:
    def _tasks(self, rows=600):
        s = uniform_relation("S", rows, 1, seed=5)
        t = uniform_relation("T", rows, 1, seed=6)
        condition = BandCondition.symmetric(["A1"], 0.02)
        engine = ParallelJoinEngine(backend="serial")
        from repro.core.recpart import RecPartPartitioner

        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        s_routed = route_side(partitioning, s_matrix, "S")
        t_routed = route_side(partitioning, t_matrix, "T")
        tasks = build_worker_tasks(partitioning, s_routed, t_routed)
        return tasks, s_matrix, t_matrix, condition, engine.algorithm

    def test_threadpool_ships_task_spans(self):
        obs.enable()
        tasks, s_matrix, t_matrix, condition, algorithm = self._tasks()
        backend = ThreadPoolBackend(max_workers=2)
        with tracer().span("root") as root:
            outcomes = backend.run(
                tasks, s_matrix, t_matrix, condition, algorithm, True,
                trace_ctx=root.context,
            )
            for outcome in outcomes:
                if outcome.spans:
                    tracer().attach(root.context, outcome.spans)
        tree = tracer().recent(1)[0]["root"]
        task_spans = [c for c in tree["children"] if c["name"] == "task"]
        busy = [task for task in tasks if task.s_rows.size and task.t_rows.size]
        assert len(task_spans) == len(busy)
        for span in task_spans:
            assert span["attrs"]["output"] >= 0
            assert span["duration"] >= 0

    def test_processes_backend_ships_task_spans_across_pids(self):
        import os

        obs.enable()
        s = uniform_relation("S", 500, 1, seed=7)
        t = uniform_relation("T", 500, 1, seed=8)
        condition = BandCondition.symmetric(["A1"], 0.02)
        engine = ParallelJoinEngine(backend="processes", max_parallelism=2)
        with tracer().span("root"):
            engine.join(s, t, condition, workers=2, materialize=True)
        tree = tracer().recent(1)[0]["root"]

        def collect(node, name, found):
            if node["name"] == name:
                found.append(node)
            for child in node.get("children", ()):
                collect(child, name, found)

        task_spans: list = []
        collect(tree, "task", task_spans)
        assert task_spans, "process workers shipped no task spans"
        assert all(span["attrs"]["pid"] != os.getpid() for span in task_spans)

    def test_execute_task_without_context_ships_no_spans(self):
        obs.enable()
        tasks, s_matrix, t_matrix, condition, algorithm = self._tasks()
        outcome = execute_task(tasks[0], s_matrix, t_matrix, condition, algorithm, True)
        assert outcome.spans is None

    def test_trace_ctx_is_picklable(self):
        import pickle

        ctx = SpanContext("trace", "span")
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestNoopEquivalence:
    def test_join_answers_identical_with_telemetry_on_and_off(self):
        obs.disable()
        off = _small_join()
        obs.enable()
        on = _small_join()
        obs.disable()
        assert off.total_output == on.total_output
        np.testing.assert_array_equal(
            canonical_pair_order(off.pairs), canonical_pair_order(on.pairs)
        )

    def test_service_query_identical_with_telemetry_on_and_off(self):
        rng = np.random.default_rng(11)
        s_values = rng.uniform(0, 1, 1200)
        t_values = rng.uniform(0, 1, 1200)
        answers = {}
        for telemetry in (False, True):
            config = ServiceConfig(compaction="sync", telemetry=telemetry)
            if not telemetry:
                obs.disable()
            with BandJoinService(config=config) as service:
                service.register("S", {"A1": s_values})
                service.register("T", {"A1": t_values})
                service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
                result = service.query("q")
                answers[telemetry] = canonical_pair_order(result.pairs)
            obs.disable()
        np.testing.assert_array_equal(answers[False], answers[True])


class TestServiceSurface:
    def test_query_produces_trace_with_expected_stages(self):
        with BandJoinService(config=ServiceConfig(compaction="sync")) as service:
            rng = np.random.default_rng(13)
            service.register("S", {"A1": rng.uniform(0, 1, 1500)})
            service.register("T", {"A1": rng.uniform(0, 1, 1500)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            traces = service.traces(1)
        assert traces
        root = traces[0]["root"]
        assert root["name"] == "query"
        names = {child["name"] for child in root["children"]}
        assert {"queue", "execute"} <= names
        execute = next(c for c in root["children"] if c["name"] == "execute")
        stages = {child["name"] for child in execute["children"]}
        # A served cold query estimates, then joins inline: it never plans.
        assert stages == {"estimate", "local_join"}

    def test_engine_join_traces_every_stage(self):
        obs.enable()
        s = uniform_relation("S", 1500, 1, seed=13)
        t = uniform_relation("T", 1500, 1, seed=14)
        condition = BandCondition.symmetric(["A1"], 0.01)
        with tracer().span("root"):
            ParallelJoinEngine(backend="threads").join(s, t, condition, workers=4)
        root = tracer().recent(1)[0]["root"]
        stages = {child["name"] for child in root["children"]}
        assert {"plan", "route", "local_join", "merge"} <= stages

    def test_span_durations_sum_close_to_root(self):
        with BandJoinService(config=ServiceConfig(compaction="sync")) as service:
            rng = np.random.default_rng(17)
            service.register("S", {"A1": rng.uniform(0, 1, 4000)})
            service.register("T", {"A1": rng.uniform(0, 1, 4000)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            traces = service.traces(1)
        root = traces[0]["root"]
        child_sum = sum(child["duration"] for child in root["children"])
        assert child_sum <= root["duration"] * 1.10
        assert child_sum >= root["duration"] * 0.5

    def test_prometheus_exposition_includes_all_scopes(self):
        with BandJoinService(config=ServiceConfig(compaction="sync")) as service:
            rng = np.random.default_rng(19)
            service.register("S", {"A1": rng.uniform(0, 1, 800)})
            service.register("T", {"A1": rng.uniform(0, 1, 800)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            text = service.prometheus()
        assert "repro_scheduler_events_total" in text
        assert "repro_plan_cache_entries" in text
        assert "repro_result_cache_hits" in text
        assert "repro_kernel_invocations_total" in text

    def test_scheduler_metrics_snapshot_shape_preserved(self):
        with BandJoinService(config=ServiceConfig(compaction="sync")) as service:
            rng = np.random.default_rng(23)
            service.register("S", {"A1": rng.uniform(0, 1, 500)})
            service.register("T", {"A1": rng.uniform(0, 1, 500)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            service.query("q")
            snapshot = service.scheduler.metrics.snapshot()
        assert snapshot["submitted"] == 2
        assert snapshot["completed"] == 2
        assert snapshot["failed"] == 0
        assert snapshot["latency"]["samples"] == 2
        assert sum(snapshot["paths"].values()) == 2

    def test_stats_reports_telemetry_flag(self):
        with BandJoinService(config=ServiceConfig(compaction="sync")) as service:
            assert service.stats()["telemetry"] is True
        obs.disable()
        with BandJoinService(
            config=ServiceConfig(compaction="sync", telemetry=False)
        ) as service:
            assert service.stats()["telemetry"] is False


class TestResultCacheAccounting:
    def _service(self, **overrides):
        return BandJoinService(config=ServiceConfig(compaction="sync", **overrides))

    def test_hits_misses_and_stores(self):
        with self._service() as service:
            rng = np.random.default_rng(29)
            service.register("S", {"A1": rng.uniform(0, 1, 600)})
            service.register("T", {"A1": rng.uniform(0, 1, 600)})
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")  # cold: one miss, one store
            stats = prepared.result_cache_stats
            assert stats.misses == 1
            assert stats.stores == 1
            assert stats.hits == 0
            service.query("q")  # full-key hit
            assert stats.hits == 1

    def test_invalidate_counts_dropped_entries(self):
        with self._service() as service:
            rng = np.random.default_rng(31)
            service.register("S", {"A1": rng.uniform(0, 1, 600)})
            service.register("T", {"A1": rng.uniform(0, 1, 600)})
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            prepared.invalidate()
            assert prepared.result_cache_stats.invalidations == 1
            assert prepared.cached_results() == 0

    def test_evictions_counted_when_capacity_exceeded(self):
        with self._service(result_cache_size=1) as service:
            rng = np.random.default_rng(37)
            service.register("S", {"A1": rng.uniform(0, 1, 600)})
            service.register("T", {"A1": rng.uniform(0, 1, 600)})
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q", epsilons=[0.01])
            service.query("q", epsilons=[0.02])
            service.query("q", epsilons=[0.03])
            assert prepared.result_cache_stats.evictions >= 2
        # description surfaces the accounting
        info = prepared.describe()
        assert "result_cache" in info and info["result_cache"]["stores"] >= 3


class TestLogging:
    def test_resolve_level_mapping(self):
        assert resolve_level(verbosity=1) == logging.INFO
        assert resolve_level(verbosity=2) == logging.DEBUG
        assert resolve_level("warning") == logging.WARNING
        with pytest.raises(ValueError):
            resolve_level("not-a-level")

    def test_setup_logging_idempotent(self):
        logger = obs.setup_logging(level="INFO")
        handlers_before = list(logger.handlers)
        logger = obs.setup_logging(level="DEBUG")
        assert list(logger.handlers) == handlers_before
        assert logger.level == logging.DEBUG
        obs.setup_logging(level="WARNING")


class TestPrometheusExpositionLint:
    """Lint-style validation of the full text exposition of a live service."""

    _NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    _SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$")
    _LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')

    @staticmethod
    def _exposition():
        rng = np.random.default_rng(41)
        config = ServiceConfig(compaction="sync", staleness_threshold=10.0)
        with BandJoinService(config=config) as service:
            service.register("S", {"A1": rng.uniform(0, 1, 600)})
            service.register("T", {"A1": rng.uniform(0, 1, 600)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            service.query("q")
            service.query("q")
            return service.prometheus()

    def test_exposition_parses_and_names_are_valid(self):
        text = self._exposition()
        declared_types: dict[str, str] = {}
        samples: list[tuple[str, dict, float]] = []
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP "):
                name = line.split(" ", 3)[2]
                assert self._NAME.match(name), f"invalid HELP name: {line!r}"
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert self._NAME.match(name), f"invalid TYPE name: {line!r}"
                assert kind in ("counter", "gauge", "histogram"), line
                assert name not in declared_types, f"duplicate TYPE for {name}"
                declared_types[name] = kind
                continue
            assert not line.startswith("#"), f"unknown comment line: {line!r}"
            match = self._SAMPLE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name, raw_labels, raw_value = match.groups()
            labels = {}
            if raw_labels:
                for part in raw_labels.split(","):
                    assert self._LABEL.match(part), f"bad label {part!r} in {line!r}"
                    key, value = part.split("=", 1)
                    labels[key] = value.strip('"')
            value = float(raw_value)  # must parse (+Inf included)
            samples.append((name, labels, value))
        assert samples, "exposition was empty"
        # Every sample belongs to a declared metric family.
        for name, _, _ in samples:
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name.removesuffix(suffix) in declared_types:
                    base = name.removesuffix(suffix)
                    break
            assert base in declared_types, f"sample {name} has no TYPE declaration"
        # The families this PR promises are present.
        assert declared_types.get("repro_scheduler_events_total") == "counter"
        assert declared_types.get("repro_scheduler_latency_seconds") == "histogram"

    def test_histogram_series_are_consistent(self):
        text = self._exposition()
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        sums: dict[tuple, float] = {}
        counts: dict[tuple, float] = {}
        for line in text.splitlines():
            match = self._SAMPLE.match(line) if line and not line.startswith("#") else None
            if not match:
                continue
            name, raw_labels, raw_value = match.groups()
            labels = dict(
                part.split("=", 1) for part in (raw_labels or "").split(",") if part
            )
            le = labels.pop("le", None)
            series = (name, tuple(sorted(labels.items())))
            if name.endswith("_bucket"):
                key = (name.removesuffix("_bucket"), series[1])
                buckets.setdefault(key, []).append((float(le.strip('"')), float(raw_value)))
            elif name.endswith("_sum"):
                sums[(name.removesuffix("_sum"), series[1])] = float(raw_value)
            elif name.endswith("_count"):
                counts[(name.removesuffix("_count"), series[1])] = float(raw_value)
        histogram_keys = [k for k in buckets if k[0].startswith("repro_")]
        assert histogram_keys, "no histogram series found"
        for key in histogram_keys:
            series = buckets[key]
            # Buckets arrive in ascending le order and are cumulative.
            les = [le for le, _ in series]
            assert les == sorted(les)
            assert les[-1] == float("inf")
            values = [v for _, v in series]
            assert values == sorted(values), f"non-cumulative buckets for {key}"
            # _sum and _count exist; +Inf bucket equals _count.
            assert key in sums, f"missing _sum for {key}"
            assert key in counts, f"missing _count for {key}"
            assert values[-1] == counts[key]


def test_config_rejects_an_empty_capture_ring():
    with pytest.raises(ValueError):
        ServiceConfig(capture_ring_size=0)
