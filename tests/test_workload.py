"""Tests for the workload observatory (repro.obs.workload).

Covers: the capture recorder (ring bounds, drop accounting, JSONL
spooling), order-independent result fingerprints, Workload snapshots
(JSON round-trip must be lossless — drift 0 — and ring/log builds must
agree), SLO evaluation and breach plumbing, the health/workload protocol
operations, and the tentpole guarantee — a spooled capture replays
deterministically across schedulers and backends, reproducing every
result fingerprint.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.exceptions import ServiceError
from repro.obs import MetricsRegistry
from repro.obs.workload import (
    SLO,
    QueryLogRecorder,
    SLOMonitor,
    Workload,
    load_events,
    pair_fingerprint,
    replay_log,
    service_probes,
)
from repro.service import BandJoinService
from repro.service.server import handle_request


def _columns(rng: np.random.Generator, n: int, low: float = 0.0, high: float = 1.0):
    return {"A1": rng.uniform(low, high, n)}


def capture_service(tmp_path=None, **overrides) -> BandJoinService:
    """A service with synchronous compaction and (optionally) a spool log."""
    settings = {
        "compaction": "sync",
        "staleness_threshold": 10.0,
        "slo_interval": 0.0,
    }
    if tmp_path is not None:
        settings["capture_log"] = str(tmp_path / "capture.jsonl")
    settings.update(overrides)
    return BandJoinService(config=ServiceConfig(**settings))


def _drive_traffic(service: BandJoinService, rng: np.random.Generator) -> None:
    """Registrations, two prepared queries, repeats, appends — every path."""
    service.register("S", _columns(rng, 900))
    service.register("T", _columns(rng, 900))
    service.prepare("close", "S", "T", attributes=["A1"], epsilons=0.01)
    service.prepare("wide", "S", "T", attributes=["A1"], epsilons=0.03)
    service.query("close")                 # cold
    service.query("close")                 # result_cache
    service.query("wide")                  # plan differs -> cold/plan_cache
    service.query("close", epsilons=0.005)
    service.append("S", _columns(rng, 50))
    service.query("close")                 # delta
    service.query("close")                 # result_cache again


class TestPairFingerprint:
    def test_order_independent_and_duplicate_sensitive(self):
        pairs = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
        shuffled = pairs[[2, 0, 1]]
        assert pair_fingerprint(pairs) == pair_fingerprint(shuffled)
        duplicated = np.vstack([pairs, pairs[:1]])
        assert pair_fingerprint(pairs) != pair_fingerprint(duplicated)

    def test_content_sensitivity_and_empty(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        b = np.array([[1, 2], [3, 5]], dtype=np.int64)
        c = np.array([[2, 1], [4, 3]], dtype=np.int64)  # sides swapped
        assert pair_fingerprint(a) != pair_fingerprint(b)
        assert pair_fingerprint(a) != pair_fingerprint(c)
        assert pair_fingerprint(np.empty((0, 2), dtype=np.int64)) == "0:0000000000000000"

    def test_count_prefix_matches_rows(self):
        pairs = np.array([[7, 8], [9, 10]], dtype=np.int64)
        assert pair_fingerprint(pairs).startswith("2:")


class TestQueryLogRecorder:
    def test_ring_bounds_and_drop_accounting(self):
        recorder = QueryLogRecorder(capacity=4)
        for i in range(10):
            recorder.record("query", query=f"q{i}", epsilons=[], outcome="ok",
                            s_name="S", t_name="T")
        assert len(recorder) == 4
        assert recorder.dropped == 6
        seqs = [event["seq"] for event in recorder.events()]
        assert seqs == [7, 8, 9, 10]  # oldest evicted, order preserved

    def test_spool_includes_spool_only_fields_but_ring_does_not(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        with QueryLogRecorder(capacity=8, spool_path=spool) as recorder:
            recorder.record_register("S", rows=3, version=1,
                                     columns={"A1": [1.0, 2.0, 3.0]})
        (ring_event,) = recorder.events()
        assert "columns" not in ring_event
        (line,) = spool.read_text().strip().splitlines()
        spooled = json.loads(line)
        assert spooled["columns"] == {"A1": [1.0, 2.0, 3.0]}
        assert spooled["seq"] == ring_event["seq"]

    def test_concurrent_recording_assigns_unique_seqs(self):
        recorder = QueryLogRecorder(capacity=4096)
        def hammer():
            for _ in range(200):
                recorder.record("query", query="q", epsilons=[], outcome="ok",
                                s_name="S", t_name="T")
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [event["seq"] for event in recorder.events()]
        assert len(seqs) == 800
        assert len(set(seqs)) == 800

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryLogRecorder(capacity=0)


class TestWorkloadSnapshot:
    def test_json_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(11)
        with capture_service() as service:
            _drive_traffic(service, rng)
            snapshot = service.workload_snapshot()
        restored = Workload.from_json(snapshot.to_json())
        assert restored.to_dict() == snapshot.to_dict()
        assert snapshot.drift_score(restored) == 0.0
        path = snapshot.save(tmp_path / "workload.json")
        assert Workload.load(path).to_dict() == snapshot.to_dict()

    def test_ring_and_log_builds_agree(self, tmp_path):
        rng = np.random.default_rng(12)
        with capture_service(tmp_path) as service:
            _drive_traffic(service, rng)
            from_ring = service.workload_snapshot()
            log_path = service.config.capture_log
        from_log = Workload.from_log_file(log_path)
        assert from_ring.drift_score(from_log) == 0.0
        assert from_ring.arrival_counts() == from_log.arrival_counts()

    def test_summarizes_traffic_shape(self):
        rng = np.random.default_rng(13)
        with capture_service() as service:
            _drive_traffic(service, rng)
            snapshot = service.workload_snapshot()
        assert snapshot.total_arrivals == 6
        assert snapshot.arrival_counts() == {"close": 5, "wide": 1}
        assert snapshot.hot_query_share == pytest.approx(5 / 6)
        # Epsilon mix: "close" saw 0.01 four times and 0.005 once.
        (dim0,) = snapshot.queries["close"]["epsilons"]
        assert [[0.005, 0.005], 1] in dim0 and [[0.01, 0.01], 4] in dim0
        # Table-size trajectory: S registered at 900, appended to 950.
        assert snapshot.relations["S"]["first_rows"] == 900
        assert snapshot.relations["S"]["last_rows"] == 950
        assert snapshot.relations["S"]["appends"] == 1
        # The caches absorbed repeats.
        assert snapshot.paths.get("result_cache", 0) >= 2
        assert "workload:" in snapshot.describe()

    def test_drift_detects_traffic_shifts(self):
        rng = np.random.default_rng(14)
        with capture_service() as service:
            _drive_traffic(service, rng)
            before = service.workload_snapshot()
            # Shift the mix: hammer "wide" with new epsilons and grow T.
            for _ in range(10):
                service.query("wide", epsilons=0.02)
            service.append("T", _columns(rng, 400))
            after = service.workload_snapshot()
        assert before.drift_score(before) == 0.0
        drift = before.diff(after)
        assert drift["score"] > 0.0
        assert drift["arrivals"] > 0.0
        assert drift["epsilons"] > 0.0
        assert drift["table_sizes"] > 0.0

    def test_empty_snapshot(self):
        empty = Workload.empty()
        assert empty.total_arrivals == 0
        assert empty.hot_query_share == 0.0
        assert empty.drift_score(Workload.empty()) == 0.0


class TestSLOMonitor:
    def test_breach_detection_and_history(self):
        values = {"p99_latency_seconds": 0.5}
        registry = MetricsRegistry()
        recorder = QueryLogRecorder(capacity=16)
        monitor = SLOMonitor(
            objectives=[SLO("p99", "p99_latency_seconds", 0.1)],
            probes={"p99_latency_seconds": lambda: values["p99_latency_seconds"]},
            registry=registry,
            recorder=recorder,
        )
        (status,) = monitor.evaluate()
        assert status["ok"] is False
        assert monitor.breaches_total == 1
        counter = registry.counter("repro_slo_breaches_total", "")
        assert counter.value(slo="p99", kind="p99_latency_seconds") == 1
        (event,) = recorder.events("slo_breach")
        assert event["slo"] == "p99" and event["value"] == 0.5
        values["p99_latency_seconds"] = 0.01
        (status,) = monitor.evaluate()
        assert status["ok"] is True
        assert monitor.breaches_total == 1  # no new breach

    def test_min_kind_breaches_below_threshold(self):
        monitor = SLOMonitor(
            objectives=[SLO("hits", "cache_hit_rate", 0.9)],
            probes={"cache_hit_rate": lambda: 0.5},
        )
        health = monitor.health()
        assert health["healthy"] is False
        assert health["breaches_total"] == 1
        assert health["recent_breaches"][0]["slo"] == "hits"

    def test_unknown_kind_and_missing_probe_rejected(self):
        with pytest.raises(ValueError):
            SLO("x", "nonsense_kind", 1.0)
        with pytest.raises(ValueError):
            SLOMonitor(objectives=[SLO("x", "error_rate", 0.1)], probes={})

    def test_service_probes_and_background_monitor(self):
        rng = np.random.default_rng(15)
        with capture_service(
            slo_p99_seconds=30.0,
            slo_error_rate=0.5,
            slo_cache_hit_floor=0.0,
            slo_queue_depth=1000,
            slo_interval=0.01,
        ) as service:
            _drive_traffic(service, rng)
            assert service.monitor.objectives  # config translated
            health = service.health()
            assert health["healthy"] is True
            assert health["monitoring"] is True
            probes = service_probes(service)
            assert probes["error_rate"]() == 0.0
            assert 0.0 <= probes["cache_hit_rate"]() <= 1.0
            assert probes["queue_depth"]() == 0.0
        assert service.monitor._thread is None or not service.monitor._thread.is_alive()

    def test_breaching_service_reports_unhealthy(self):
        rng = np.random.default_rng(16)
        # Impossible objective: p99 must be under a nanosecond.
        with capture_service(slo_p99_seconds=1e-9) as service:
            _drive_traffic(service, rng)
            health = service.health()
        assert health["healthy"] is False
        assert health["breaches_total"] >= 1


class TestProtocolOps:
    def test_health_and_workload_ops(self):
        rng = np.random.default_rng(17)
        with capture_service(slo_p99_seconds=30.0) as service:
            _drive_traffic(service, rng)
            health = handle_request(service, {"op": "health"})
            assert health["ok"] is True
            assert health["health"]["healthy"] is True
            workload = handle_request(service, {"op": "workload"})
            assert workload["ok"] is True
            assert workload["workload"]["total_arrivals"] == 6
            json.dumps(workload)  # must be JSON-serializable end to end

    def test_workload_op_errors_when_capture_disabled(self):
        with capture_service(capture=False) as service:
            assert service.recorder is None
            with pytest.raises(ServiceError):
                service.workload_snapshot()
            response_ok = handle_request(service, {"op": "health"})
            assert response_ok["ok"] is True  # health works without capture

    def test_stats_surface_reports_capture(self):
        rng = np.random.default_rng(18)
        with capture_service() as service:
            _drive_traffic(service, rng)
            stats = service.stats()
        assert stats["capture"]["events"] > 0
        assert stats["capture"]["capacity"] == service.config.capture_ring_size


class TestReplay:
    @pytest.mark.parametrize("replay_config", [
        {"backend": "serial", "scheduler_workers": 1},
        {"backend": "threads", "scheduler_workers": 4},
    ])
    def test_replay_reproduces_fingerprints_across_configs(self, tmp_path, replay_config):
        rng = np.random.default_rng(19)
        with capture_service(tmp_path, backend="threads") as service:
            _drive_traffic(service, rng)
            log_path = service.config.capture_log
        report = replay_log(
            log_path,
            config=ServiceConfig(capture=False, compaction="sync",
                                 staleness_threshold=10.0, **replay_config),
        )
        assert report.ok, report.describe()
        assert report.verified == 6
        assert report.registered == 2 and report.appended == 1 and report.prepared == 2
        assert not report.mismatches

    def test_replay_detects_divergence(self, tmp_path):
        rng = np.random.default_rng(20)
        with capture_service(tmp_path) as service:
            _drive_traffic(service, rng)
            log_path = service.config.capture_log
        # Corrupt one captured fingerprint: the replay must notice.
        lines = []
        tampered = False
        with open(log_path, encoding="utf-8") as spool:
            for line in spool:
                event = json.loads(line)
                if not tampered and event.get("fingerprint"):
                    event["fingerprint"] = "1:deadbeefdeadbeef"
                    tampered = True
                lines.append(json.dumps(event))
        with open(log_path, "w", encoding="utf-8") as spool:
            spool.write("\n".join(lines) + "\n")
        assert tampered
        report = replay_log(log_path)
        assert not report.ok
        assert len(report.mismatches) == 1
        assert "MISMATCH" in report.describe()

    def test_replay_requires_spooled_columns(self):
        rng = np.random.default_rng(21)
        with capture_service() as service:  # ring only, no spool
            service.register("S", _columns(rng, 50))
            events = service.recorder.events()
        from repro.obs.workload.replay import replay_events
        with capture_service(capture=False) as fresh:
            with pytest.raises(ServiceError, match="column data"):
                replay_events(events, fresh)

    def test_load_events_sorts_and_rejects_garbage(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"type": "query", "seq": 2}) + "\n"
            + json.dumps({"type": "register", "seq": 1}) + "\n"
        )
        events = load_events(path)
        assert [event["seq"] for event in events] == [1, 2]
        path.write_text("not json\n")
        with pytest.raises(ServiceError, match="invalid capture line"):
            load_events(path)

    def test_capture_records_the_rows_the_answer_covers(self, monkeypatch):
        """An append landing between the answer and its capture is not
        recorded under the answer's versions."""
        rng = np.random.default_rng(23)
        with capture_service() as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 300))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            execute = prepared.execute

            def append_before_returning(epsilons=None):
                result = execute(epsilons)
                service.append("S", _columns(rng, 50))
                return result

            monkeypatch.setattr(prepared, "execute", append_before_returning)
            result = service.query("q")
            (event,) = service.recorder.events("query")
        assert (event["s_rows"], event["t_rows"]) == result.lineage[2:] == (400, 300)

    def test_dedup_and_rejection_events_are_captured(self):
        rng = np.random.default_rng(22)
        with capture_service(max_estimated_pairs=1) as service:
            service.register("S", _columns(rng, 800))
            service.register("T", _columns(rng, 800))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.05)
            from repro.exceptions import ServiceOverloadError
            with pytest.raises(ServiceOverloadError):
                service.query("q")
            events = service.recorder.events("query")
        assert events[-1]["outcome"] == "rejected"
        assert events[-1]["reason"] == "estimated_pairs"
