"""Tests for the online band-join serving layer (repro.service).

The load-bearing property is delta-append correctness: serving a query
after appends through the delta path (cached result + the appended rows
joined against the other side) must produce exactly the pair set of a
from-scratch join over the full data — for every engine backend.  On top
of that: catalog versioning and staleness maintenance, result-cache
invalidation on append, scheduler single-flight / admission control /
scheduling independence, and the service facade + line protocol.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
)
from repro.geometry.band import BandCondition
from repro.local_join import IntervalJoin
from repro.local_join.base import canonical_pair_order
from repro.service import (
    PATH_COLD,
    PATH_DELTA,
    PATH_RESULT_CACHE,
    BandJoinService,
    PreparedQuery,
    QueryScheduler,
    RelationCatalog,
    serve_lines,
)
from repro.service.server import MAX_SAMPLE


def _columns(rng: np.random.Generator, n: int, low: float = 0.0, high: float = 1.0):
    return {"A1": rng.uniform(low, high, n)}


def _reference_pairs(s: Relation, t: Relation, eps: float) -> np.ndarray:
    condition = BandCondition.symmetric(["A1"], eps)
    result = ParallelJoinEngine(backend="serial").join(
        s, t, condition, workers=4, materialize=True
    )
    return canonical_pair_order(result.pairs)


def sync_service(**overrides) -> BandJoinService:
    defaults = dict(compaction="sync", scheduler_workers=2)
    defaults.update(overrides)
    return BandJoinService(ServiceConfig(**defaults))


class TestRelationCatalog:
    def test_register_and_get(self):
        catalog = RelationCatalog()
        snapshot = catalog.register("S", {"A1": np.arange(5.0)})
        assert snapshot.version == 1 and snapshot.base_version == 1
        assert snapshot.rows == 5 and snapshot.delta_rows == 0
        assert catalog.get("S") is snapshot
        assert "S" in catalog and "T" not in catalog

    def test_duplicate_register_needs_replace(self):
        catalog = RelationCatalog()
        catalog.register("S", {"A1": np.arange(3.0)})
        with pytest.raises(ServiceError):
            catalog.register("S", {"A1": np.arange(3.0)})
        replaced = catalog.register("S", {"A1": np.arange(4.0)}, replace=True)
        assert replaced.version == 2 and replaced.base_version == 2

    def test_unknown_lookup_and_drop(self):
        catalog = RelationCatalog()
        with pytest.raises(ServiceError):
            catalog.get("missing")
        with pytest.raises(ServiceError):
            catalog.append("missing", {"A1": np.arange(2.0)})
        with pytest.raises(ServiceError):
            catalog.drop("missing")
        catalog.register("S", {"A1": np.arange(2.0)})
        catalog.drop("S")
        assert "S" not in catalog

    def test_append_accumulates_delta_and_bumps_version(self):
        catalog = RelationCatalog(staleness_threshold=10.0)
        catalog.register("S", {"A1": np.arange(4.0)})
        first = catalog.append("S", {"A1": np.array([10.0, 11.0])})
        second = catalog.append("S", {"A1": np.array([12.0])})
        assert (first.version, second.version) == (2, 3)
        assert second.base_version == 1
        assert second.delta_rows == 3
        np.testing.assert_array_equal(
            second.full["A1"], [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
        )

    def test_append_schema_checked(self):
        catalog = RelationCatalog()
        catalog.register("S", {"A1": np.arange(3.0), "A2": np.arange(3.0)})
        with pytest.raises(ServiceError):
            catalog.append("S", {"A1": np.arange(2.0)})

    @pytest.mark.parametrize(
        "bad",
        [["x", 1], [0.5, None], [0.5, float("nan")], [float("inf"), 0.5]],
        ids=["string", "null", "nan", "inf"],
    )
    def test_register_and_append_reject_non_numeric_and_non_finite(self, bad):
        """NaN/inf and non-numeric columns are rejected at ingest, naming the
        relation and the column, and leave the catalog as it was."""
        catalog = RelationCatalog()
        with pytest.raises(ReproError, match="'S'.*'A2'"):
            catalog.register("S", {"A1": [0.1, 0.2], "A2": bad})
        assert "S" not in catalog
        snapshot = catalog.register("S", {"A1": [0.1, 0.2], "A2": [1, 2]})
        with pytest.raises(ReproError, match="'S'.*'A2'"):
            catalog.append("S", {"A1": [0.3, 0.4], "A2": bad})
        assert catalog.get("S") is snapshot

    def test_empty_append_is_a_noop(self):
        catalog = RelationCatalog()
        snapshot = catalog.register("S", {"A1": np.arange(3.0)})
        assert catalog.append("S", {"A1": np.empty(0)}) is snapshot

    def test_staleness_threshold_fires_callback(self):
        stale: list[str] = []
        catalog = RelationCatalog(staleness_threshold=0.5, on_stale=stale.append)
        catalog.register("S", {"A1": np.arange(10.0)})
        catalog.append("S", {"A1": np.arange(4.0)})
        assert stale == []
        catalog.append("S", {"A1": np.arange(2.0)})
        assert stale == ["S"]
        assert catalog.stale_names() == ["S"]

    def test_compact_merges_delta_and_keeps_content_version(self):
        catalog = RelationCatalog(staleness_threshold=10.0)
        catalog.register("S", {"A1": np.arange(4.0)})
        appended = catalog.append("S", {"A1": np.array([9.0])})
        compacted = catalog.compact("S")
        assert compacted.version == appended.version  # same rows, same version
        assert compacted.base_version == appended.base_version + 1
        assert compacted.delta is None and len(compacted.base) == 5
        # Compacting an already-clean relation is a no-op.
        assert catalog.compact("S") is compacted


class TestPreparedQueryPaths:
    def test_cold_then_result_cache(self):
        rng = np.random.default_rng(3)
        with sync_service() as service:
            service.register("S", _columns(rng, 800))
            service.register("T", _columns(rng, 800))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            first = service.query("q")
            second = service.query("q")
            assert first.path == PATH_COLD
            assert second.path == PATH_RESULT_CACHE
            np.testing.assert_array_equal(
                canonical_pair_order(first.pairs), canonical_pair_order(second.pairs)
            )

    def test_new_epsilon_misses_result_cache_but_not_new_plan_for_same_eps(self):
        rng = np.random.default_rng(4)
        with sync_service() as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            assert service.query("q").path == PATH_COLD
            assert service.query("q", 0.01).path == PATH_COLD
            assert service.query("q", 0.01).path == PATH_RESULT_CACHE

    def test_append_invalidates_result_cache_via_versions(self):
        rng = np.random.default_rng(5)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("S", _columns(rng, 700))
            service.register("T", _columns(rng, 700))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.append("T", _columns(rng, 30))
            after_append = service.query("q")
            assert after_append.path == PATH_DELTA
            assert service.query("q").path == PATH_RESULT_CACHE

    def test_result_cache_keeps_only_the_newest_versions(self):
        """Append+query cycles (with compactions) leave one result per epsilon
        binding, and the stale path serves the newest."""
        rng = np.random.default_rng(11)
        with sync_service(staleness_threshold=0.05) as service:
            service.register("S", _columns(rng, 500))
            service.register("T", _columns(rng, 500))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            for _ in range(8):
                service.append("S", _columns(rng, 10))
                service.query("q")
                service.query("q", 0.01)
            assert service.catalog.get("S").base_version > 2  # compactions ran
            assert prepared.cached_results() == 2
            assert prepared.result_cache_stats.invalidations > 0
            newest = prepared.stale_result(prepared.epsilon_key())
            assert (newest.s_version, newest.t_version) == prepared.current_versions()
            assert newest.stale and newest.version_lag == 0

    def test_delta_path_matches_full_reference_with_out_of_bounds_values(self):
        rng = np.random.default_rng(6)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("S", _columns(rng, 900))
            service.register("T", _columns(rng, 900))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.03)
            anchor = service.query("q")
            # Deltas on both sides, partly far outside the original bounds.
            service.append("S", _columns(rng, 60, low=-1.0, high=2.5))
            service.append("T", _columns(rng, 45, low=1.5, high=3.0))
            result = service.query("q")
            assert result.path == PATH_DELTA
            s_full = service.catalog.get("S").full
            t_full = service.catalog.get("T").full
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs),
                _reference_pairs(s_full, t_full, 0.03),
            )
            # The job accounts only the joins of the appended rows.
            assert result.job is not None
            assert result.job.total_output == result.n_pairs - anchor.n_pairs

    def test_self_join_delta(self):
        rng = np.random.default_rng(7)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("R", _columns(rng, 500))
            service.prepare("q", "R", "R", attributes=["A1"], epsilons=0.01)
            service.query("q")
            service.append("R", _columns(rng, 40))
            result = service.query("q")
            assert result.path == PATH_DELTA
            full = service.catalog.get("R").full
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs), _reference_pairs(full, full, 0.01)
            )

    def test_compaction_re_partitions_and_preserves_answers(self):
        rng = np.random.default_rng(8)
        with sync_service(staleness_threshold=0.05) as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            before = service.query("q")
            service.append("S", _columns(rng, 120))  # past the threshold
            snapshot = service.catalog.get("S")
            assert snapshot.delta is None  # sync compaction already ran
            assert snapshot.base_version == 2
            after = service.query("q")
            # Compaction keeps the rows and their order, so the cached answer
            # stays an anchor and only the appended rows are joined.
            assert after.path == PATH_DELTA
            s_full = service.catalog.get("S").full
            t_full = service.catalog.get("T").full
            np.testing.assert_array_equal(
                canonical_pair_order(after.pairs), _reference_pairs(s_full, t_full, 0.02)
            )
            assert after.n_pairs >= before.n_pairs

    def test_background_compaction_drains(self):
        rng = np.random.default_rng(9)
        with BandJoinService(
            ServiceConfig(compaction="background", staleness_threshold=0.05)
        ) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.append("S", _columns(rng, 100))
            service.drain_maintenance()
            assert service.catalog.get("S").delta is None

    def test_epsilon_binding_forms(self):
        rng = np.random.default_rng(10)
        with sync_service() as service:
            service.register("S", _columns(rng, 200))
            service.register("T", _columns(rng, 200))
            prepared = service.prepare("q", "S", "T", attributes=["A1"])
            assert prepared.epsilon_key(0.5) == ((0.5, 0.5),)
            assert prepared.epsilon_key([0.5]) == ((0.5, 0.5),)
            assert prepared.epsilon_key({"A1": (0.1, 0.2)}) == ((0.1, 0.2),)
            with pytest.raises(ServiceError):
                prepared.epsilon_key(None)  # no defaults configured
            with pytest.raises(ServiceError):
                prepared.epsilon_key([0.1, 0.2])  # wrong arity
            with pytest.raises(ServiceError):
                prepared.epsilon_key({"A2": 0.1})  # wrong attribute

    def test_prepare_validates_attributes_and_names(self):
        rng = np.random.default_rng(11)
        with sync_service() as service:
            service.register("S", _columns(rng, 100))
            service.register("T", _columns(rng, 100))
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "T", attributes=["missing"])
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "nope", attributes=["A1"])
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.1)
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.1)
            with pytest.raises(ServiceError):
                service.query("unknown")


class TestDeltaAppendEquivalence:
    """(register A; append B; query) == (register A∪B; query), exactly."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_across_backends(self, backend):
        rng = np.random.default_rng(12)
        base_s = _columns(rng, 500)
        base_t = _columns(rng, 450)
        delta_s = _columns(rng, 80, low=-0.5, high=1.8)
        delta_t = _columns(rng, 50, low=0.4, high=2.2)
        eps = 0.05

        with sync_service(backend=backend, staleness_threshold=10.0) as incremental:
            incremental.register("S", {k: v.copy() for k, v in base_s.items()})
            incremental.register("T", {k: v.copy() for k, v in base_t.items()})
            incremental.prepare(
                "q",
                "S",
                "T",
                attributes=["A1"],
                epsilons=eps,
            )
            incremental.query("q")  # materialize + cache the base result
            incremental.append("S", delta_s)
            incremental.append("T", delta_t)
            result = incremental.query("q")
            assert result.path == PATH_DELTA

        with sync_service(backend=backend, staleness_threshold=10.0) as scratch:
            scratch.register(
                "S", {"A1": np.concatenate([base_s["A1"], delta_s["A1"]])}
            )
            scratch.register(
                "T", {"A1": np.concatenate([base_t["A1"], delta_t["A1"]])}
            )
            scratch.prepare(
                "q",
                "S",
                "T",
                attributes=["A1"],
                epsilons=eps,
            )
            expected = scratch.query("q")

        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), canonical_pair_order(expected.pairs)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        base_rows=st.integers(50, 400),
        delta_rows=st.integers(1, 120),
        eps=st.floats(0.001, 0.2),
    )
    def test_property_random_workloads(self, seed, base_rows, delta_rows, eps):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 1, base_rows)
        delta = rng.uniform(-0.5, 1.5, delta_rows)
        t_values = rng.uniform(0, 1, base_rows)

        catalog = RelationCatalog(staleness_threshold=10.0)
        engine = ParallelJoinEngine(backend="serial")
        catalog.register("S", {"A1": base})
        catalog.register("T", {"A1": t_values})
        prepared = PreparedQuery(
            catalog, engine, "S", "T", attributes=["A1"], default_epsilons=eps
        )
        prepared.execute()
        catalog.append("S", {"A1": delta})
        incremental = prepared.execute()
        assert incremental.path == PATH_DELTA

        s_full = Relation("S", {"A1": np.concatenate([base, delta])})
        t_full = Relation("T", {"A1": t_values})
        np.testing.assert_array_equal(
            canonical_pair_order(incremental.pairs),
            _reference_pairs(s_full, t_full, eps),
        )


class _StubPrepared:
    """Minimal PreparedQuery stand-in for scheduler unit tests."""

    def __init__(self, name="stub", block: threading.Event | None = None):
        self.key = (name,)
        self.block = block
        self.calls = 0
        self.attributes = ("A1",)
        self.versions = (1, 1)
        self.started = threading.Event()

    def epsilon_key(self, epsilons=None):
        value = 0.1 if epsilons is None else float(epsilons)
        return ((value, value),)

    def current_versions(self):
        return self.versions

    def execute(self, epsilons=None):
        from repro.service.prepared import QueryResult

        self.calls += 1
        self.started.set()
        if self.block is not None:
            self.block.wait(timeout=30)
        return QueryResult(
            segments=(),
            path=PATH_COLD,
            s_name="S",
            t_name="T",
            s_version=1,
            t_version=1,
            seconds=0.0,
        )


class TestQueryScheduler:
    def test_a_client_that_waits_for_each_answer_is_served_by_its_own_thread(self):
        """Each synchronous query executes on its caller's thread, so one
        allocator arena holds a client's working memory, and no scheduler
        thread is started."""
        threads = []

        class Recording(_StubPrepared):
            def execute(self, epsilons=None):
                threads.append(threading.current_thread())
                return super().execute(epsilons)

        stub = Recording()
        before = set(threading.enumerate())
        with QueryScheduler(max_workers=4, max_pending=8) as scheduler:
            for i in range(20):
                assert scheduler.query(stub, (i + 1) / 64).path == PATH_COLD
            assert set(threading.enumerate()) <= before
        assert threads == [threading.current_thread()] * 20

    def test_one_slot_starts_async_submits_in_admission_order(self):
        gate = threading.Event()
        started = []

        class Recording(_StubPrepared):
            def execute(self, epsilons=None):
                started.append(epsilons[0][0])
                return super().execute(epsilons)

        hog = _StubPrepared(name="hog", block=gate)
        stub = Recording()
        epsilons = [(i + 1) / 64 for i in range(24)]
        with QueryScheduler(max_workers=1, max_pending=32) as scheduler:
            first = scheduler.submit(hog, 0.5)
            assert hog.started.wait(timeout=30)  # holds the only slot
            futures = [scheduler.submit(stub, eps) for eps in epsilons]
            gate.set()
            first.result(timeout=30)
            for future in futures:
                future.result(timeout=30)
        assert started == epsilons

    def test_a_deadline_lapsing_in_the_slot_wait_fails_at_that_deadline(self):
        """A request waiting for the only slot fails when its deadline passes,
        while the slot is still held, and never executes."""
        gate = threading.Event()
        hog = _StubPrepared(name="hog", block=gate)
        late = _StubPrepared(name="late")
        with QueryScheduler(max_workers=1, max_pending=8, degraded_mode="reject") as scheduler:
            running = scheduler.submit(hog, 0.1)
            assert hog.started.wait(timeout=30)
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError, match="while queued"):
                scheduler.query(late, 0.2, deadline=0.2)
            waited = time.monotonic() - start
            assert 0.2 <= waited < 5
            assert not running.done() and late.calls == 0
            assert scheduler.metrics.snapshot()["failures"] == {"timeout": 1}
            gate.set()
            running.result(timeout=30)
            assert scheduler.pending == 0

    def test_a_duplicate_waits_for_the_in_flight_answer_at_most_its_deadline(self):
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        with QueryScheduler(max_workers=1, max_pending=8) as scheduler:
            running = scheduler.submit(stub, 0.5)
            assert stub.started.wait(timeout=30)
            with pytest.raises(DeadlineExceededError):
                scheduler.query(stub, 0.5, deadline=0.1)
            assert not running.done()
            gate.set()
            assert running.result(timeout=30).path == PATH_COLD
            assert stub.calls == 1

    def test_wait_idle_after_close_reports_the_drained_queue(self):
        scheduler = QueryScheduler(max_workers=2, max_pending=8)
        scheduler.submit(_StubPrepared(), 0.5).result(timeout=30)
        scheduler.close()
        assert scheduler.wait_idle(timeout=1)

    def test_single_flight_shares_one_execution(self):
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        with QueryScheduler(max_workers=2, max_pending=8) as scheduler:
            futures = [scheduler.submit(stub, 0.5) for _ in range(5)]
            assert len({id(f) for f in futures}) == 1
            gate.set()
            futures[0].result(timeout=30)
            assert stub.calls == 1
            assert scheduler.metrics.snapshot()["deduplicated"] == 4

    def test_admission_control_rejects_when_saturated(self):
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        scheduler = QueryScheduler(max_workers=1, max_pending=2)
        try:
            first = scheduler.submit(stub, 0.1)
            second = scheduler.submit(stub, 0.2)
            with pytest.raises(ServiceOverloadError):
                scheduler.submit(stub, 0.3)
            assert scheduler.metrics.snapshot()["rejected"] == 1
            gate.set()
            first.result(timeout=30)
            second.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_version_change_bypasses_single_flight(self):
        """A query after an acknowledged append must not attach to an
        in-flight execution over the pre-append data."""
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        with QueryScheduler(max_workers=1, max_pending=8) as scheduler:
            stale = scheduler.submit(stub, 0.5)
            assert stub.started.wait(timeout=30)  # pinned to the v1 snapshots
            stub.versions = (2, 1)  # an append was acknowledged meanwhile
            fresh = scheduler.submit(stub, 0.5)
            assert fresh is not stale
            gate.set()
            stale.result(timeout=30)
            fresh.result(timeout=30)
            assert stub.calls == 2
            assert scheduler.metrics.snapshot()["deduplicated"] == 0

    def test_background_compactions_do_not_stack(self):
        rng = np.random.default_rng(19)
        with BandJoinService(
            ServiceConfig(compaction="background", staleness_threshold=0.05)
        ) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            for _ in range(6):  # burst of stale appends
                service.append("S", _columns(rng, 60))
            service.drain_maintenance()
            assert service.catalog.get("S").delta is None
            assert service.catalog.get("S").rows == 400 + 6 * 60

    def test_submit_after_close_raises(self):
        scheduler = QueryScheduler(max_workers=1)
        scheduler.close()
        with pytest.raises(ServiceError):
            scheduler.submit(_StubPrepared(), 0.1)

    def test_answer_does_not_depend_on_what_is_queued_with_it(self):
        """A burst queued behind one worker answers pair-for-pair what each
        query answers alone, on values (multiples of 0.1) where the kernel
        and a second band predicate would disagree on edge pairs."""
        values = {"A1": np.round(np.arange(400) * 0.1, 10)}
        burst_epsilons = (0.3, 0.2, 0.1)

        def fresh_service(**overrides):
            service = sync_service(**overrides)
            service.register("S", values)
            service.register("T", values)
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.3)
            return service

        gate = threading.Event()
        with fresh_service(scheduler_workers=1) as service:
            prepared = service.prepared("q")
            execute = prepared.execute

            def gated_execute(*args, **kwargs):
                gate.wait(timeout=30)
                return execute(*args, **kwargs)

            prepared.execute = gated_execute
            gate_future = service.submit("q", 0.05)  # occupies the single worker
            burst = [service.submit("q", eps) for eps in burst_epsilons]
            gate.set()
            gate_future.result(timeout=60)
            queued = [future.result(timeout=60) for future in burst]
        for eps, result in zip(burst_epsilons, queued):
            with fresh_service() as alone:
                expected = alone.query("q", eps)
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs),
                canonical_pair_order(expected.pairs),
            )

    def test_concurrent_mixed_queries_are_consistent(self):
        rng = np.random.default_rng(14)
        with sync_service(scheduler_workers=4) as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            epsilons = [0.005, 0.01, 0.02, 0.005, 0.01, 0.02] * 4
            futures = [service.submit("q", e) for e in epsilons]
            counts = {}
            for eps, future in zip(epsilons, futures):
                counts.setdefault(eps, set()).add(future.result(timeout=60).n_pairs)
            # Every execution of the same epsilon returns the same pair count.
            assert all(len(values) == 1 for values in counts.values())
            snapshot = service.scheduler.metrics.snapshot()
            assert snapshot["completed"] == snapshot["submitted"]
            assert snapshot["latency"]["samples"] == snapshot["completed"]


class TestServiceFacadeAndServer:
    def test_stats_shape(self):
        rng = np.random.default_rng(15)
        with sync_service() as service:
            service.register("S", _columns(rng, 300))
            service.register("T", _columns(rng, 300))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.query("q")
            stats = service.stats()
            assert stats["catalog"]["S"]["rows"] == 300
            assert stats["prepared"]["q"]["stats"]["executions"] == 2
            assert stats["prepared"]["q"]["stats"]["result_cached"] == 1
            assert stats["scheduler"]["completed"] == 2
            assert stats["plan_cache"]["entries"] == 0  # serving never plans

    def test_closed_service_rejects_work(self):
        service = sync_service()
        service.close()
        with pytest.raises(ServiceError):
            service.register("S", {"A1": np.arange(2.0)})

    def test_line_protocol_round_trip(self):
        rng = np.random.default_rng(16)
        requests = [
            {"op": "ping"},
            {"op": "register", "name": "S", "columns": {"A1": rng.random(300).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(300).tolist()}},
            {
                "op": "prepare",
                "query": "q",
                "s": "S",
                "t": "T",
                "attributes": ["A1"],
                "epsilons": [0.02],
            },
            {"op": "query", "query": "q", "sample": 2},
            {"op": "query", "query": "q"},
            {"op": "append", "name": "S", "columns": {"A1": rng.random(10).tolist()}},
            {"op": "query", "query": "q", "epsilons": [[0.01, 0.03]]},
            {"op": "catalog"},
            {"op": "stats"},
            {"op": "nope"},
            {"op": "quit"},
            {"op": "ping"},  # never reached: quit ends the session
        ]
        out = io.StringIO()
        with sync_service(staleness_threshold=10.0) as service:
            answered = serve_lines(
                service, [json.dumps(r) for r in requests], out
            )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert answered == len(responses) == len(requests) - 1
        assert responses[0] == {"ok": True, "op": "pong"}
        assert responses[4]["ok"] and responses[4]["path"] == "cold"
        assert len(responses[4]["sample"]) <= 2
        assert responses[5]["path"] == "result_cache"
        assert responses[7]["ok"]  # asymmetric epsilons over the delta path
        assert responses[8]["catalog"]["S"]["delta_rows"] == 10
        assert not responses[10]["ok"] and "nope" in responses[10]["error"]
        assert responses[11] == {"ok": True, "op": "quit"}

    def test_malformed_lines_keep_the_session_alive(self):
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, ["garbage", "[1, 2]", "", '{"op": "ping"}'], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, True]

    def test_bad_register_then_query_keeps_serving(self):
        """Once the column ``["x", 1]`` was accepted and the query on it
        raised a ``ValueError`` that ended the server; a NaN row was accepted
        and failed every later query.  Both are refused at the door now."""
        prepare = {"op": "prepare", "query": "q", "s": "S", "t": "T",
                   "attributes": ["A1"], "epsilons": [0.06]}
        for bad in (["x", 1], [0.1, float("nan")]):
            requests = [
                {"op": "register", "name": "S", "columns": {"A1": bad}},
                {"op": "register", "name": "T", "columns": {"A1": [0.15]}},
                prepare,
                {"op": "query", "query": "q"},
                {"op": "ping"},
            ]
            out = io.StringIO()
            with sync_service() as service:
                serve_lines(service, [json.dumps(r) for r in requests], out)
            responses = [json.loads(line) for line in out.getvalue().splitlines()]
            assert [r["ok"] for r in responses] == [False, True, False, False, True]
            assert "'S'" in responses[0]["error"] and "'A1'" in responses[0]["error"]
            assert responses[-1] == {"ok": True, "op": "pong"}

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_integer_then_float_rows_answer_alike_on_both_storages(self, storage, tmp_path):
        """JSON integers registered before a float append once made the mmap
        store cast the float rows to int (5 pairs instead of 3, and a base
        of ``[1.0, 2.0, 1.0]`` after compaction); every column is float64."""
        requests = [
            {"op": "register", "name": "T", "columns": {"A1": [0.95, 1.0, 2.0]}},
            {"op": "register", "name": "W", "columns": {"A1": [1, 2]}},
            {"op": "append", "name": "W", "columns": {"A1": [1.5]}},
            {"op": "prepare", "query": "q", "s": "W", "t": "T",
             "attributes": ["A1"], "epsilons": [0.06]},
            {"op": "query", "query": "q"},
        ]
        out = io.StringIO()
        with sync_service(
            storage=storage, spill_dir=str(tmp_path), spill_threshold_bytes=1
        ) as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
            responses = [json.loads(line) for line in out.getvalue().splitlines()]
            assert all(r["ok"] for r in responses)
            assert responses[-1]["pairs"] == 3
            service.catalog.compact("W")
            base = service.catalog.get("W").base
            assert base.store.dtype("A1") == np.float64
            np.testing.assert_array_equal(base.column("A1"), [1.0, 2.0, 1.5])
            assert service.query("q").n_pairs == 3

    def test_boolean_column_is_a_client_error(self):
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": [True, False]}},
            {"op": "register", "name": "S", "columns": {"A1": [0.5, True]}},
            {"op": "register", "name": "S", "columns": {"A1": [0.5, 1.0]}},
            {"op": "append", "name": "S", "columns": {"A1": [True]}},
            {"op": "append", "name": "S", "columns": {"A1": [2, False]}},
        ]
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
            np.testing.assert_array_equal(service.catalog.get("S").full.column("A1"), [0.5, 1.0])
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, True, False, False]
        for response in responses[:2] + responses[3:]:
            assert "'S'" in response["error"] and "'A1'" in response["error"]
            assert "cause" not in response

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"op": "query", "query": "q", "deadline": "soon"}, "'deadline'"),
            ({"op": "query", "query": "q", "deadline": float("inf")}, "finite"),
            ({"op": "query", "query": "q", "sample": "x"}, "'sample'"),
            ({"op": "trace", "n": "x"}, "'n'"),
            ({"op": "prepare", "query": "p", "s": "S", "t": "T",
              "attributes": ["A1"], "workers": "x"}, "'workers'"),
            ({"op": "prepare", "query": "p", "s": "S", "t": "T",
              "attributes": ["A1"], "workers": 10**7}, "workers must be between 1 and"),
            ({"op": "query", "query": "q", "epsilons": ["a"]}, "epsilons must be numbers"),
            ({"op": "register", "name": ["x"], "columns": {"A1": [0.5]}}, "'name'"),
            ({"op": "prepare", "query": "p", "s": "S", "t": "T", "attributes": "A1"},
             "'attributes'"),
            ({"op": "register", "name": "S", "columns": {"x": [5.0]},
              "replace": "false"}, "'replace'"),
            ({"op": "explain", "query": "q", "analyze": "false"}, "'analyze'"),
            ({"op": "query", "query": "q", "sample": 1001}, "'sample'"),
            ({"op": "query", "query": "q", "sample": -1}, "'sample'"),
            ({"op": "calibrate"}, "unknown operation 'calibrate'"),
        ],
        ids=["deadline", "deadline-inf", "sample", "trace-n", "workers",
             "workers-too-many", "epsilons", "name", "attributes",
             "replace-string", "analyze-string", "sample-too-large",
             "sample-negative", "calibrate-removed"],
    )
    def test_malformed_fields_are_client_errors(self, bad, named):
        """A field of the wrong JSON type or out of range answers
        ``{"ok": false}`` naming it, without an ``internal`` cause, and the
        next request is served."""
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": [0.1, 0.2]}},
            {"op": "register", "name": "T", "columns": {"A1": [0.15]}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.06]},
            bad,
            {"op": "query", "query": "q"},
        ]
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[3]["ok"] is False and "cause" not in responses[3]
        assert named in responses[3]["error"]
        assert responses[4]["ok"] and responses[4]["pairs"] == 2

    @pytest.mark.parametrize(
        "good, answered, pairs_after",
        [
            ({"op": "query", "query": "q", "sample": 0},
             lambda r: r["ok"] and "sample" not in r, 2),
            ({"op": "query", "query": "q", "sample": MAX_SAMPLE},
             lambda r: r["ok"] and len(r["sample"]) == 2, 2),
            ({"op": "register", "name": "S", "columns": {"A1": [0.1]},
              "replace": True}, lambda r: r["ok"] and r["relation"]["rows"] == 1, 1),
            ({"op": "register", "name": "S", "columns": {"A1": [0.1]},
              "replace": False}, lambda r: not r["ok"] and "already" in r["error"], 2),
            ({"op": "explain", "query": "q", "analyze": True},
             lambda r: r["ok"] and r["explain"]["analyze"] is True, 2),
            ({"op": "explain", "query": "q", "analyze": False},
             lambda r: r["ok"] and r["explain"]["analyze"] is False, 2),
        ],
        ids=["sample-zero", "sample-max", "replace-true", "replace-false",
             "analyze-true", "analyze-false"],
    )
    def test_boolean_flags_and_sample_bounds_are_served(self, good, answered, pairs_after):
        """The JSON booleans and the ends of ``0..MAX_SAMPLE`` keep their
        meaning: ``"replace": false`` leaves a registered relation alone,
        ``true`` replaces it, and ``analyze`` is echoed on the report."""
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": [0.1, 0.2]}},
            {"op": "register", "name": "T", "columns": {"A1": [0.15]}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.06]},
            good,
            {"op": "query", "query": "q"},
        ]
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert answered(responses[3]), responses[3]
        assert responses[4]["ok"] and responses[4]["pairs"] == pairs_after

    def test_negative_or_non_finite_epsilons_are_client_errors(self):
        """A negative, NaN or infinite band width answers ``{"ok": false}``
        at the door, in a query and as a prepared default, and never counts
        as an internal failure."""
        lines = [
            json.dumps({"op": "register", "name": "S", "columns": {"A1": [0.1, 0.2]}}),
            json.dumps({"op": "register", "name": "T", "columns": {"A1": [0.15]}}),
            json.dumps({"op": "prepare", "query": "q", "s": "S", "t": "T",
                        "attributes": ["A1"], "epsilons": [0.06]}),
            '{"op": "query", "query": "q", "epsilons": [-0.1]}',
            '{"op": "query", "query": "q", "epsilons": [NaN]}',
            '{"op": "query", "query": "q", "epsilons": [1e309]}',
            '{"op": "query", "query": "q", "epsilons": [[0.1, -0.1]]}',
            '{"op": "prepare", "query": "p", "s": "S", "t": "T", '
            '"attributes": ["A1"], "epsilons": -1}',
            json.dumps({"op": "query", "query": "q"}),
        ]
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, lines, out)
            failures = service.scheduler.metrics.snapshot()["failures"]
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True] * 3 + [False] * 5 + [True]
        for response in responses[3:8]:
            assert "cause" not in response
            assert "finite and non-negative" in response["error"]
        assert failures.get("internal", 0) == 0
        assert responses[-1]["pairs"] == 2

    def test_internal_errors_answer_and_keep_serving(self, monkeypatch):
        """Any exception, not only a ``ReproError``, becomes ``{"ok": false}``."""
        import repro.service.prepared as prepared_mod

        rng = np.random.default_rng(19)
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": rng.random(50).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(50).tolist()}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.05]},
            {"op": "query", "query": "q"},
            {"op": "ping"},
        ]

        def broken_task(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        # The failure is injected into the one task a cold query runs inline.
        monkeypatch.setattr(prepared_mod, "execute_task", broken_task)
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True, True, True, False, True]
        assert responses[3]["cause"] == "internal"
        assert "kernel exploded" in responses[3]["error"]
        assert responses[-1] == {"ok": True, "op": "pong"}

    def test_tcp_transport(self):
        import socket

        from repro.service import LineProtocolServer

        rng = np.random.default_rng(17)
        with sync_service() as service:
            server = LineProtocolServer(("127.0.0.1", 0), service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with socket.create_connection(server.server_address[:2], timeout=10) as conn:
                    stream = conn.makefile("rw", encoding="utf-8")
                    for request in (
                        {"op": "register", "name": "S", "columns": {"A1": rng.random(100).tolist()}},
                        {"op": "register", "name": "T", "columns": {"A1": rng.random(100).tolist()}},
                        {"op": "prepare", "query": "q", "s": "S", "t": "T",
                         "attributes": ["A1"], "epsilons": [0.05]},
                        {"op": "query", "query": "q"},
                    ):
                        stream.write(json.dumps(request) + "\n")
                        stream.flush()
                        response = json.loads(stream.readline())
                        assert response["ok"], response
                    assert response["pairs"] > 0
            finally:
                server.shutdown()
                server.server_close()

    def test_cli_serve_stdio(self, monkeypatch, capsys):
        from repro import cli

        rng = np.random.default_rng(18)
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": rng.random(120).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(120).tolist()}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.05]},
            {"op": "query", "query": "q"},
            {"op": "quit"},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        )
        assert cli.main(["serve", "--backend", "serial"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ready = json.loads(lines[0])
        assert ready["op"] == "ready" and ready["transport"] == "stdio"
        replies = [json.loads(line) for line in lines[1:]]
        assert all(r["ok"] for r in replies)
        assert replies[3]["pairs"] > 0


class TestOutputAdmissionControl:
    """max_estimated_pairs prices queries before they reach a worker."""

    def test_oversized_estimate_is_rejected_narrow_passes(self):
        rng = np.random.default_rng(3)
        with sync_service(max_estimated_pairs=1000, workers=2) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"])
            # A band covering everything estimates ~160k pairs: rejected.
            with pytest.raises(ServiceOverloadError):
                service.query("q", epsilons=10.0)
            assert service.scheduler.metrics.snapshot()["rejected"] == 1
            # A narrow band estimates well under the limit: served.
            result = service.query("q", epsilons=0.0005)
            assert result.n_pairs == _reference_pairs(
                service.catalog.get("S").full, service.catalog.get("T").full, 0.0005
            ).shape[0]

    def test_cached_result_prices_exactly(self):
        """After a result is cached, admission uses its exact cardinality."""
        rng = np.random.default_rng(7)
        with sync_service(workers=2) as service:
            service.register("S", _columns(rng, 300))
            service.register("T", _columns(rng, 300))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            exact = service.query("q").n_pairs
            assert prepared.estimate_pairs() == float(exact)

    def test_estimate_pairs_sanity(self):
        """The sampled estimate lands within a small factor of the truth."""
        rng = np.random.default_rng(11)
        with sync_service(workers=2) as service:
            service.register("S", _columns(rng, 2000))
            service.register("T", _columns(rng, 2000))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            estimate = prepared.estimate_pairs()
            exact = service.query("q").n_pairs
            assert 0.3 * exact <= estimate <= 3.0 * exact


class TestServingPathsAgree:
    """Every serving path of one prepared query answers the same counts.

    The non-timing checks of the retired serving benchmark, on its workload
    shape (2-d Pareto-1.5, 8 workers, six ε) at tier-1 size: a cold query
    per ε, then the result caches dropped (every ε joins inline again, and
    nothing was planned), repeats from the result cache, deltas after a 1%
    append, and a concurrent mixed burst through the scheduler.
    """

    EPSILONS = (0.004, 0.006, 0.008, 0.010, 0.012, 0.014)

    def test_counts_per_path(self):
        from repro.data.generators import correlated_pair, pareto_relation

        s, t = correlated_pair(1500, 1500, dimensions=2, z=1.5, seed=0)
        config = ServiceConfig(
            backend="threads", workers=8, staleness_threshold=math.inf,
            scheduler_workers=4,
        )
        with BandJoinService(config) as service:
            service.register("S", s)
            service.register("T", t)
            prepared = service.prepare("q", "S", "T", attributes=["A1", "A2"])

            def exact(eps) -> int:
                s_snap, t_snap = prepared.snapshots()
                return IntervalJoin().count(
                    s_snap.full.join_matrix(["A1", "A2"]),
                    t_snap.full.join_matrix(["A1", "A2"]),
                    prepared.condition(eps),
                )

            counts = {}
            for eps in self.EPSILONS:
                result = service.query("q", eps)
                assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
                counts[eps] = result.n_pairs
                assert counts[eps] == exact(eps)

            prepared.invalidate()
            for eps in self.EPSILONS:
                result = service.query("q", eps)
                assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
                assert result.n_pairs == counts[eps]
            assert len(service.engine.plan_cache) == 0

            for _ in range(2):
                for eps in self.EPSILONS:
                    result = service.query("q", eps)
                    assert (result.path, result.n_pairs) == (PATH_RESULT_CACHE, counts[eps])

            service.append("S", pareto_relation("S", 15, dimensions=2, z=1.5, seed=99))
            for eps in self.EPSILONS:
                result = service.query("q", eps)
                assert result.path == PATH_DELTA
                assert result.n_pairs >= counts[eps]
                counts[eps] = result.n_pairs
                assert counts[eps] == exact(eps)

            futures = [service.submit("q", self.EPSILONS[i % 6]) for i in range(36)]
            for i, future in enumerate(futures):
                assert future.result(timeout=60).n_pairs == counts[self.EPSILONS[i % 6]]
