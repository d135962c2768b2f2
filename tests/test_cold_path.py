"""The cold path: a query without an anchor joins the bases inline.

A query without a cached anchor joins the two bases as one task on the
calling thread, whatever the backend, the pool and the worker budget: the
serving layer never plans.  The answer must be the pair set every engine
plan gives, and a later delta must extend it the same way.  The one task
leaves its kernel rate κ in the service's :class:`PriceList`, which EXPLAIN
prices the next cold query with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import ServiceConfig
from repro.core.recpart import RecPartPartitioner
from repro.engine import ParallelJoinEngine
from repro.exceptions import PartitioningError
from repro.local_join import IntervalJoin
from repro.local_join.base import canonical_pair_order
from repro.obs.workload import pair_fingerprint
from repro.service import (
    PATH_COLD,
    PATH_DELTA,
    BandJoinService,
    PreparedQuery,
    PriceList,
    RelationCatalog,
)

PARTITIONERS = {
    "RecPart": RecPartPartitioner,
    "Grid-eps": GridEpsilonPartitioner,
    "1-Bucket": OneBucketPartitioner,
}


def _attributes(d: int) -> list[str]:
    return [f"A{k + 1}" for k in range(d)]


def _columns(matrix: np.ndarray) -> dict:
    return {a: matrix[:, k] for k, a in enumerate(_attributes(matrix.shape[1]))}


def _dyadic(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Multiples of 1/8, so every kernel decides band-edge pairs alike."""
    return rng.integers(0, 25, size=(n, d)) / 8.0


def _prepared(catalog, d, workers=4, epsilons=0.25, prices=None) -> PreparedQuery:
    """A prepared query on its own engine with a pool of 4, so p > 1 on any machine."""
    engine = ParallelJoinEngine(backend="threads", max_parallelism=4)
    return PreparedQuery(
        catalog, engine, "S", "T", _attributes(d), default_epsilons=epsilons,
        workers=workers, prices=prices,
    )


def _planned(prepared: PreparedQuery, name: str) -> np.ndarray | None:
    """The full relations joined by the engine under a plan of ``name``,
    checked pair for pair against the single-machine join (``None`` when
    the partitioner refuses the input, as Grid-eps refuses ε = 0)."""
    s_snap, t_snap = prepared.snapshots()
    condition = prepared.condition()
    try:
        plan = PARTITIONERS[name]().partition(
            s_snap.full, t_snap.full, condition, workers=prepared.workers
        )
    except PartitioningError:
        return None
    result = prepared.engine.execute(
        s_snap.full, t_snap.full, condition, plan, materialize=True, verify="pairs"
    )
    return canonical_pair_order(result.pairs)


def _full_join(prepared: PreparedQuery) -> np.ndarray:
    s_snap, t_snap = prepared.snapshots()
    attributes = list(prepared.attributes)
    return canonical_pair_order(
        IntervalJoin().join(
            s_snap.full.join_matrix(attributes),
            t_snap.full.join_matrix(attributes),
            prepared.condition(),
        )
    )


class TestInlineEqualsPlanned:
    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "eps, s_rows",
        [(0.25, 300), ((0.125, 0.5), 300), (0.0, 300), (0.25, 0)],
        ids=["symmetric", "asymmetric", "zero", "empty-side"],
    )
    def test_same_pairs_as_every_engine_plan(self, tmp_path, storage, d, eps, s_rows):
        rng = np.random.default_rng(d * 7 + s_rows)
        catalog = RelationCatalog(
            staleness_threshold=100.0, storage=storage,
            spill_dir=str(tmp_path), spill_threshold_bytes=1,
        )
        catalog.register("S", _columns(_dyadic(rng, s_rows, d)))
        catalog.register("T", _columns(_dyadic(rng, 280, d)))
        prepared = _prepared(catalog, d, epsilons=[eps] * d)

        for expect_path in (PATH_COLD, PATH_DELTA):
            answer = prepared.execute()
            assert answer.path == expect_path
            expected = _full_join(prepared)
            np.testing.assert_array_equal(canonical_pair_order(answer.pairs), expected)
            assert answer.fingerprint() == pair_fingerprint(expected)
            planned = {name: _planned(prepared, name) for name in sorted(PARTITIONERS)}
            refused = sorted(name for name, pairs in planned.items() if pairs is None)
            assert refused == (["Grid-eps"] if eps == 0.0 else [])
            for pairs in planned.values():
                if pairs is not None:
                    np.testing.assert_array_equal(pairs, expected)
            # A cold answer is an anchor like any other: the delta extends it.
            catalog.append("S", _columns(_dyadic(rng, 9, d)))
            catalog.append("T", _columns(_dyadic(rng, 7, d)))
        assert len(prepared.engine.plan_cache) == 0

    def test_appended_rows_before_the_first_query(self):
        """The inline base join is extended by rows appended before it ran."""
        rng = np.random.default_rng(5)
        catalog = RelationCatalog(staleness_threshold=100.0)
        catalog.register("S", _columns(_dyadic(rng, 200, 2)))
        catalog.register("T", _columns(_dyadic(rng, 200, 2)))
        catalog.append("T", _columns(_dyadic(rng, 11, 2)))
        prepared = _prepared(catalog, 2)
        result = prepared.execute()
        assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
        assert result.delta_job is not None
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), _full_join(prepared))


class TestServingNeverPlans:
    def _catalog(self, rows: int = 400) -> RelationCatalog:
        rng = np.random.default_rng(3)
        catalog = RelationCatalog()
        catalog.register("S", _columns(_dyadic(rng, rows, 2)))
        catalog.register("T", _columns(_dyadic(rng, rows, 2)))
        return catalog

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_pooled_service_answers_inline_when_planning_would_fail(
        self, monkeypatch, tmp_path, storage, d
    ):
        """A threads service with a pool of 4 whose partitioners and engine
        entry points cannot run: its first cold query (κ not measured yet)
        and a re-prepared query's both join inline, and nothing is planned
        or looked up."""

        def refuse(*args, **kwargs):
            raise AssertionError("the serving path planned")

        for partitioner in PARTITIONERS.values():
            monkeypatch.setattr(partitioner, "partition", refuse)
        monkeypatch.setattr(ParallelJoinEngine, "join", refuse)
        monkeypatch.setattr(ParallelJoinEngine, "execute", refuse)
        rng = np.random.default_rng(9)
        config = ServiceConfig(
            backend="threads", compaction="sync", workers=8, storage=storage,
            spill_dir=str(tmp_path), spill_threshold_bytes=1,
        )
        with BandJoinService(config) as service:
            service.engine.backend.max_workers = 4
            for name in ("S", "T"):
                service.register(name, _columns(_dyadic(rng, 300, d)))
            attributes = _attributes(d)
            service.prepare("q", "S", "T", attributes=attributes, epsilons=0.25)
            assert service.prices.seconds_per_load is None
            first = service.query("q")
            service.prepare("q", "S", "T", attributes=attributes, epsilons=0.25, replace=True)
            again = service.query("q")
            for result in (first, again):
                assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
            np.testing.assert_array_equal(
                canonical_pair_order(first.pairs), _full_join(service.prepared("q"))
            )
            assert again.fingerprint() == first.fingerprint()
            assert len(service.engine.plan_cache) == 0
            assert service.engine.plan_cache.stats.lookups == 0

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("workers", [1, 8])
    def test_every_backend_and_worker_budget_joins_inline(self, backend, workers):
        rng = np.random.default_rng(9)
        config = ServiceConfig(backend=backend, compaction="sync", workers=workers)
        with BandJoinService(config) as service:
            for name in ("S", "T"):
                service.register(name, _columns(_dyadic(rng, 300, 2)))
            prepared = service.prepare("q", "S", "T", attributes=["A1", "A2"], epsilons=0.25)
            for eps in (0.25, 0.5):
                result = service.query("q", eps)
                assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
                assert result.base_job.total_input == 600
            assert prepared.workers == workers
            assert len(service.engine.plan_cache) == 0

    def test_the_inline_task_measures_kappa(self):
        prepared = _prepared(self._catalog(), 2)
        prepared.prices.seconds_per_load = 123.0
        result = prepared.execute()
        assert result.path == PATH_COLD
        assert result.estimated_pairs == prepared.sampled_estimate()
        rate = prepared.prices.seconds_per_load
        assert rate != 123.0 and rate > 0  # κ from the inline task

    def test_price_of_an_inline_join(self):
        prices = PriceList()
        weights = ParallelJoinEngine().weights
        assert prices.seconds(weights, 600, 50.0) is None  # κ not measured yet
        prices.seconds_per_load = 2e-6
        assert prices.seconds(weights, 600, 50.0) == pytest.approx(
            2e-6 * weights.load(600, 50.0)
        )

    def test_service_shares_one_price_list(self):
        rng = np.random.default_rng(8)
        with BandJoinService(ServiceConfig(compaction="sync")) as service:
            for name in ("S", "T"):
                service.register(name, _columns(_dyadic(rng, 300, 1)))
            first = service.prepare("a", "S", "T", attributes=["A1"], epsilons=0.25)
            second = service.prepare("b", "S", "T", attributes=["A1"], epsilons=0.5)
            assert first.prices is second.prices is service.prices
            service.query("a")
            assert service.prices.seconds_per_load is not None


def test_concurrent_cold_queries_share_the_prices():
    """Scheduler threads record prices at once; every answer is still the
    full join, and the prices end up measured."""
    import sys

    rng = np.random.default_rng(12)
    s_rows, t_rows = _dyadic(rng, 400, 1), _dyadic(rng, 400, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BandJoinService(ServiceConfig(compaction="sync", scheduler_workers=6)) as service:
            service.register("S", _columns(s_rows))
            service.register("T", _columns(t_rows))
            prepared = service.prepare("q", "S", "T", attributes=["A1"])
            epsilons = [0.125 * k for k in range(12)]
            futures = [service.submit("q", eps) for eps in epsilons]
            results = [future.result(timeout=60) for future in futures]
            for eps, result in zip(epsilons, results):
                condition = prepared.condition(eps)
                expected = IntervalJoin().join(s_rows, t_rows, condition)
                np.testing.assert_array_equal(
                    canonical_pair_order(result.pairs), canonical_pair_order(expected)
                )
            assert service.prices.seconds_per_load > 0
    finally:
        sys.setswitchinterval(interval)


class TestExplainInline:
    def _prepared(self) -> PreparedQuery:
        rng = np.random.default_rng(4)
        catalog = RelationCatalog()
        catalog.register("S", _columns(_dyadic(rng, 300, 2)))
        catalog.register("T", _columns(_dyadic(rng, 300, 2)))
        return _prepared(catalog, 2)

    def test_explain_prices_the_inline_join_and_builds_no_plan(self):
        prepared = self._prepared()
        prepared.prices.seconds_per_load = 1e-6
        report = prepared.explain().to_dict()
        assert len(prepared.engine.plan_cache) == 0
        assert prepared.stats.executions == 0
        children = {c["name"]: c for c in report["plan"]["children"]}
        assert "partitioning" not in children
        inline = children["inline"]
        weights = prepared.engine.weights
        assert inline["estimates"]["seconds"] == pytest.approx(
            1e-6 * weights.load(600, prepared.sampled_estimate())
        )
        assert inline["estimates"]["input"] == 600

    def test_explain_analyze_grafts_the_inline_seconds(self):
        prepared = self._prepared()
        report = prepared.explain(analyze=True)
        assert report.path == PATH_COLD
        inline = next(c for c in report.root.children if c.name == "inline")
        assert inline.actuals["seconds"] > 0
        assert inline.actuals["input"] == 600
        assert len(prepared.engine.plan_cache) == 0

    def test_the_first_cold_query_prices_the_next(self):
        """Before κ is measured the inline node has no seconds estimate; the
        first cold query measures it, and the next new ε is priced."""
        prepared = self._prepared()
        unpriced = next(c for c in prepared.explain(0.25).root.children if c.name == "inline")
        assert "seconds" not in unpriced.estimates
        assert prepared.execute(0.25).path == PATH_COLD
        assert prepared.prices.seconds_per_load > 0
        inline = next(c for c in prepared.explain(0.5).root.children if c.name == "inline")
        assert inline.estimates["seconds"] > 0
