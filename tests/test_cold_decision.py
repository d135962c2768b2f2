"""The cold path's decision: one inline kernel call or a plan.

A query without a cached anchor joins the two bases.  Under a cached plan it
always runs that plan; otherwise it prices one inline kernel call (κ·L)
against a new plan (κ·L/p + P) with the service's own last measurements and
takes the cheaper.  Whichever way it goes, the answer must be the same pair
set, and a later delta must extend it the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.engine import ParallelJoinEngine
from repro.local_join import IntervalJoin
from repro.local_join.base import canonical_pair_order
from repro.obs.workload import pair_fingerprint
from repro.service import (
    PATH_COLD,
    PATH_DELTA,
    PATH_PLAN_CACHE,
    BandJoinService,
    PreparedQuery,
    PriceList,
    RelationCatalog,
)


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


def _pin(prepared: PreparedQuery, plan_seconds: float, rate: float = 1.0) -> None:
    """Seed the prices: a huge plan price makes the cold path inline, 0 plans."""
    prepared.prices.seconds_per_load = rate
    prepared.prices.plan_seconds[prepared.price_key] = plan_seconds


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
    def test_same_pairs_and_fingerprint(self, tmp_path, storage, d, eps, s_rows):
        rng = np.random.default_rng(d * 7 + s_rows)
        catalog = RelationCatalog(
            staleness_threshold=100.0, storage=storage,
            spill_dir=str(tmp_path), spill_threshold_bytes=1,
        )
        catalog.register("S", _columns(_dyadic(rng, s_rows, d)))
        catalog.register("T", _columns(_dyadic(rng, 280, d)))
        epsilons = [eps] * d
        inline = _prepared(catalog, d, epsilons=epsilons, prices=PriceList())
        planned = _prepared(catalog, d, epsilons=epsilons, prices=PriceList())
        _pin(inline, plan_seconds=1e9)
        _pin(planned, plan_seconds=0.0)

        answers = [inline.execute(), planned.execute()]
        assert [(a.path, a.inline) for a in answers] == [(PATH_COLD, True), (PATH_COLD, False)]
        assert answers[0].base_job.n_workers == 1
        assert len(inline.engine.plan_cache) == 0 and len(planned.engine.plan_cache) == 1
        expected = _full_join(inline)
        for answer in answers:
            np.testing.assert_array_equal(canonical_pair_order(answer.pairs), expected)
        assert answers[0].fingerprint() == answers[1].fingerprint() == pair_fingerprint(expected)

        # A cold answer is an anchor like any other: the delta extends it.
        catalog.append("S", _columns(_dyadic(rng, 9, d)))
        catalog.append("T", _columns(_dyadic(rng, 7, d)))
        answers = [inline.execute(), planned.execute()]
        assert [a.path for a in answers] == [PATH_DELTA, PATH_DELTA]
        expected = _full_join(inline)
        for answer in answers:
            np.testing.assert_array_equal(canonical_pair_order(answer.pairs), expected)
        assert answers[0].fingerprint() == answers[1].fingerprint() == pair_fingerprint(expected)

    def test_appended_rows_before_the_first_query(self):
        """The inline base join is extended by rows appended before it ran."""
        rng = np.random.default_rng(5)
        catalog = RelationCatalog(staleness_threshold=100.0)
        catalog.register("S", _columns(_dyadic(rng, 200, 2)))
        catalog.register("T", _columns(_dyadic(rng, 200, 2)))
        catalog.append("T", _columns(_dyadic(rng, 11, 2)))
        prepared = _prepared(catalog, 2)
        _pin(prepared, plan_seconds=1e9)
        result = prepared.execute()
        assert (result.path, result.inline) == (PATH_COLD, True)
        assert result.delta_job is not None
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), _full_join(prepared))


class TestDecision:
    def _catalog(self, rows: int = 400) -> RelationCatalog:
        rng = np.random.default_rng(3)
        catalog = RelationCatalog()
        catalog.register("S", _columns(_dyadic(rng, rows, 2)))
        catalog.register("T", _columns(_dyadic(rng, rows, 2)))
        return catalog

    def test_one_worker_never_plans(self):
        prepared = _prepared(self._catalog(), 2, workers=1)
        decision = prepared.cold_decision()  # the key's plan price is unknown
        assert decision.inline and decision.parallelism == 1
        assert prepared.execute(0.25).inline
        _pin(prepared, plan_seconds=0.0)  # a free plan cannot win either
        assert prepared.execute(0.5).inline
        assert len(prepared.engine.plan_cache) == 0

    def test_a_serial_service_never_plans(self):
        """A serial backend runs one task at a time, so p = 1 whatever the
        CPU count: one inline task is strictly cheaper than a plan."""
        rng = np.random.default_rng(9)
        config = ServiceConfig(backend="serial", compaction="sync", workers=8)
        with BandJoinService(config) as service:
            for name in ("S", "T"):
                service.register(name, _columns(_dyadic(rng, 300, 2)))
            prepared = service.prepare("q", "S", "T", attributes=["A1", "A2"], epsilons=0.25)
            decision = prepared.cold_decision()
            assert decision.inline and decision.parallelism == 1
            result = service.query("q")
            assert (result.path, result.inline) == (PATH_COLD, True)
            assert len(service.engine.plan_cache) == 0

    def test_unknown_key_plans_and_records_its_price(self):
        prepared = _prepared(self._catalog(), 2)
        prepared.prices.seconds_per_load = 1.0
        assert not prepared.cold_decision().inline
        result = prepared.execute()
        assert (result.path, result.inline) == (PATH_COLD, False)
        assert result.optimization_seconds > 0
        assert len(prepared.engine.plan_cache) == 1
        assert prepared.prices.plan_seconds[prepared.price_key] > 0
        assert prepared.prices.seconds_per_load != 1.0  # measured now

    def test_large_plan_price_goes_inline_and_leaves_no_plan(self):
        prepared = _prepared(self._catalog(), 2)
        _pin(prepared, plan_seconds=1e9, rate=123.0)
        result = prepared.execute()
        assert (result.path, result.inline) == (PATH_COLD, True)
        assert result.optimization_seconds == 0.0
        assert len(prepared.engine.plan_cache) == 0
        assert prepared.engine.plan_cache.stats.lookups == 0
        rate = prepared.prices.seconds_per_load
        assert rate != 123.0 and rate > 0  # κ from the inline task

    def test_tiny_plan_price_plans(self):
        prepared = _prepared(self._catalog(), 2)
        _pin(prepared, plan_seconds=0.0)
        assert not prepared.execute().inline
        assert len(prepared.engine.plan_cache) == 1

    def test_cached_plan_runs_whatever_the_prices(self):
        prepared = _prepared(self._catalog(), 2)
        _pin(prepared, plan_seconds=0.0)
        first = prepared.execute()
        prepared.invalidate()
        _pin(prepared, plan_seconds=1e9)
        assert prepared.cold_decision().plan is not None
        again = prepared.execute()
        assert (again.path, again.inline) == (PATH_PLAN_CACHE, False)
        assert again.fingerprint() == first.fingerprint()

    def test_prices_of_the_decision(self):
        catalog = self._catalog(rows=300)
        prepared = _prepared(catalog, 2, workers=8)
        _pin(prepared, plan_seconds=0.5, rate=2e-6)
        decision = prepared.cold_decision()
        weights = prepared.engine.weights
        load = weights.load(600, prepared.sampled_estimate())
        assert decision.parallelism == 4  # min(workers, the pool of 4)
        assert decision.inline_seconds == pytest.approx(2e-6 * load)
        assert decision.plan_seconds == pytest.approx(2e-6 * load / 4 + 0.5)
        assert decision.inline == (decision.inline_seconds <= decision.plan_seconds)

    def test_service_shares_one_price_list(self):
        rng = np.random.default_rng(8)
        with BandJoinService(ServiceConfig(compaction="sync")) as service:
            for name in ("S", "T"):
                service.register(name, _columns(_dyadic(rng, 300, 1)))
            first = service.prepare("a", "S", "T", attributes=["A1"], epsilons=0.25)
            second = service.prepare("b", "S", "T", attributes=["A1"], epsilons=0.5)
            assert first.prices is second.prices is service.prices
            assert first.price_key == second.price_key
            service.query("a")
            assert service.prices.seconds_per_load is not None
            if first.cold_decision().parallelism > 1:
                # The first cold query of a key plans; its price is recorded.
                assert first.price_key in service.prices.plan_seconds


def test_concurrent_cold_queries_share_the_prices():
    """Scheduler threads decide and record prices at once; every answer is
    still the full join, and the prices end up measured."""
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


class TestExplainDecision:
    def _prepared(self, plan_seconds: float) -> PreparedQuery:
        rng = np.random.default_rng(4)
        catalog = RelationCatalog()
        catalog.register("S", _columns(_dyadic(rng, 300, 2)))
        catalog.register("T", _columns(_dyadic(rng, 300, 2)))
        prepared = _prepared(catalog, 2)
        _pin(prepared, plan_seconds=plan_seconds, rate=1e-6)
        return prepared

    def test_explain_of_an_inline_query_builds_no_plan(self):
        prepared = self._prepared(plan_seconds=1e9)
        report = prepared.explain().to_dict()
        assert len(prepared.engine.plan_cache) == 0
        assert prepared.stats.executions == 0
        children = {c["name"]: c for c in report["plan"]["children"]}
        assert "partitioning" not in children
        inline = children["inline"]
        assert inline["attrs"]["chosen"] is True
        assert inline["attrs"]["parallelism"] == 4
        assert inline["attrs"]["plan_seconds"] > inline["estimates"]["seconds"] > 0
        assert inline["estimates"]["input"] == 600

    def test_explain_analyze_grafts_the_inline_seconds(self):
        prepared = self._prepared(plan_seconds=1e9)
        report = prepared.explain(analyze=True)
        assert report.path == PATH_COLD
        inline = next(c for c in report.root.children if c.name == "inline")
        assert inline.actuals["seconds"] > 0
        assert inline.actuals["input"] == 600
        assert len(prepared.engine.plan_cache) == 0

    def test_explain_of_a_planned_query_shows_both_prices(self):
        prepared = self._prepared(plan_seconds=0.0)
        report = prepared.explain().to_dict()
        children = report["plan"]["children"]
        assert children[0]["name"] == "partitioning"
        inline = next(c for c in children if c["name"] == "inline")
        assert inline["attrs"]["chosen"] is False
        assert inline["attrs"]["plan_seconds"] < inline["estimates"]["seconds"]
        assert len(prepared.engine.plan_cache) == 1

    def test_explain_and_a_cached_plan_leave_their_prices(self):
        """EXPLAIN keeps the seconds of the plan it builds as P, and the query
        that runs that cached plan measures κ: the next new ε is priced."""
        rng = np.random.default_rng(4)
        catalog = RelationCatalog()
        catalog.register("S", _columns(_dyadic(rng, 300, 2)))
        catalog.register("T", _columns(_dyadic(rng, 300, 2)))
        prepared = _prepared(catalog, 2)
        prepared.explain(0.25)
        assert len(prepared.engine.plan_cache) == 1
        assert prepared.prices.plan_seconds[prepared.price_key] > 0
        assert prepared.execute(0.25).path == PATH_PLAN_CACHE
        assert prepared.prices.seconds_per_load > 0
        inline = next(c for c in prepared.explain(0.5).root.children if c.name == "inline")
        assert inline.estimates["seconds"] > 0
        assert inline.attrs["plan_seconds"] > 0
