"""The delta path: cached results extended by the rows appended since.

After every append the answer must be exactly the join of the full
relations, whatever the history: appends to either side in any order, empty
appends, compactions, and anchors that are evicted or re-registered.  Values are multiples of 1/4 and 1/8, so
every kernel decides band-edge pairs the same way.  A delta answer must also
cost only the delta: it shares its anchor's pair segments, hashes only its
new pairs, and sorts only the rows appended since the last query.
"""

from __future__ import annotations

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition
from repro.local_join import IntervalJoin
from repro.local_join.base import canonical_pair_order
from repro.obs.workload import pair_fingerprint
from repro.service import prepared as prepared_module
from repro.service import (
    PATH_COLD,
    PATH_DELTA,
    PATH_RESULT_CACHE,
    BandJoinService,
    PreparedQuery,
    RelationCatalog,
)

def _attributes(d: int) -> list[str]:
    return [f"A{k + 1}" for k in range(d)]


def _columns(matrix: np.ndarray) -> dict:
    return {a: matrix[:, k] for k, a in enumerate(_attributes(matrix.shape[1]))}


def _dyadic(rng: np.random.Generator, n: int, d: int, low: float = 0.0, high: float = 3.0):
    return rng.integers(int(low * 8), int(high * 8) + 1, size=(n, d)) / 8.0


def _check_full_join(prepared: PreparedQuery, result, condition: BandCondition) -> None:
    """The result is the single-machine join of the current relations, with
    every pair once."""
    s_snap, t_snap = prepared.snapshots()
    attributes = list(prepared.attributes)
    expected = IntervalJoin().join(
        s_snap.full.join_matrix(attributes), t_snap.full.join_matrix(attributes), condition
    )
    produced = canonical_pair_order(result.pairs)
    assert np.unique(produced, axis=0).shape[0] == produced.shape[0], "duplicate pair"
    np.testing.assert_array_equal(produced, canonical_pair_order(expected))


_STEP = st.tuples(
    st.sampled_from(["append S", "append T", "compact S", "compact T"]),
    st.integers(0, 12),  # rows appended (0 = empty append)
    st.booleans(),  # appended rows fall outside the base's range
    st.booleans(),  # query after the step (rows appended before a skipped
    # query and a compaction reach the next query inside the base)
)


class TestDeltaEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 3),
        eps=st.tuples(st.sampled_from([0.25, 0.5]), st.sampled_from([0.125, 0.25, 0.75])),
        storage=st.sampled_from(["memory", "mmap"]),
        steps=st.lists(_STEP, min_size=1, max_size=8),
    )
    def test_every_step_equals_the_full_join(
        self, tmp_path_factory, seed, d, eps, storage, steps
    ):
        rng = np.random.default_rng(seed)
        catalog = RelationCatalog(
            staleness_threshold=100.0,
            storage=storage,
            spill_dir=str(tmp_path_factory.mktemp("spill")),
            spill_threshold_bytes=1,
        )
        catalog.register("S", _columns(_dyadic(rng, 40, d)))
        catalog.register("T", _columns(_dyadic(rng, 40, d)))
        prepared = PreparedQuery(
            catalog,
            ParallelJoinEngine(backend="serial"),
            "S",
            "T",
            _attributes(d),
            default_epsilons=[eps] * d,
            workers=4,
        )
        condition = prepared.condition()
        _check_full_join(prepared, prepared.execute(), condition)
        changed = False
        for step, (action, rows, outside, query) in enumerate(steps):
            kind, side = action.split()
            if kind == "compact":
                catalog.compact(side)
            else:
                low, high = (-2.0, 6.0) if outside else (0.0, 3.0)
                catalog.append(side, _columns(_dyadic(rng, rows, d, low, high)))
                changed = changed or rows > 0
            if query or step == len(steps) - 1:
                result = prepared.execute()
                _check_full_join(prepared, result, condition)
                # Compactions keep the versions and the anchor: every later
                # answer is cached or extends a cached one.
                assert result.path == (PATH_DELTA if changed else PATH_RESULT_CACHE)
                changed = False


_HISTORY_STEP = st.tuples(
    st.sampled_from(["append S", "append T", "compact S", "compact T", "register S"]),
    st.integers(0, 12),  # rows appended or registered
    st.booleans(),  # query after the step
)


def _check_chain(result, anchor, hashed: list[int]) -> None:
    """A delta answer reuses its anchor's segments and hashed only its new
    pairs; every chain obeys the segment merge rule."""
    sizes = [len(segment) for segment in result.segments]
    assert all(size > 0 for size in sizes)
    assert all(older > 2 * newer for older, newer in zip(sizes, sizes[1:]))
    assert len(sizes) <= 1 + math.log2(max(result.n_pairs, 1))
    if result.path == PATH_DELTA:
        assert len(result.segments) - 1 <= len(anchor.segments)
        assert all(a is b for a, b in zip(result.segments[:-1], anchor.segments))
        assert sum(hashed) == result.n_pairs - anchor.n_pairs
    else:
        assert sum(hashed) == result.n_pairs


def _check_delta_index(prepared: PreparedQuery) -> None:
    """Every memoized index of appended rows that is still current equals a
    fresh stable argsort of the rows it covers."""
    for name, (registration, base_version, values, rows) in prepared._delta_index.items():
        snap = prepared.catalog.get(name)
        if (registration, base_version) != (snap.registration, snap.base_version):
            continue
        column = np.asarray(snap.delta.column("A1"), dtype=float)[: len(rows)]
        fresh = np.argsort(column, kind="stable")
        np.testing.assert_array_equal(rows, fresh)
        np.testing.assert_array_equal(values, column[fresh])


class TestDeltaCost:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 2),
        storage=st.sampled_from(["memory", "mmap"]),
        steps=st.lists(_HISTORY_STEP, min_size=1, max_size=10),
    )
    def test_delta_answers_chain_segments_and_hash_only_new_pairs(
        self, tmp_path_factory, seed, d, storage, steps
    ):
        rng = np.random.default_rng(seed)
        catalog = RelationCatalog(
            staleness_threshold=100.0,
            storage=storage,
            spill_dir=str(tmp_path_factory.mktemp("spill")),
            spill_threshold_bytes=1,
        )
        catalog.register("S", _columns(_dyadic(rng, 30, d)))
        catalog.register("T", _columns(_dyadic(rng, 30, d)))
        prepared = PreparedQuery(
            catalog,
            ParallelJoinEngine(backend="serial"),
            "S",
            "T",
            _attributes(d),
            default_epsilons=0.25,
            workers=2,
        )
        condition = prepared.condition()
        hashed: list[int] = []
        original = prepared_module.pair_hash

        def spy(pairs):
            hashed.append(len(pairs))
            return original(pairs)

        anchor = None
        with mock.patch.object(prepared_module, "pair_hash", spy):
            for step, (action, rows, query) in enumerate(steps):
                kind, side = action.split()
                if kind == "compact":
                    catalog.compact(side)  # what compaction="sync" runs
                elif kind == "register":
                    catalog.register(side, _columns(_dyadic(rng, rows, d)), replace=True)
                else:
                    catalog.append(side, _columns(_dyadic(rng, rows, d, -1.0, 4.0)))
                if not (query or step == len(steps) - 1):
                    continue
                hashed.clear()
                result = prepared.execute()
                _check_full_join(prepared, result, condition)
                assert result.fingerprint() == pair_fingerprint(result.pairs)
                if result.path != PATH_RESULT_CACHE:
                    _check_chain(result, anchor, hashed)
                _check_delta_index(prepared)
                anchor = result

    def test_a_delta_query_sorts_only_the_rows_appended_since(self):
        """Each base is sorted once, and each appended row once, however many
        delta queries probe the rows appended before it."""
        rng = np.random.default_rng(11)
        with _service() as service:
            _register(service, rng)
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
            sorted_rows = []
            original = prepared_module._extend_index

            def spy(values, rows, column):
                sorted_rows.append(len(column))
                return original(values, rows, column)

            with mock.patch.object(prepared_module, "_extend_index", spy):
                service.query("q")  # the inline join sorts both bases
                for count in (5, 7, 3):
                    service.append("T", _columns(_dyadic(rng, count, 1)))
                    assert service.query("q").path == PATH_DELTA  # probes S
                    service.append("S", _columns(_dyadic(rng, 2, 1)))
                    assert service.query("q").path == PATH_DELTA  # probes T
            # S base and T base, T's 5 appended rows, then only the rows
            # appended since: S's 2, T's 7, S's 2, T's 3.
            assert sorted_rows == [200, 200, 5, 2, 7, 2, 3]


def _service(**overrides) -> BandJoinService:
    config = dict(compaction="sync", scheduler_workers=1, staleness_threshold=100.0)
    config.update(overrides)
    return BandJoinService(ServiceConfig(**config))


def _register(service: BandJoinService, rng, rows: int = 200) -> None:
    service.register("S", _columns(_dyadic(rng, rows, 1)), replace=True)
    service.register("T", _columns(_dyadic(rng, rows, 1)), replace=True)


class TestAnchors:
    def test_delta_queries_extend_the_previous_answer(self):
        rng = np.random.default_rng(1)
        with _service() as service:
            _register(service, rng)
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
            service.query("q")
            for side in "STST":
                service.append(side, _columns(_dyadic(rng, 5, 1)))
                result = service.query("q")
                assert result.path == PATH_DELTA
                _check_full_join(prepared, result, prepared.condition())
                assert prepared.cached_results() == 1

    def test_evicted_anchor_falls_back_to_the_base_join(self):
        rng = np.random.default_rng(2)
        with _service(result_cache_size=1) as service:
            _register(service, rng)
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
            service.query("q")
            service.query("q", 0.5)  # evicts the 0.25 result
            service.append("S", _columns(_dyadic(rng, 5, 1)))
            result = service.query("q")
            assert result.path == PATH_COLD
            _check_full_join(prepared, result, prepared.condition())

    def test_compaction_keeps_the_lineage(self):
        rng = np.random.default_rng(3)
        with _service() as service:
            _register(service, rng)
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
            service.query("q")
            service.append("T", _columns(_dyadic(rng, 5, 1)))
            service.query("q")
            service.catalog.compact("T")
            service.append("T", _columns(_dyadic(rng, 5, 1)))
            result = service.query("q")
            assert result.path == PATH_DELTA  # the anchor survives the compaction
            _check_full_join(prepared, result, prepared.condition())
            service.append("S", _columns(_dyadic(rng, 5, 1)))
            assert service.query("q").path == PATH_DELTA
            # New rows on both sides, the S ones compacted into the base before
            # the query: the second term must stop at the anchor's S rows.
            service.append("S", _columns(_dyadic(rng, 20, 1)))
            service.catalog.compact("S")
            service.append("T", _columns(_dyadic(rng, 20, 1)))
            result = service.query("q")
            assert result.path == PATH_DELTA
            _check_full_join(prepared, result, prepared.condition())

    def test_register_replace_starts_a_new_lineage(self):
        rng = np.random.default_rng(4)
        with _service() as service:
            _register(service, rng)
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
            service.query("q")
            service.append("S", _columns(_dyadic(rng, 5, 1)))
            service.query("q")
            _register(service, rng)  # same row counts, new contents
            service.append("S", _columns(_dyadic(rng, 5, 1)))
            result = service.query("q")
            assert result.path == PATH_COLD
            _check_full_join(prepared, result, prepared.condition())


def test_drop_and_register_never_answers_from_the_dropped_relation():
    """The counters continue across a drop, so the cached answer over the
    dropped S (same version numbers at the parent) is not served."""
    catalog = RelationCatalog()
    catalog.register("S", {"A1": np.arange(100.0)})
    catalog.register("T", {"A1": np.arange(100.0)})
    prepared = PreparedQuery(
        catalog, ParallelJoinEngine(backend="serial"), "S", "T", ["A1"], workers=2
    )
    first = prepared.execute(0.5)
    assert (first.path, first.n_pairs) == (PATH_COLD, 100)
    old = catalog.get("S")
    catalog.drop("S")
    new = catalog.register("S", {"A1": np.arange(1000.0, 1100.0)})
    assert new.version > old.version
    assert new.base_version > old.base_version
    assert new.registration > old.registration
    result = prepared.execute(0.5)
    assert result.path == PATH_COLD
    assert result.n_pairs == 0


@pytest.mark.parametrize("side", ["S", "T"])
def test_delta_query_input_is_proportional_to_the_delta(side):
    """A 2% append to 20k x 20k (d=1) feeds the engine the new rows and the
    other side's rows in their ε-windows, not the whole other relation."""
    rng = np.random.default_rng(6)
    with _service() as service:
        service.register("S", {"A1": rng.pareto(1.5, 20_000)})
        service.register("T", {"A1": rng.pareto(1.5, 20_000)})
        service.prepare("q", "S", "T", attributes=["A1"], epsilons=1e-4)
        before = service.query("q")
        service.append(side, {"A1": rng.pareto(1.5, 400)})
        result = service.query("q")
        assert result.path == PATH_DELTA
        found = result.n_pairs - before.n_pairs
        assert result.job.total_input <= 3 * (400 + found)


def test_concurrent_appends_and_queries_answer_their_reported_rows():
    """Queries on more threads than cores, racing one appender, each return
    the join of exactly the row prefixes their lineage names, with the hash
    sum of exactly those pairs."""
    rng = np.random.default_rng(7)
    s_rows = [_dyadic(rng, 200, 1)] + [_dyadic(rng, 5, 1) for _ in range(12)]
    t_rows = [_dyadic(rng, 200, 1)] + [_dyadic(rng, 5, 1) for _ in range(12)]
    condition = BandCondition({"A1": (0.25, 0.5)})
    results, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _service(scheduler_workers=4) as service:
            service.register("S", _columns(s_rows[0]))
            service.register("T", _columns(t_rows[0]))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=[(0.25, 0.5)])
            done = threading.Event()

            def query():
                try:
                    while not done.is_set():
                        results.append(service.query("q", deadline=60))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=query) for _ in range(6)]
            for thread in threads:
                thread.start()
            for s_chunk, t_chunk in zip(s_rows[1:], t_rows[1:]):
                service.append("S", _columns(s_chunk))
                service.append("T", _columns(t_chunk))
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and results
    s_all, t_all = np.concatenate(s_rows), np.concatenate(t_rows)
    for result in results:
        s_count, t_count = result.lineage[2:]
        expected = IntervalJoin().join(s_all[:s_count], t_all[:t_count], condition)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), canonical_pair_order(expected)
        )
        assert result.fingerprint() == pair_fingerprint(result.pairs)


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_delta_queries_neither_plan_nor_dispatch(tmp_path, monkeypatch, storage):
    """A delta query, also the first after a compaction moved the appended
    rows into the base, runs no plan lookup and no backend dispatch."""
    rng = np.random.default_rng(8)
    with _service(
        storage=storage, spill_dir=str(tmp_path), spill_threshold_bytes=1
    ) as service:
        _register(service, rng)
        prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
        service.query("q")
        calls = []
        for owner, name in (
            (service.engine.plan_cache, "get_or_build"),
            (service.engine.backend, "run"),
        ):
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        service.append("S", _columns(_dyadic(rng, 5, 1)))
        results = [service.query("q")]
        service.append("T", _columns(_dyadic(rng, 5, 1)))
        service.catalog.compact("T")  # the new T rows now sit in the base
        results.append(service.query("q"))
        _check_full_join(prepared, results[-1], prepared.condition())
        service.append("S", _columns(_dyadic(rng, 5, 1)))
        results.append(service.query("q"))
        _check_full_join(prepared, results[-1], prepared.condition())
        assert [result.path for result in results] == [PATH_DELTA] * 3
        assert calls == []
        # The T probe index, extended across the compaction, equals a fresh
        # stable sort of the merged base.
        t_snap = service.catalog.get("T")
        column = np.asarray(t_snap.base.column("A1"))
        _, rows = prepared._sorted_first_column(t_snap)
        np.testing.assert_array_equal(rows, np.argsort(column, kind="stable"))


def test_delta_join_runs_under_the_kernel_memory_budget(monkeypatch):
    """With a 1 KB kernel budget the inline delta join is bound to it and
    still returns exactly the full join's new pairs."""
    rng = np.random.default_rng(9)
    with _service(kernel_memory_budget=1024) as service:
        _register(service, rng, rows=400)
        prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.25)
        service.query("q")
        budgets = []
        algorithm = service.engine.algorithm
        original = algorithm.with_memory_budget

        def spy(budget):
            budgets.append(budget)
            return original(budget)

        monkeypatch.setattr(algorithm, "with_memory_budget", spy)
        service.append("S", _columns(_dyadic(rng, 40, 1)))
        service.append("T", _columns(_dyadic(rng, 40, 1)))
        result = service.query("q")
        assert result.path == PATH_DELTA
        assert budgets and set(budgets) == {1024}
        _check_full_join(prepared, result, prepared.condition())


@settings(max_examples=60, deadline=None)
@given(
    old=st.lists(st.integers(-3, 3), max_size=30),
    new=st.lists(st.integers(-3, 3), min_size=1, max_size=30),
    offset=st.sampled_from([0.0, 1e9, -1e9]),
    scale=st.sampled_from([1.0, 0.125, 1e-9]),
)
def test_extended_probe_index_equals_a_fresh_stable_argsort(old, new, offset, scale):
    """Merging the sorted rows a compaction added into the old index gives
    exactly the index of a fresh stable sort: ties keep row order."""
    from repro.service.prepared import _extend_index

    column = offset + scale * np.asarray(old + new, dtype=float)
    prefix = column[: len(old)]
    order = np.argsort(prefix, kind="stable")
    values, rows = _extend_index(prefix[order], order, column[len(old):])
    fresh = np.argsort(column, kind="stable")
    np.testing.assert_array_equal(rows, fresh)
    np.testing.assert_array_equal(values, column[fresh])
