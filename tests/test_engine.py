"""Tests for the parallel execution engine (repro.engine).

The central property is backend equivalence: whatever backend executes the
reduce phase, the produced pair set must be exactly the serial reference's
(and therefore exactly the single-machine join, which the integration tests
pin down).  The plan cache must hit on byte-identical queries and miss as
soon as data, condition, budget or method change.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import ServiceConfig
from repro.core.recpart import RecPartPartitioner
from repro.data.generators import correlated_pair, uniform_relation
from repro.data.relation import Relation
from repro.data.storage import SpillArena
from repro.engine import (
    ParallelJoinEngine,
    PlanCache,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    available_backends,
    build_worker_tasks,
    condition_key,
    gather_task_inputs,
    get_backend,
    plan_key,
    relation_fingerprint,
    route_side,
    worker_input_counts,
)
from repro.engine.routing import dedup_worker_copies
from repro.exceptions import ExecutionError
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.local_join import IntervalJoin, NestedLoopJoin

REAL_BACKENDS = ("serial", "threads", "processes")


def _small_problem(seed: int = 5, n: int = 1200, dims: int = 2):
    s, t = correlated_pair(n, n + 150, dimensions=dims, z=1.5, seed=seed)
    condition = BandCondition.symmetric([f"A{i + 1}" for i in range(dims)], 0.08)
    return s, t, condition


def _reference_pairs(s, t, condition) -> np.ndarray:
    algorithm = IntervalJoin()
    return canonical_pair_order(
        algorithm.join(
            s.join_matrix(condition.attributes), t.join_matrix(condition.attributes), condition
        )
    )


class TestRouting:
    def test_route_side_groups_every_copy(self):
        s, t, condition = _small_problem()
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        matrix = s.join_matrix(condition.attributes)
        routed = route_side(partitioning, matrix, "S")
        rows, units = partitioning.route(matrix, "S")
        assert routed.n_copies == rows.size
        assert routed.bounds[0] == 0 and routed.bounds[-1] == rows.size
        for unit in range(partitioning.n_units):
            expected = np.sort(rows[units == unit])
            np.testing.assert_array_equal(np.sort(routed.unit_rows(unit)), expected)

    def test_worker_tasks_cover_every_unit_once(self):
        s, t, condition = _small_problem()
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=5)
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        s_routed = route_side(partitioning, s_matrix, "S")
        t_routed = route_side(partitioning, t_matrix, "T")
        tasks = build_worker_tasks(partitioning, s_routed, t_routed)
        assert sum(task.n_units for task in tasks) == partitioning.n_units
        assert len({task.worker_id for task in tasks}) == len(tasks)
        assert sum(task.s_rows.size for task in tasks) == s_routed.n_copies
        assert sum(task.t_rows.size for task in tasks) == t_routed.n_copies

    def test_gather_returns_unshifted_rows_labelled_by_unit(self):
        s, t, condition = _small_problem(n=400)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        s_routed = route_side(partitioning, s_matrix, "S")
        t_routed = route_side(partitioning, t_matrix, "T")
        tasks = build_worker_tasks(partitioning, s_routed, t_routed)
        owners = partitioning.unit_workers()
        for task in tasks:
            worker_s, worker_t = gather_task_inputs(task, s_matrix, t_matrix)
            np.testing.assert_array_equal(worker_s, s_matrix[task.s_rows])
            np.testing.assert_array_equal(worker_t, t_matrix[task.t_rows])
            owned = np.flatnonzero(owners == task.worker_id)
            for rows, units, routed in (
                (task.s_rows, task.s_units, s_routed),
                (task.t_rows, task.t_units, t_routed),
            ):
                assert np.all(np.diff(units) >= 0) and np.isin(units, owned).all()
                for unit in owned:
                    np.testing.assert_array_equal(rows[units == unit], routed.unit_rows(unit))
        # Gathering must not mutate the shared join matrix.
        np.testing.assert_array_equal(s_matrix, s.join_matrix(condition.attributes))

    def test_worker_input_counts_match_executor_accounting(self):
        s, t, condition = _small_problem()
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning)
        s_routed = route_side(partitioning, s.join_matrix(condition.attributes), "S")
        counts = worker_input_counts(partitioning, s_routed)
        for stats in result.job.workers:
            assert stats.input_s == counts[stats.worker_id]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400), workers=st.integers(1, 9))
    def test_dedup_matches_unique_reference(self, seed, n, workers):
        """Single-copy rows bypass np.unique; the counts must not change."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n // int(rng.integers(1, 5)) + 1, size=n)
        owners = rng.integers(0, workers, size=n)
        reference = np.unique(rows * workers + owners) % workers
        np.testing.assert_array_equal(
            np.bincount(dedup_worker_copies(rows, owners, workers), minlength=workers),
            np.bincount(reference, minlength=workers),
        )

    @pytest.mark.parametrize("partitioner", [RecPartPartitioner(), GridEpsilonPartitioner()])
    def test_streamed_input_counts_match_in_memory(self, partitioner, tmp_path):
        """Chunk-local dedup over small chunks sums to the in-memory counts."""
        s, t, condition = _small_problem(n=900)
        partitioning = partitioner.partition(s, t, condition, workers=4)
        expected = {
            side: worker_input_counts(
                partitioning, route_side(partitioning, r.join_matrix(condition.attributes), side)
            )
            for r, side in ((s, "S"), (t, "T"))
        }
        engine = ParallelJoinEngine(backend="serial", spill_dir=str(tmp_path), chunk_bytes=2048)
        result = engine.execute(
            s.spill(str(tmp_path / "s")), t.spill(str(tmp_path / "t")), condition, partitioning
        )
        assert sum(expected["T"]) > len(t)  # some T-tuples reach several workers
        for stats in result.job.workers:
            assert stats.input_s == expected["S"][stats.worker_id]
            assert stats.input_t == expected["T"][stats.worker_id]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    @pytest.mark.parametrize("seed", [5, 23])
    def test_exact_pair_set_on_random_workloads(self, backend, seed):
        """Every backend produces the exact pair set of the single-machine join."""
        s, t, condition = _small_problem(seed=seed)
        partitioning = RecPartPartitioner(seed=seed).partition(s, t, condition, workers=5)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_exact_pair_set_under_grid_partitioning(self, backend):
        s, t, condition = _small_problem(seed=9)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_counts_match_without_materialisation(self, backend):
        s, t, condition = _small_problem(seed=13)
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=6)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning)
        assert result.pairs is None
        assert result.total_output == _reference_pairs(s, t, condition).shape[0]

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_empty_output(self, backend):
        s = uniform_relation("S", 300, dimensions=1, low=0.0, high=1.0, seed=0)
        t = uniform_relation("T", 300, dimensions=1, low=10.0, high=11.0, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        result = ParallelJoinEngine(backend=backend).execute(
            s, t, condition, partitioning, materialize=True
        )
        assert result.total_output == 0
        assert result.pairs.shape == (0, 2)

    def test_process_workers_inherit_inputs_without_shared_memory(
        self, tmp_path, monkeypatch
    ):
        """Forked workers read the driver's matrices directly: with shared
        memory unavailable, memory and mmap inputs both still join on the
        pool itself (no in-driver fallback) to the serial pair set."""
        import multiprocessing.shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("shared memory unavailable")

        def no_fallback(*args, **kwargs):
            raise AssertionError("tasks fell back to in-driver execution")

        monkeypatch.setattr(multiprocessing.shared_memory, "SharedMemory", unavailable)
        monkeypatch.setattr(ProcessPoolBackend, "_run_fallback", no_fallback)
        s, t, condition = _small_problem(seed=37)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        expected = canonical_pair_order(
            ParallelJoinEngine(backend="serial")
            .execute(s, t, condition, partitioning, materialize=True)
            .pairs
        )
        engine = ParallelJoinEngine(
            backend=ProcessPoolBackend(max_workers=2), spill_dir=str(tmp_path)
        )
        for s_in, t_in in (
            (s, t),
            (s.spill(str(tmp_path / "s")), t.spill(str(tmp_path / "t"))),
        ):
            result = engine.execute(s_in, t_in, condition, partitioning, materialize=True)
            np.testing.assert_array_equal(canonical_pair_order(result.pairs), expected)


class TestPlanCache:
    def test_repeated_query_hits_cache(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        first = engine.join(s, t, condition, workers=4)
        second = engine.join(s, t, condition, workers=4)
        assert not first.plan_from_cache
        assert second.plan_from_cache
        assert second.partitioning is first.partitioning
        assert second.total_output == first.total_output
        assert engine.plan_cache.stats.hits == 1
        assert engine.plan_cache.stats.misses == 1

    def test_data_change_invalidates(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4)
        columns = s.to_dict()
        columns["A1"] = columns["A1"].copy()
        columns["A1"][0] += 1e-9
        s_changed = Relation("S", columns)
        changed = engine.join(s_changed, t, condition, workers=4)
        assert not changed.plan_from_cache
        assert engine.plan_cache.stats.misses == 2

    def test_condition_and_budget_changes_invalidate(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4)
        wider = BandCondition.symmetric(condition.attributes, 0.09)
        assert not engine.join(s, t, wider, workers=4).plan_from_cache
        assert not engine.join(s, t, condition, workers=5).plan_from_cache
        # The original query is still cached.
        assert engine.join(s, t, condition, workers=4).plan_from_cache

    def test_partitioner_configuration_is_part_of_the_key(self):
        """Differently configured partitioners of the same class never share plans."""
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        first = engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=1))
        other_seed = engine.join(
            s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=2)
        )
        assert not other_seed.plan_from_cache
        # An identically configured fresh instance does share the plan.
        same = engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=1))
        assert same.plan_from_cache
        assert same.partitioning is first.partitioning

    def test_method_is_part_of_the_key(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner())
        other = engine.join(s, t, condition, workers=4, partitioner=OneBucketPartitioner())
        assert not other.plan_from_cache

    def test_lru_eviction(self):
        s, t, condition = _small_problem(seed=17, n=500)
        cache = PlanCache(max_entries=2)
        engine = ParallelJoinEngine(backend="serial", plan_cache=cache)
        engine.join(s, t, condition, workers=2)
        engine.join(s, t, condition, workers=3)
        engine.join(s, t, condition, workers=4)  # evicts the workers=2 plan
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert not engine.join(s, t, condition, workers=2).plan_from_cache

    def test_fingerprint_and_keys_are_stable(self):
        s, t, condition = _small_problem(seed=17, n=300)
        attrs = condition.attributes
        assert relation_fingerprint(s, attrs) == relation_fingerprint(s, attrs)
        assert relation_fingerprint(s, attrs) != relation_fingerprint(t, attrs)
        assert condition_key(condition) == condition_key(
            BandCondition.symmetric(attrs, 0.08)
        )
        key = plan_key(s, t, condition, 4, "RecPart")
        assert key == plan_key(s, t, condition, 4, "RecPart")
        assert key != plan_key(s, t, condition, 4, "1-Bucket")

    def test_cache_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_concurrent_access_is_safe(self):
        """Regression: the LRU dict is shared by scheduler threads.

        Without the internal lock, concurrent get/put on an OrderedDict
        corrupts its linked list (move_to_end during popitem) and raises.
        """
        import threading

        cache = PlanCache(max_entries=4)
        keys = [(f"k{i}",) for i in range(12)]
        errors: list[Exception] = []

        def hammer(worker_id: int) -> None:
            try:
                for i in range(400):
                    key = keys[(worker_id * 7 + i) % len(keys)]
                    if cache.get(key) is None:
                        cache.put(key, object())
                    if i % 50 == 0:
                        len(cache)
                    if i % 97 == 0:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 4
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses == 8 * 400

    def test_concurrent_misses_build_one_plan_at_a_time(self):
        """Threads missing on one key build it once; on different keys each
        gets its own plan — and no two optimizer runs ever overlap."""
        import sys
        import threading
        import time

        s, t, condition = _small_problem(seed=17, n=300)
        state = {"builds": 0, "running": 0, "overlapped": False}
        guard = threading.Lock()

        class SlowPartitioner(OneBucketPartitioner):
            def partition(self, *args, **kwargs):
                with guard:
                    state["builds"] += 1
                    state["running"] += 1
                    state["overlapped"] |= state["running"] > 1
                time.sleep(0.005)
                try:
                    return super().partition(*args, **kwargs)
                finally:
                    with guard:
                        state["running"] -= 1

        cache = PlanCache()
        partitioner = SlowPartitioner()
        n_threads = 8

        def lookups(worker_counts):
            results = [None] * n_threads
            barrier = threading.Barrier(n_threads)

            def run(i):
                barrier.wait(timeout=10)
                results[i] = cache.get_or_build(partitioner, s, t, condition, worker_counts[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            return results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            same = lookups([4] * n_threads)
            assert state["builds"] == 1
            assert len({id(plan) for plan, _ in same}) == 1
            assert sorted(cached for _, cached in same) == [False] + [True] * (n_threads - 1)
            assert (cache.stats.misses, cache.stats.hits) == (1, n_threads - 1)

            different = lookups(list(range(5, 5 + n_threads)))
            assert state["builds"] == 1 + n_threads
            assert len({id(plan) for plan, _ in different}) == n_threads
            assert not any(cached for _, cached in different)
            assert cache.stats.misses == 1 + n_threads
        finally:
            sys.setswitchinterval(interval)
        assert not state["overlapped"]


class TestExecutorEngineIntegration:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_executor_verifies_pairs_on_engine_backend(self, backend):
        s, t, condition = _small_problem(seed=29)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, verify="pairs")
        assert result.backend == backend
        assert result.execution_seconds >= 0
        assert result.pairs.shape[0] == result.total_output

    def test_engine_accounting_matches_across_backends(self):
        s, t, condition = _small_problem(seed=31)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        serial = ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning)
        threaded = ParallelJoinEngine(backend="threads").execute(
            s, t, condition, partitioning
        )
        assert threaded.total_input == serial.total_input
        assert threaded.total_output == serial.total_output
        per_worker_serial = sorted(
            (w.worker_id, w.output, w.units) for w in serial.job.workers
        )
        per_worker_threaded = sorted(
            (w.worker_id, w.output, w.units) for w in threaded.job.workers
        )
        assert per_worker_serial == per_worker_threaded
        assert sum(w.units for w in serial.job.workers) == partitioning.n_units

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError):
            ParallelJoinEngine(backend="gpu")
        with pytest.raises(ExecutionError):
            get_backend("gpu")

    def test_backend_registry(self):
        assert set(REAL_BACKENDS) == set(available_backends())
        assert isinstance(get_backend("serial"), SerialBackend)
        backend = ThreadPoolBackend(max_workers=3)
        assert get_backend(backend) is backend


class TestEngineConfig:
    """The engine's settings are its constructor's arguments; a service
    passes its own through."""

    def test_invalid_backend(self):
        for backend in ("gpu", "simulated"):
            with pytest.raises(ExecutionError):
                ParallelJoinEngine(backend=backend)
            with pytest.raises(ValueError):
                ServiceConfig(backend=backend)

    def test_invalid_parallelism(self):
        with pytest.raises(ExecutionError):
            ParallelJoinEngine(backend="threads", max_parallelism=0)

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)
        with pytest.raises(ValueError):
            ServiceConfig(plan_cache_size=0)


class TestKernelSelectionAndBudget:
    """Injected kernels and kernel memory budgets through the engine."""

    @pytest.mark.parametrize(
        "algorithm", [IntervalJoin(), IntervalJoin(dim=0), NestedLoopJoin()], ids=repr
    )
    def test_kernels_produce_the_reference_pair_set(self, algorithm):
        s, t, condition = _small_problem(seed=17)
        partitioning = RecPartPartitioner(seed=17).partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend="serial", algorithm=algorithm)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    def test_default_kernel_is_the_index_nested_loop(self):
        algorithm = ParallelJoinEngine(backend="serial").algorithm
        assert isinstance(algorithm, IntervalJoin) and algorithm.dim is None
        assert algorithm.name == "index-nested-loop"

    def test_backend_splits_memory_budget_across_pool(self):
        from repro.engine.backends import ThreadPoolBackend
        from repro.local_join import kernels

        backend = ThreadPoolBackend(max_workers=4, memory_budget=4 * 1024 * 1024)
        algorithm = IntervalJoin()
        bound = backend._budgeted(algorithm, concurrency=4)
        assert bound.memory_budget == 1024 * 1024
        assert algorithm.memory_budget == kernels.DEFAULT_MEMORY_BUDGET  # untouched

    def test_tiny_budget_does_not_change_results(self):
        s, t, condition = _small_problem(seed=21)
        partitioning = RecPartPartitioner(seed=21).partition(s, t, condition, workers=3)
        reference = _reference_pairs(s, t, condition)
        engine = ParallelJoinEngine(
            backend="serial", algorithm=IntervalJoin(dim=0), memory_budget=4096
        )
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), reference)

    def test_service_config_carries_the_kernel_budget(self):
        from repro.service import BandJoinService

        with BandJoinService(
            ServiceConfig(backend="serial", kernel_memory_budget=1 << 20)
        ) as service:
            assert service.engine.backend.memory_budget == 1 << 20
            assert service.engine.algorithm.name == "index-nested-loop"

    def test_rejects_bad_kernel_budgets(self):
        with pytest.raises(ExecutionError):
            ParallelJoinEngine(backend="serial", memory_budget=0)
        with pytest.raises(ValueError):
            ServiceConfig(kernel_memory_budget=0)


class TestUnitsNeverMeet:
    """Each unit is joined on its own, on its tuples as stored.  Pairs at
    exactly ε are common here: a value shift by unit (as the engine once
    applied to batch a worker's units into one call) rounds ``t − s`` across
    the band edge and produced 1886 or 1826 pairs instead of 1522."""

    EPS = 1e-9

    @classmethod
    def _edge_problem(cls):
        rng = np.random.default_rng(7)
        s_values = rng.random(2000) * 1e-3
        t_values = s_values + rng.choice([0, cls.EPS, -cls.EPS, cls.EPS * (1 + 1e-9)], 2000)
        s, t = Relation("S", {"A1": s_values}), Relation("T", {"A1": t_values})
        return s, t, BandCondition.symmetric(["A1"], cls.EPS)

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    @pytest.mark.parametrize("method", range(4), ids=["RecPart-S", "CSIO", "1-Bucket", "Grid-eps"])
    def test_every_path_agrees_with_one_kernel_call(self, method, backend, storage, tmp_path):
        from repro.experiments.runner import default_partitioners

        s, t, condition = self._edge_problem()
        partitioner = default_partitioners()[method]
        partitioning = partitioner.partition(s, t, condition, 4, rng=np.random.default_rng(0))
        if storage == "mmap":
            s, t = s.spill(str(tmp_path / "s")), t.spill(str(tmp_path / "t"))
        engine = ParallelJoinEngine(backend=backend, max_parallelism=2)
        result = engine.execute(s, t, condition, partitioning, materialize=True, verify="pairs")
        assert result.total_output == 1522

    def test_streamed_tasks_regrouped_by_unit(self, tmp_path):
        """Chunks smaller than a unit interleave a streamed worker's copies
        across its units; the streamer regroups them on disk, so every
        streamed task equals its in-memory counterpart copy for copy."""
        from repro.engine.routing import stream_worker_tasks
        from repro.engine.sources import StoreMatrixSource

        s, t, condition = self._edge_problem()
        partitioning = RecPartPartitioner().partition(
            s, t, condition, 4, rng=np.random.default_rng(0)
        )
        assert partitioning.n_units > partitioning.workers
        in_memory = build_worker_tasks(
            partitioning,
            route_side(partitioning, s.join_matrix(condition.attributes), "S"),
            route_side(partitioning, t.join_matrix(condition.attributes), "T"),
        )
        s, t = s.spill(str(tmp_path / "s")), t.spill(str(tmp_path / "t"))
        chunk_bytes = 8 * 64
        with SpillArena.scratch(str(tmp_path / "scratch")) as arena:
            tasks, *_ = stream_worker_tasks(
                partitioning,
                StoreMatrixSource.from_relation(s, condition.attributes),
                StoreMatrixSource.from_relation(t, condition.attributes),
                condition, arena, chunk_bytes,
            )
            spilled = [os.path.basename(getattr(task.s_units, "filename", "")) for task in tasks]
            assert any(name.startswith("S-grouped") for name in spilled), (
                "no streamed task arrived interleaved across its units"
            )
            assert len(tasks) == len(in_memory)
            for task, reference in zip(tasks, in_memory):
                for name in ("s_rows", "s_units", "t_rows", "t_units"):
                    np.testing.assert_array_equal(
                        getattr(task, name), getattr(reference, name)
                    )
        engine = ParallelJoinEngine(backend="serial", chunk_bytes=chunk_bytes)
        result = engine.execute(s, t, condition, partitioning, materialize=True, verify="pairs")
        assert result.total_output == 1522

    def test_regroup_keeps_labels_off_the_heap(self, tmp_path):
        """Regrouping a spilled side allocates a few label blocks on the
        heap, never the side: an argsort with gathered copies would take
        at least three times its size."""
        import tracemalloc

        from repro.engine.routing import LABEL_BLOCK, _group_spilled

        n, n_units = 1 << 20, 24
        rng = np.random.default_rng(3)
        with SpillArena.scratch(str(tmp_path / "scratch")) as arena:
            units = arena.empty(np.int64, n, prefix="units")
            rows = arena.empty(np.int64, n, prefix="rows")
            units[:] = rng.integers(0, n_units, n)
            rows[:] = np.arange(n)
            expected = np.argsort(np.asarray(units), kind="stable")
            tracemalloc.start()
            try:
                grouped_rows, grouped_units = _group_spilled(
                    rows, units, n_units, arena, "test"
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(grouped_rows, expected)
            np.testing.assert_array_equal(grouped_units, np.sort(units))
        assert peak < 8 * 8 * LABEL_BLOCK < n * 8, peak
