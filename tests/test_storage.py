"""Tests for the pluggable column-storage layer (repro.data.storage).

The central property is storage transparency: whether a relation lives on
the heap or in memory-mapped segments, every observable — column values,
content fingerprints, join pair sets on every backend and every local-join
kernel — must be identical.  On top of that the mmap store's own mechanics
are pinned down: segment-crossing reads and gathers, delta appends as
segment-chain unions, incremental compaction, pickling by path, and the
catalog's spill/compact lifecycle.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import correlated_pair
from repro.data.relation import Relation, fingerprint_columns
from repro.data.storage import (
    InMemoryColumnStore,
    MmapColumnStore,
    SpillArena,
    block_spans,
)
from repro.engine import ParallelJoinEngine
from repro.exceptions import SchemaError, ServiceError
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.local_join import IntervalJoin, NestedLoopJoin
from repro.obs.process import current_rss_bytes, peak_rss_bytes, rss_supported
from repro.service.catalog import RelationCatalog

#: Small enough to force several segments and several streaming chunks on
#: the few-thousand-row test relations.
TINY = dict(block_bytes=4096, segment_bytes=4096)


def _random_columns(rng, n):
    return {
        "A1": rng.normal(size=n),
        "A2": rng.uniform(-5, 5, size=n).astype(np.float32),
        "tag": rng.integers(0, 1000, size=n),
    }


def _spilled(relation: Relation, directory) -> Relation:
    return relation.spill(str(directory), **TINY)


# --------------------------------------------------------------------- #
# Store mechanics
# --------------------------------------------------------------------- #
class TestMmapColumnStore:
    def test_reads_slices_and_gathers_across_segments(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = _random_columns(rng, 3000)
        memory = InMemoryColumnStore(columns)
        store = MmapColumnStore.from_store(memory, str(tmp_path), **TINY)

        assert store.rows == 3000
        assert store.backend == "mmap"
        assert store.segment_count > 1
        assert store.column_names == memory.column_names
        for name, reference in columns.items():
            assert store.dtype(name) == reference.dtype
            np.testing.assert_array_equal(store.column(name), reference)
            for start, stop in ((0, 7), (995, 2005), (2990, 3000), (5, 5)):
                np.testing.assert_array_equal(
                    store.read(name, start, stop), reference[start:stop]
                )
            rows = rng.integers(0, 3000, size=500)  # unsorted, with duplicates
            np.testing.assert_array_equal(store.take(name, rows), reference[rows])
            stats = store.column_stats(name)
            assert stats is not None
            assert stats[0] == pytest.approx(float(reference.min()))
            assert stats[1] == pytest.approx(float(reference.max()))

    def test_pickle_round_trips_by_path(self, tmp_path):
        rng = np.random.default_rng(4)
        columns = {"x": rng.normal(size=800)}
        store = MmapColumnStore.from_store(
            InMemoryColumnStore(columns), str(tmp_path), **TINY
        )
        clone = pickle.loads(pickle.dumps(store))
        assert clone.backend == "mmap"
        assert clone.segment_count == store.segment_count
        np.testing.assert_array_equal(clone.column("x"), columns["x"])
        # The payload crossed as paths, not bytes: same backing files.
        assert sorted(clone.file_paths()) == sorted(store.file_paths())

    def test_chunked_write_equals_bulk_write(self, tmp_path):
        rng = np.random.default_rng(5)
        full = {"a": rng.normal(size=2500), "b": rng.integers(0, 9, size=2500)}
        chunks = (
            {name: column[start:stop] for name, column in full.items()}
            for start, stop in block_spans(2500, 400)
        )
        streamed = MmapColumnStore.write(str(tmp_path / "stream"), chunks, **TINY)
        bulk = MmapColumnStore.write(str(tmp_path / "bulk"), full, **TINY)
        for name in full:
            np.testing.assert_array_equal(streamed.column(name), full[name])
            np.testing.assert_array_equal(bulk.column(name), full[name])

    def test_appended_chain_and_compaction_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        base = {"v": rng.normal(size=1500)}
        delta = {"v": rng.normal(size=700)}
        base_store = MmapColumnStore.write(str(tmp_path / "base"), base, **TINY)
        delta_store = MmapColumnStore.write(str(tmp_path / "delta"), delta, **TINY)

        union = base_store.with_appended(delta_store)
        expected = np.concatenate([base["v"], delta["v"]])
        assert union.rows == 2200
        assert union.segment_count == base_store.segment_count + delta_store.segment_count
        np.testing.assert_array_equal(union.column("v"), expected)

        rewritten = union.compacted(str(tmp_path / "rewrite"), **TINY)
        assert rewritten.rows == 2200
        np.testing.assert_array_equal(rewritten.column("v"), expected)

    def test_appending_requires_mmap_and_matching_schema(self, tmp_path):
        store = MmapColumnStore.write(str(tmp_path / "a"), {"v": np.arange(5.0)})
        other = MmapColumnStore.write(str(tmp_path / "b"), {"w": np.arange(5.0)})
        with pytest.raises(SchemaError):
            store.with_appended(InMemoryColumnStore({"v": np.arange(3.0)}))
        with pytest.raises(SchemaError):
            store.with_appended(other)


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #
class TestFingerprints:
    @given(
        rows=st.integers(0, 400),
        seed=st.integers(0, 10_000),
        dtype=st.sampled_from(["float64", "float32", "int64", "int32"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_hash_equals_whole_array_hash(self, rows, seed, dtype):
        """The streaming fingerprint must equal the naive whole-bytes digest."""
        rng = np.random.default_rng(seed)
        column = (rng.normal(size=rows) * 100).astype(dtype)
        naive = hashlib.blake2b(digest_size=16)
        naive.update(f"{rows}:1".encode())
        naive.update(b"c")
        naive.update(str(column.dtype).encode())
        naive.update(np.ascontiguousarray(column).tobytes())
        assert fingerprint_columns([("c", column)], rows) == naive.hexdigest()

    def test_mmap_and_memory_fingerprints_agree(self, tmp_path):
        rng = np.random.default_rng(7)
        relation = Relation("R", _random_columns(rng, 2000))
        spilled = _spilled(relation, tmp_path)
        fresh = Relation.from_store("R", spilled.store)  # no memoized carryover
        for attrs in (("A1",), ("A1", "A2"), ("tag",)):
            assert relation.fingerprint(attrs) == spilled.fingerprint(attrs)
            assert relation.fingerprint(attrs) == fresh.fingerprint(attrs)

    def test_fingerprint_differs_when_content_differs(self, tmp_path):
        rng = np.random.default_rng(8)
        a = Relation("R", {"v": rng.normal(size=500)})
        changed = a.column("v").copy()
        changed[250] += 1e-9
        b = Relation("R", {"v": changed})
        assert _spilled(a, tmp_path / "a").fingerprint(("v",)) != _spilled(
            b, tmp_path / "b"
        ).fingerprint(("v",))


# --------------------------------------------------------------------- #
# Relation-level transparency
# --------------------------------------------------------------------- #
class TestRelationStorageTransparency:
    def test_join_matrix_slices_take_bounds_describe(self, tmp_path):
        rng = np.random.default_rng(9)
        relation = Relation("R", _random_columns(rng, 2400))
        spilled = _spilled(relation, tmp_path)
        attrs = ("A1", "A2")

        np.testing.assert_array_equal(
            relation.join_matrix(attrs), spilled.join_matrix(attrs)
        )
        chunks = list(spilled.iter_join_matrix(attrs, max_bytes=2048))
        assert len(chunks) > 1
        np.testing.assert_array_equal(
            np.vstack([chunk for _, _, chunk in chunks]), relation.join_matrix(attrs)
        )
        rows = rng.integers(0, 2400, size=300)
        for name in relation.column_names:
            np.testing.assert_array_equal(
                relation.take(rows).column(name), spilled.take(rows).column(name)
            )
        np.testing.assert_allclose(relation.bounds(attrs), spilled.bounds(attrs))
        mem_desc, mmap_desc = relation.describe(), spilled.describe()
        for name in relation.column_names:
            assert mem_desc[name]["min"] == pytest.approx(mmap_desc[name]["min"])
            assert mem_desc[name]["max"] == pytest.approx(mmap_desc[name]["max"])

    def test_concat_unions_segments_without_copying(self, tmp_path):
        rng = np.random.default_rng(10)
        a = _spilled(Relation("R", _random_columns(rng, 900)), tmp_path / "a")
        b = _spilled(Relation("R", _random_columns(rng, 400)), tmp_path / "b")
        both = a.concat(b)
        assert both.storage == "mmap"
        assert both.segment_count == a.segment_count + b.segment_count
        assert len(both) == 1300
        np.testing.assert_array_equal(
            both.column("A1"), np.concatenate([a.column("A1"), b.column("A1")])
        )
        # Empty sides short-circuit without touching storage.
        empty = Relation("R", {n: np.empty(0, a.store.dtype(n)) for n in a.column_names})
        assert a.concat(empty).segment_count == a.segment_count
        assert len(empty.concat(a)) == len(a)


# --------------------------------------------------------------------- #
# Engine equivalence: the tentpole property
# --------------------------------------------------------------------- #
def _band_problem(tmp_path, n=1400, dims=2, seed=11, eps=0.05):
    s, t = correlated_pair(n, n + 120, dimensions=dims, z=1.5, seed=seed)
    condition = BandCondition.symmetric([f"A{i + 1}" for i in range(dims)], eps)
    s_mmap = _spilled(s, tmp_path / "s")
    t_mmap = _spilled(t, tmp_path / "t")
    return s, t, s_mmap, t_mmap, condition


def _reference_pairs(s, t, condition):
    return canonical_pair_order(
        IntervalJoin().join(
            s.join_matrix(condition.attributes),
            t.join_matrix(condition.attributes),
            condition,
        )
    )


class TestStreamedEngineEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_pair_sets_match_memory_path_on_every_backend(self, tmp_path, backend):
        from repro.core.recpart import RecPartPartitioner

        s, t, s_mmap, t_mmap, condition = _band_problem(tmp_path)
        plan = RecPartPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(
            backend=backend, spill_dir=str(tmp_path), chunk_bytes=8192
        )
        streamed = engine.execute(s_mmap, t_mmap, condition, plan, materialize=True)
        memory = engine.execute(s, t, condition, plan, materialize=True)
        expected = _reference_pairs(s, t, condition)
        np.testing.assert_array_equal(canonical_pair_order(streamed.pairs), expected)
        np.testing.assert_array_equal(canonical_pair_order(memory.pairs), expected)
        assert streamed.total_output == memory.total_output
        assert streamed.job.total_input == memory.job.total_input

    @pytest.mark.parametrize(
        "algorithm", [IntervalJoin(), IntervalJoin(dim=0), NestedLoopJoin()], ids=repr
    )
    def test_pair_sets_match_on_every_kernel(self, tmp_path, algorithm):
        from repro.core.recpart import RecPartPartitioner

        s, t, s_mmap, t_mmap, condition = _band_problem(tmp_path, n=1000, seed=12)
        plan = RecPartPartitioner().partition(s, t, condition, workers=3)
        engine = ParallelJoinEngine(
            backend="serial",
            algorithm=algorithm,
            spill_dir=str(tmp_path),
            chunk_bytes=8192,
        )
        streamed = engine.execute(s_mmap, t_mmap, condition, plan, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(streamed.pairs), _reference_pairs(s, t, condition)
        )

    def test_count_only_matches_materialized_count(self, tmp_path):
        from repro.core.recpart import RecPartPartitioner

        s, t, s_mmap, t_mmap, condition = _band_problem(tmp_path, n=900, seed=13)
        plan = RecPartPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend="serial", spill_dir=str(tmp_path))
        counted = engine.execute(s_mmap, t_mmap, condition, plan, materialize=False)
        assert counted.pairs is None
        assert counted.total_output == _reference_pairs(s, t, condition).shape[0]

    def test_spilled_task_path_matches(self, tmp_path, monkeypatch):
        """Force the in-task gather spill (``TASK_SPILL_BYTES``) on small inputs."""
        import repro.engine.backends as backends_mod
        from repro.core.recpart import RecPartPartitioner

        monkeypatch.setattr(backends_mod, "TASK_SPILL_BYTES", 2048)
        s, t, s_mmap, t_mmap, condition = _band_problem(tmp_path, n=1100, seed=14)
        plan = RecPartPartitioner().partition(s, t, condition, workers=4)
        for backend in ("serial", "processes"):
            engine = ParallelJoinEngine(
                backend=backend, spill_dir=str(tmp_path), chunk_bytes=8192
            )
            streamed = engine.execute(s_mmap, t_mmap, condition, plan, materialize=True)
            np.testing.assert_array_equal(
                canonical_pair_order(streamed.pairs), _reference_pairs(s, t, condition)
            )


# --------------------------------------------------------------------- #
# Catalog lifecycle: spill on register, delta appends, compaction
# --------------------------------------------------------------------- #
class TestCatalogOutOfCore:
    def test_register_spills_past_threshold_only(self, tmp_path):
        rng = np.random.default_rng(15)
        catalog = RelationCatalog(
            storage="mmap", spill_dir=str(tmp_path), spill_threshold_bytes=8192
        )
        big = catalog.register("big", {"v": rng.normal(size=5000)})
        small = catalog.register("small", {"v": rng.normal(size=10)})
        assert big.storage == "mmap"
        assert small.storage == "memory"
        assert catalog.describe()["big"]["storage"] == "mmap"

    def test_delta_append_and_compact_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        mmap_cat = RelationCatalog(
            storage="mmap", spill_dir=str(tmp_path), spill_threshold_bytes=1
        )
        mem_cat = RelationCatalog()
        parts = [rng.normal(size=n) for n in (2000, 300, 450, 120)]
        mmap_cat.register("r", {"v": parts[0]})
        mem_cat.register("r", {"v": parts[0]})
        for part in parts[1:]:
            mmap_snap = mmap_cat.append("r", {"v": part})
            mem_snap = mem_cat.append("r", {"v": part})
            assert mmap_snap.version == mem_snap.version
            np.testing.assert_array_equal(
                mmap_snap.full.column("v"), mem_snap.full.column("v")
            )
        mmap_done = mmap_cat.compact("r")
        mem_done = mem_cat.compact("r")
        expected = np.concatenate(parts)
        assert mmap_done.delta is None and mem_done.delta is None
        assert mmap_done.version == mem_done.version
        assert mmap_done.base_version == mem_done.base_version
        assert mmap_done.storage == "mmap"
        np.testing.assert_array_equal(mmap_done.base.column("v"), expected)
        assert mmap_done.base.fingerprint(("v",)) == mem_done.base.fingerprint(("v",))

    def test_repeated_compaction_bounds_segment_count(self, tmp_path):
        from repro.config import MAX_SEGMENTS_BEFORE_REWRITE

        rng = np.random.default_rng(17)
        catalog = RelationCatalog(
            storage="mmap", spill_dir=str(tmp_path), spill_threshold_bytes=1
        )
        catalog.register("r", {"v": rng.normal(size=50)})
        for _ in range(3 * MAX_SEGMENTS_BEFORE_REWRITE):
            catalog.append("r", {"v": rng.normal(size=50)})
            catalog.compact("r")
        assert catalog.get("r").segment_count <= MAX_SEGMENTS_BEFORE_REWRITE + 1
        assert len(catalog.get("r").base) == 50 * (3 * MAX_SEGMENTS_BEFORE_REWRITE + 1)

    def test_owned_spill_dir_cleanup_and_validation(self, tmp_path):
        owned = RelationCatalog(storage="mmap", spill_threshold_bytes=1)
        owned.register("r", {"v": np.arange(100.0)})
        root = owned.spill_dir
        assert os.path.isdir(root)
        owned.cleanup()
        assert not os.path.exists(root)

        provided = RelationCatalog(storage="mmap", spill_dir=str(tmp_path / "keep"))
        provided.register("r", {"v": np.arange(100.0)})
        provided.cleanup()
        assert os.path.isdir(str(tmp_path / "keep"))

        with pytest.raises(ServiceError):
            RelationCatalog(storage="ssd")
        with pytest.raises(ServiceError):
            RelationCatalog(spill_threshold_bytes=0)


# --------------------------------------------------------------------- #
# Process RSS accounting
# --------------------------------------------------------------------- #
class TestProcessRss:
    def test_readings_are_positive_and_ordered(self):
        current = current_rss_bytes()
        peak = peak_rss_bytes()
        assert current > 0
        assert peak >= 0
        if rss_supported():
            assert peak >= current // 2  # same order of magnitude

    def test_scheduler_metrics_surface_peak_rss(self):
        from repro.service.scheduler import SchedulerMetrics

        metrics = SchedulerMetrics()
        # A scrape-time gauge: it reads the process, nothing has to sample it.
        assert metrics.registry.gauge("repro_process_peak_rss_bytes").value() > 0
        assert metrics.snapshot()["peak_rss_bytes"] > 0


# --------------------------------------------------------------------- #
# Spill arena scratch files
# --------------------------------------------------------------------- #
class TestSpillArena:
    def test_writer_append_finish_and_cleanup(self, tmp_path):
        with SpillArena(str(tmp_path / "arena")) as arena:
            writer = arena.writer(np.int64)
            writer.append(np.arange(10, dtype=np.int64))
            writer.append(np.arange(10, 25, dtype=np.int64))
            out = writer.finish()
            np.testing.assert_array_equal(out, np.arange(25))
            matrix = arena.empty_matrix(float, 6, 3)
            matrix[:] = 2.5
            assert matrix.shape == (6, 3)
        # Owned directories vanish with the context.
        with SpillArena() as owned:
            root = owned.directory
            owned.writer(float).append(np.ones(4))
        assert not os.path.exists(root)
