"""A cold served query joins its bases in their memoized sort order.

At d = 1 the inline base join reads both bases through the sorted index of
the join attribute that :class:`~repro.service.prepared.PreparedQuery` keeps
for its delta probes, so the kernel finds both sides sorted and sorts
neither; at d > 1 it reads them in row order.  Either way the answer must be
the kernel's answer on the whole matrices, and at d = 1 the index must be
the one every later delta probe reads.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.engine import ParallelJoinEngine
from repro.local_join import IntervalJoin, kernels
from repro.local_join.base import canonical_pair_order
from repro.obs.workload import pair_fingerprint
from repro.service import PATH_COLD, PATH_DELTA, PreparedQuery, RelationCatalog
from repro.service import prepared as prepared_module


def _attributes(d: int) -> list[str]:
    return [f"A{k + 1}" for k in range(d)]


def _columns(matrix: np.ndarray) -> dict:
    return {a: matrix[:, k] for k, a in enumerate(_attributes(matrix.shape[1]))}


def _dyadic(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Multiples of 1/8 (many duplicates, exact band edges)."""
    return rng.integers(0, 25, size=(n, d)) / 8.0


def _inline_query(catalog, d: int, epsilons) -> PreparedQuery:
    """A prepared query on a pool of 4 (p > 1): its cold path still joins
    inline, so every base join is the presorted one."""
    engine = ParallelJoinEngine(backend="threads", max_parallelism=4)
    return PreparedQuery(
        catalog, engine, "S", "T", _attributes(d), default_epsilons=epsilons, workers=4
    )


def _check_cold(prepared: PreparedQuery) -> None:
    """The cold answer equals the kernel's answer on the whole matrices."""
    result = prepared.execute()
    assert (result.path, result.base_job.n_workers) == (PATH_COLD, 1)
    s_snap, t_snap = prepared.snapshots()
    attributes = list(prepared.attributes)
    expected = canonical_pair_order(
        IntervalJoin().join(
            s_snap.full.join_matrix(attributes),
            t_snap.full.join_matrix(attributes),
            prepared.condition(),
        )
    )
    np.testing.assert_array_equal(canonical_pair_order(result.pairs), expected)
    assert result.fingerprint() == pair_fingerprint(expected)


class TestPresortedColdAnswer:
    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "eps, s_rows",
        [(0.25, 300), ((0.125, 0.5), 300), (0.0, 300), (0.25, 0)],
        ids=["symmetric", "asymmetric", "zero", "empty-side"],
    )
    def test_equals_the_kernel_on_whole_matrices(self, tmp_path, storage, d, eps, s_rows):
        rng = np.random.default_rng(10 * d + s_rows)
        catalog = RelationCatalog(
            staleness_threshold=100.0, storage=storage,
            spill_dir=str(tmp_path), spill_threshold_bytes=1,
        )
        catalog.register("S", _columns(_dyadic(rng, s_rows, d)))
        catalog.register("T", _columns(_dyadic(rng, 280, d)))
        prepared = _inline_query(catalog, d, [eps] * d)
        _check_cold(prepared)

        # A new registration starts a new lineage and a new index.
        catalog.register("S", _columns(_dyadic(rng, s_rows + 40, d)), replace=True)
        _check_cold(prepared)

        # A compaction merges the appended rows into the base and its index;
        # with the cached answers dropped the next query is cold again.
        catalog.append("T", _columns(_dyadic(rng, 30, d)))
        catalog.append("S", _columns(_dyadic(rng, 20, d)))
        assert prepared.execute().path == PATH_DELTA
        catalog.compact("T")
        catalog.compact("S")
        prepared.invalidate()
        _check_cold(prepared)


def test_each_base_column_is_sorted_once():
    """One cold query and the delta queries after it sort each base column
    once, for the index: the kernel finds both bases already sorted."""
    rng = np.random.default_rng(6)
    catalog = RelationCatalog(staleness_threshold=100.0)
    catalog.register("S", _columns(_dyadic(rng, 300, 1)))
    catalog.register("T", _columns(_dyadic(rng, 280, 1)))
    prepared = _inline_query(catalog, 1, 0.25)
    sorted_lengths = []
    original = kernels.stable_argsort

    def spy(values):
        if np.any(np.diff(values) < 0):  # a sort that has work to do
            sorted_lengths.append(len(values))
        return original(values)

    with mock.patch.object(kernels, "stable_argsort", spy), mock.patch.object(
        prepared_module, "stable_argsort", spy
    ):
        assert prepared.execute().path == PATH_COLD
        for side, rows in (("T", 7), ("S", 5), ("T", 3)):
            catalog.append(side, _columns(_dyadic(rng, rows, 1)))
            assert prepared.execute().path == PATH_DELTA
    bases = [length for length in sorted_lengths if length >= 280]
    assert sorted(bases) == [280, 300]
