"""Tests for the local band-join algorithms.

The nested-loop join is used as the reference; every other algorithm must
produce exactly the same pair set on every input, including the asymmetric
and equi-join special cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import pareto_relation, uniform_relation
from repro.geometry.band import BandCondition
from repro.local_join import (
    LOCAL_ALGORITHMS,
    default_local_join,
    get_local_algorithm,
)
from repro.local_join import kernels
from repro.local_join.auto import AutoJoin
from repro.local_join.base import canonical_pair_order, join_pair_count
from repro.local_join.interval import IntervalJoin, most_selective_dimension
from repro.local_join.nested_loop import NestedLoopJoin

#: Every registry name but the reference itself.
KERNEL_NAMES = [name for name in LOCAL_ALGORITHMS if name != "nested-loop"]

ALGORITHMS = [NestedLoopJoin(block_size=64)] + [
    get_local_algorithm(name) for name in KERNEL_NAMES
]


def _pairs(algorithm, s, t, condition):
    return canonical_pair_order(algorithm.join(s, t, condition))


def _random_inputs(rng, n_s, n_t, d, spread=10.0):
    return rng.uniform(0, spread, size=(n_s, d)), rng.uniform(0, spread, size=(n_t, d))


def _case_inputs(shape: str, d: int, rng):
    """Return the ``(s, t)`` matrices of one equivalence case."""
    if shape == "duplicates":  # quantized values: duplicates and boundary ties
        return (
            rng.integers(0, 8, size=(90, d)).astype(float),
            rng.integers(0, 8, size=(110, d)).astype(float),
        )
    if shape == "empty-side":
        return rng.uniform(0, 5, size=(40, d)), np.empty((0, d))
    return _random_inputs(rng, 120, 140, d, spread=5.0)


class TestKernelEquivalence:
    """Every registry name returns exactly the reference pair set and count.

    One matrix over the registry names (the three ``IntervalJoin`` aliases
    and ``auto``), the dimensionality, symmetric and asymmetric widths, and
    the inputs that have broken kernels before: duplicate values sitting on
    the band edge, an empty side, and a budget of two candidates per chunk —
    once as the kernel plans them and once with the bucketed plan forced.
    """

    @pytest.mark.parametrize("shape", ["duplicates", "empty-side", "tiny-budget"])
    @pytest.mark.parametrize("eps", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("plan", ["size-gated", "bucketed"])
    def test_same_pairs_and_count_as_nested_loop(self, plan, name, d, eps, shape, monkeypatch):
        if plan == "bucketed":  # these inputs are all far below the size gate
            monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
        rng = np.random.default_rng([d, eps == "symmetric", len(shape)])
        s, t = _case_inputs(shape, d, rng)
        widths = {
            f"A{i+1}": 1.0 if eps == "symmetric" else (0.25 * i, 1.0 + 0.5 * i)
            for i in range(d)
        }
        condition = BandCondition(widths)
        algorithm = get_local_algorithm(name)
        if shape == "tiny-budget":
            algorithm = algorithm.with_memory_budget(64)
            assert algorithm.memory_budget == 64
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        if shape != "empty-side":
            assert reference.shape[0] > 0
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)
        assert algorithm.count(s, t, condition) == reference.shape[0]
        # The pair set is orientation-independent: swapping the roles of the
        # sides (and the widths with them) gives the transposed pairs.
        swapped = BandCondition(
            {a: (p.eps_right, p.eps_left) for a, p in zip(widths, condition.predicates)}
        )
        np.testing.assert_array_equal(
            canonical_pair_order(algorithm.join(t, s, swapped)[:, ::-1]), reference
        )


@pytest.fixture
def cell_plans(monkeypatch):
    """Force the bucketed plan at any input size; collects what it returns."""
    plans = []
    cell_windows = kernels._cell_windows

    def recording(*args):
        plans.append(cell_windows(*args))
        return plans[-1]

    monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
    monkeypatch.setattr(kernels, "_cell_windows", recording)
    return plans


def _assert_matches_reference(s, t, condition, memory_budget=kernels.DEFAULT_MEMORY_BUDGET):
    """Every ``(dim, probe)`` gives the reference pairs, and count() their number."""
    reference = _pairs(NestedLoopJoin(), np.asarray(s), np.asarray(t), condition)
    for dim in range(condition.dimensionality):
        for probe in ("s", "t"):
            algorithm = IntervalJoin(dim, probe, memory_budget=memory_budget)
            np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)
            assert algorithm.count(s, t, condition) == reference.shape[0]
    return reference


class TestBucketedPlan:
    """The cell plan of ``kernels._cell_windows``, forced on small inputs.

    Values are multiples of 1/4 and widths multiples of 1/8 wherever a case
    puts pairs exactly on a band or cell edge, so ``t - s`` is exact and the
    reference is unambiguous.
    """

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_inputs_every_dimension_and_probe_side(self, d, rng, cell_plans):
        s, t = _random_inputs(rng, 150, 170, d, spread=6.0)
        condition = BandCondition.symmetric([f"A{i}" for i in range(d)], 0.4)
        assert _assert_matches_reference(s, t, condition).shape[0] > 0
        # One window per reachable cell: two per bucketed dimension, at most two of them.
        assert {plan[3] for plan in cell_plans} == {2 if d == 2 else 4}

    def test_values_on_cell_edges_and_exactly_eps_apart(self, rng, cell_plans):
        s = rng.integers(0, 40, size=(120, 2)) * 0.25
        t = rng.integers(0, 40, size=(130, 2)) * 0.25
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        reference = _assert_matches_reference(s, t, condition)
        on_edge = np.abs(t[reference[:, 1]] - s[reference[:, 0]]).max(axis=1) == 0.5
        assert on_edge.any() and all(plan is not None for plan in cell_plans)

    def test_negative_and_mixed_sign_columns(self, rng, cell_plans):
        s = np.column_stack([rng.uniform(-9, -1, 140), rng.uniform(-4, 4, 140)])
        t = np.column_stack([rng.uniform(-9, -1, 150), rng.uniform(-4, 4, 150)])
        condition = BandCondition.symmetric(["A1", "A2"], 0.3)
        assert _assert_matches_reference(s, t, condition).shape[0] > 0
        assert all(plan is not None for plan in cell_plans)

    def test_asymmetric_widths(self, rng, cell_plans):
        s = rng.integers(-20, 20, size=(120, 3)) * 0.25
        t = rng.integers(-20, 20, size=(130, 3)) * 0.25
        condition = BandCondition({"A1": (0.125, 0.75), "A2": (0.5, 0.0), "A3": (0.0, 1.0)})
        assert _assert_matches_reference(s, t, condition).shape[0] > 0
        assert all(plan is not None for plan in cell_plans)

    def test_zero_width_residual_dimension_buckets_by_value(self, rng, cell_plans):
        s = np.column_stack([rng.uniform(0, 5, 150), rng.integers(0, 9, 150)])
        t = np.column_stack([rng.uniform(0, 5, 160), rng.integers(0, 12, 160)])
        condition = BandCondition({"A1": 0.5, "A2": 0.0})
        assert _assert_matches_reference(s, t, condition).shape[0] > 0
        # Sweeping A1 leaves A2 to the cells: one window per probe, its own value.
        assert cell_plans[0][3] == 1

    def test_all_duplicate_columns(self, rng, cell_plans):
        s = np.column_stack([rng.uniform(0, 5, 90), np.full(90, 2.5)])
        t = np.column_stack([rng.uniform(0, 5, 80), np.full(80, 2.5)])
        for width in (0.25, 0.0):
            condition = BandCondition({"A1": 0.25, "A2": width})
            assert _assert_matches_reference(s, t, condition).shape[0] > 0
        ones = np.ones((25, 3))
        assert _assert_matches_reference(ones, ones, BandCondition.symmetric("ABC", 0.0)).shape[0] == 625

    def test_spread_too_large_for_integer_cells_uses_dense_ranks(self, rng, cell_plans):
        s = rng.integers(-(2**52), 2**52, size=(300, 2)) * 1024.0
        t = s[rng.integers(0, 300, 320)] + rng.integers(-3, 4, size=(320, 2)) * 1024.0
        condition = BandCondition.symmetric(["A1", "A2"], 2048.0)
        # cell id * (n + 1) would leave int64
        assert min(np.ptp(s, axis=0).min(), np.ptp(t, axis=0).min()) / 4096.0 * 300 > 2**58
        assert _assert_matches_reference(s, t, condition).shape[0] > 0
        assert all(plan is not None for plan in cell_plans)

    def test_one_candidate_memory_budget(self, rng, cell_plans):
        s, t = _random_inputs(rng, 60, 70, 2, spread=3.0)
        condition = BandCondition.symmetric(["A1", "A2"], 0.3)
        assert kernels.max_candidates(1) == 1
        assert _assert_matches_reference(s, t, condition, memory_budget=1).shape[0] > 0

    def test_memory_mapped_side_under_kernel_scratch(self, rng, cell_plans, tmp_path):
        from repro.data.storage import SpillArena

        s, t = _random_inputs(rng, 200, 220, 3, spread=5.0)
        s_mmap = np.lib.format.open_memmap(tmp_path / "s.npy", "w+", s.dtype, s.shape)
        s_mmap[:] = s
        condition = BandCondition.symmetric(["A1", "A2", "A3"], 0.4)
        with SpillArena(str(tmp_path / "scratch")) as arena:
            with kernels.kernel_scratch(arena, 0):  # every sorted copy spills
                assert _assert_matches_reference(s_mmap, t, condition).shape[0] > 0
        assert all(plan is not None for plan in cell_plans)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(2, 4),
        n_s=st.integers(1, 40),
        n_t=st.integers(1, 40),
        budget=st.sampled_from([1, 64, kernels.DEFAULT_MEMORY_BUDGET]),
    )
    def test_property_matches_nested_loop(self, data, d, n_s, n_t, budget):
        quarters = st.integers(-24, 24).map(lambda k: k * 0.25)
        eighths = st.integers(0, 12).map(lambda k: k * 0.125)
        s = np.array(data.draw(st.lists(st.lists(quarters, min_size=d, max_size=d), min_size=n_s, max_size=n_s)))
        t = np.array(data.draw(st.lists(st.lists(quarters, min_size=d, max_size=d), min_size=n_t, max_size=n_t)))
        widths = data.draw(st.lists(st.tuples(eighths, eighths), min_size=d, max_size=d))
        condition = BandCondition({f"A{i}": w for i, w in enumerate(widths)})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
            _assert_matches_reference(s, t, condition, memory_budget=budget)

    def test_candidates_stay_within_three_times_the_output(self):
        """The count the cell plan exists for (the plain windows expand ~15x)."""
        from repro import obs
        from repro.obs.explain.builder import kernel_counter_totals

        rng = np.random.default_rng(2020)
        s, t = (np.power(1.0 - rng.random((10_000, 2)), -1.0 / 1.5) for _ in range(2))
        condition = BandCondition.symmetric(["A1", "A2"], 0.01)
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            before = kernel_counter_totals()
            pairs = IntervalJoin.named("index-nested-loop").join(s, t, condition)
            after = kernel_counter_totals()
        finally:
            (obs.enable if was_enabled else obs.disable)()
        assert after["pairs"] - before["pairs"] == pairs.shape[0] > 0
        assert after["candidates"] - before["candidates"] <= 3 * pairs.shape[0]


class TestAgreementWithReference:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_count_matches_join(self, algorithm, rng):
        s, t = _random_inputs(rng, 120, 140, 2, spread=4.0)
        condition = BandCondition.symmetric(["A1", "A2"], 0.3)
        assert algorithm.count(s, t, condition) == algorithm.join(s, t, condition).shape[0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS[1:], ids=lambda a: a.name)
    def test_equi_join_case(self, algorithm, rng):
        values = rng.integers(0, 20, size=80).astype(float)
        s = values[:, None]
        t = rng.integers(0, 20, size=90).astype(float)[:, None]
        condition = BandCondition.symmetric(["A1"], 0.0)
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_empty_inputs(self, algorithm):
        condition = BandCondition.symmetric(["A1"], 1.0)
        empty = np.empty((0, 1))
        some = np.array([[1.0], [2.0]])
        assert algorithm.join(empty, some, condition).shape == (0, 2)
        assert algorithm.join(some, empty, condition).shape == (0, 2)
        assert algorithm.count(empty, empty, condition) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_skewed_pareto_input(self, algorithm):
        s_rel = pareto_relation("S", 300, dimensions=2, z=1.0, seed=0)
        t_rel = pareto_relation("T", 300, dimensions=2, z=1.0, seed=1)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        s = s_rel.join_matrix(condition.attributes)
        t = t_rel.join_matrix(condition.attributes)
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)

    def test_cartesian_product_limit(self, rng):
        """A band width larger than the data spread degenerates to the Cartesian product."""
        s, t = _random_inputs(rng, 40, 30, 2, spread=1.0)
        condition = BandCondition.symmetric(["A1", "A2"], 10.0)
        for algorithm in ALGORITHMS:
            assert algorithm.count(s, t, condition) == 40 * 30


class TestIntervalJoinSpecifics:
    def test_selects_most_selective_dimension(self, rng):
        # Dimension 1 has a huge spread relative to its band width, so it
        # should be chosen as the index dimension.
        s = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1000, 200)])
        t = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1000, 200)])
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        assert most_selective_dimension(s, t, condition) == 1

    @pytest.mark.parametrize("probe", ["s", "t"])
    def test_explicit_dimension(self, rng, probe):
        s, t = _random_inputs(rng, 50, 50, 2)
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        algorithm = IntervalJoin(dim=1, probe=probe)
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            NestedLoopJoin(block_size=0)
        with pytest.raises(ValueError):
            IntervalJoin(dim=-1)
        with pytest.raises(ValueError):
            IntervalJoin(probe="both")
        with pytest.raises(ValueError):
            IntervalJoin(memory_budget=0)

    def test_dimension_out_of_range(self, rng):
        s, t = _random_inputs(rng, 10, 10, 1)
        condition = BandCondition.symmetric(["A1"], 0.5)
        for probe in ("s", "t"):
            with pytest.raises(ValueError):
                IntervalJoin(dim=3, probe=probe).join(s, t, condition)
            with pytest.raises(ValueError):
                IntervalJoin(dim=3, probe=probe).count(s, t, condition)

    def test_aliases_bind_dimension_probe_and_budget(self):
        """The registry names are today's ``(dim, probe, default budget)``."""
        bound = {
            name: (a.dim, a.probe, a.memory_budget)
            for name in KERNEL_NAMES
            if isinstance(a := get_local_algorithm(name), IntervalJoin)
        }
        assert bound == {
            "index-nested-loop": (None, "s", 4_000_000 * kernels.CANDIDATE_BYTES),
            "sort-sweep": (0, "s", kernels.DEFAULT_MEMORY_BUDGET),
            "iejoin-local": (0, "t", kernels.DEFAULT_MEMORY_BUDGET),
        }


class TestHelpers:
    def test_default_local_join_is_index_nested_loop(self):
        assert default_local_join().name == "index-nested-loop"

    def test_join_pair_count_wrapper(self, rng):
        s, t = _random_inputs(rng, 60, 60, 1, spread=2.0)
        condition = BandCondition.symmetric(["A1"], 0.3)
        expected = NestedLoopJoin().count(s, t, condition)
        assert join_pair_count(s, t, condition) == expected
        assert (
            join_pair_count(s, t, condition, algorithm=get_local_algorithm("sort-sweep"))
            == expected
        )

    def test_canonical_pair_order_sorts(self):
        pairs = np.array([[2, 1], [0, 5], [2, 0]])
        ordered = canonical_pair_order(pairs)
        assert ordered.tolist() == [[0, 5], [2, 0], [2, 1]]

    def test_eps_arrays_are_cached_and_read_only(self):
        condition = BandCondition({"A1": (0.2, 0.7), "A2": 0.5})
        left, right = condition.eps_arrays()
        assert condition.eps_arrays() is condition.eps_arrays()
        np.testing.assert_array_equal(left, [0.2, 0.5])
        np.testing.assert_array_equal(right, [0.7, 0.5])
        with pytest.raises(ValueError):
            left[0] = 99.0

    def test_relation_sized_uniform_join_count_sanity(self):
        """Expected number of pairs for uniform data matches the analytic value."""
        s = uniform_relation("S", 2000, dimensions=1, seed=0)
        t = uniform_relation("T", 2000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.01)
        count = join_pair_count(
            s.join_matrix(["A1"]), t.join_matrix(["A1"]), condition
        )
        expected = 2000 * 2000 * 0.02  # P(|x-y| <= 0.01) ~ 2 * eps for uniform [0, 1)
        assert 0.7 * expected < count < 1.3 * expected


class TestDegenerateInputs:
    def test_single_row_relations(self):
        condition = BandCondition({"A1": (0.5, 0.25)})
        s = np.array([[1.0]])
        t_in = np.array([[1.2]])   # t - s = 0.2 <= 0.25: joins
        t_out = np.array([[1.3]])  # t - s = 0.3 > 0.25: does not
        for algorithm in ALGORITHMS:
            assert algorithm.count(s, t_in, condition) == 1, algorithm.name
            assert algorithm.count(s, t_out, condition) == 0, algorithm.name

    def test_all_duplicate_values(self):
        condition = BandCondition.symmetric(["A1", "A2"], 0.0)
        s = np.ones((25, 2))
        t = np.ones((30, 2))
        for algorithm in ALGORITHMS:
            assert algorithm.count(s, t, condition) == 25 * 30, algorithm.name


class TestZeroMaterializationCounts:
    """count() must never expand candidate pairs on the 1-D path."""

    @pytest.mark.parametrize(
        "algorithm",
        [a for a in ALGORITHMS if isinstance(a, IntervalJoin)],
        ids=lambda a: a.name,
    )
    def test_1d_count_never_expands_candidates(self, algorithm, rng, monkeypatch):
        s, t = rng.uniform(0, 4, size=(300, 1)), rng.uniform(0, 4, size=(300, 1))
        condition = BandCondition.symmetric(["A1"], 0.3)
        expected = NestedLoopJoin().count(s, t, condition)

        def _forbidden(*args, **kwargs):
            raise AssertionError("1-D count must not expand candidate pairs")

        monkeypatch.setattr(kernels, "iter_window_candidates", _forbidden)
        assert algorithm.count(s, t, condition) == expected

    def test_multi_d_count_is_chunk_bounded(self, rng):
        """Multi-dimensional counting also stays exact under a tiny budget."""
        s, t = rng.uniform(0, 3, size=(200, 2)), rng.uniform(0, 3, size=(200, 2))
        condition = BandCondition.symmetric(["A1", "A2"], 0.25)
        expected = NestedLoopJoin().count(s, t, condition)
        for probe in ("s", "t"):
            assert IntervalJoin(0, probe, memory_budget=64).count(s, t, condition) == expected


class TestKernelPrimitives:
    def test_chunk_spans_respect_budget(self):
        counts = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        spans = list(kernels.chunk_spans(counts, 7))
        assert spans[0][0] == 0 and spans[-1][1] == counts.shape[0]
        for (start, stop), (next_start, _) in zip(spans, spans[1:]):
            assert stop == next_start
        for start, stop in spans:
            if stop - start > 1:  # single oversized rows are allowed through
                assert int(counts[start:stop].sum()) <= 7

    def test_oversized_window_is_sliced(self):
        lows = np.array([0], dtype=np.int64)
        counts = np.array([10], dtype=np.int64)
        chunks = list(kernels.iter_window_candidates(lows, counts, 4))
        assert [c[1].size for c in chunks] == [4, 4, 2]
        flat = np.concatenate([c[1] for c in chunks])
        np.testing.assert_array_equal(flat, np.arange(10))

    def test_max_candidates_validation(self):
        with pytest.raises(ValueError):
            kernels.max_candidates(0)
        assert kernels.max_candidates(kernels.CANDIDATE_BYTES * 5) == 5


class TestAutoJoinSelection:
    def test_tiny_inputs_use_nested_loop(self, rng):
        s, t = rng.uniform(0, 1, size=(20, 2)), rng.uniform(0, 1, size=(20, 2))
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        auto = AutoJoin()
        assert auto.select(s, t, condition).name == "nested-loop"

    def test_dense_band_uses_nested_loop(self, rng):
        s, t = rng.uniform(0, 1, size=(400, 1)), rng.uniform(0, 1, size=(400, 1))
        wide = BandCondition.symmetric(["A1"], 10.0)  # everything joins
        assert AutoJoin().select(s, t, wide).name == "nested-loop"

    def test_selective_band_uses_interval_kernel_on_best_dimension(self, rng):
        # Dimension 2 has a far larger spread-to-width ratio.
        s = np.column_stack([rng.uniform(0, 1, 500), rng.uniform(0, 1000, 500)])
        t = np.column_stack([rng.uniform(0, 1, 500), rng.uniform(0, 1000, 500)])
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        chosen = AutoJoin().select(s, t, condition)
        assert chosen.name == "sort-sweep"
        assert chosen.dim == 1

    def test_last_choice_records_dispatch(self, rng):
        s, t = rng.uniform(0, 5, size=(300, 1)), rng.uniform(0, 5, size=(300, 1))
        condition = BandCondition.symmetric(["A1"], 0.05)
        auto = AutoJoin()
        auto.count(s, t, condition)
        assert auto.last_choice == "sort-sweep"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AutoJoin(memory_budget=0)
        with pytest.raises(ValueError):
            AutoJoin(dense_fraction=0.0)


class TestRegistryAndBudgets:
    def test_registry_resolves_every_name(self):
        for name in LOCAL_ALGORITHMS:
            assert get_local_algorithm(name).name == name

    def test_config_names_match_registry(self):
        """config.LOCAL_ALGORITHM_NAMES is a dependency-free copy of the
        registry keys; this pins the two in sync."""
        from repro.config import LOCAL_ALGORITHM_NAMES

        assert set(LOCAL_ALGORITHM_NAMES) == set(LOCAL_ALGORITHMS)

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            get_local_algorithm("quantum-join")

    def test_registry_default_and_passthrough(self):
        assert get_local_algorithm(None).name == "index-nested-loop"
        instance = IntervalJoin()
        assert get_local_algorithm(instance) is instance

    def test_with_memory_budget_copies_budgeted_kernels(self):
        original = get_local_algorithm("sort-sweep")
        bound = original.with_memory_budget(4096)
        assert bound is not original
        assert bound.memory_budget == 4096
        assert original.memory_budget == kernels.DEFAULT_MEMORY_BUDGET
        # Unchanged or absent budgets pass the instance through.
        assert bound.with_memory_budget(4096) is bound
        assert bound.with_memory_budget(None) is bound
        plain = NestedLoopJoin()
        assert plain.with_memory_budget(4096) is plain
