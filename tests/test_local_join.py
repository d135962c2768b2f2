"""Tests for the local band-join algorithms.

The nested-loop join is used as the reference; every other algorithm must
produce exactly the same pair set on every input, including the asymmetric
and equi-join special cases.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import pareto_relation, uniform_relation
from repro.geometry.band import BandCondition
from repro.local_join import kernels
from repro.local_join.base import canonical_pair_order, join_pair_count
from repro.local_join.interval import IntervalJoin, sweep_dimension
from repro.local_join.nested_loop import NestedLoopJoin

#: The sweep dimension of each interval-kernel variant: the one the sweep
#: rule picks, the first, and the last, so the equivalence matrix also covers
#: windows on a later dimension with the earlier ones left to the mask/cells.
SWEEPS = ["rule", "first", "last"]


def _equivalence_kernel(sweep: str, d: int) -> IntervalJoin:
    return IntervalJoin(dim={"rule": None, "first": 0, "last": d - 1}[sweep])


ALGORITHMS = [NestedLoopJoin(block_size=64), IntervalJoin(), IntervalJoin(dim=0)]


def _pairs(algorithm, s, t, condition):
    return canonical_pair_order(algorithm.join(s, t, condition))


def _random_inputs(rng, n_s, n_t, d, spread=10.0):
    return rng.uniform(0, spread, size=(n_s, d)), rng.uniform(0, spread, size=(n_t, d))


def _case_inputs(shape: str, d: int, rng, tmp_path):
    """Return the ``(s, t)`` matrices of one equivalence case."""
    if shape == "duplicates":  # quantized values: duplicates and boundary ties
        return (
            rng.integers(0, 8, size=(90, d)).astype(float),
            rng.integers(0, 8, size=(110, d)).astype(float),
        )
    if shape == "empty-side":
        return rng.uniform(0, 5, size=(40, d)), np.empty((0, d))
    if shape == "mixed-sign":  # negative and zero-straddling cells
        return rng.uniform(-4, 2, size=(120, d)), rng.uniform(-3, 3, size=(140, d))
    s, t = _random_inputs(rng, 120, 140, d, spread=5.0)
    if shape == "memory-mapped":  # a read-only mapped S, as the serving layer passes
        np.save(tmp_path / "s.npy", s)
        s = np.load(tmp_path / "s.npy", mmap_mode="r")
    return s, t


class TestKernelEquivalence:
    """The interval kernel returns exactly the reference pair set and count.

    One matrix over the sweep dimension (the sweep rule's, the first, the
    last), the dimensionality, symmetric and asymmetric widths, and
    the inputs that have broken kernels before: duplicate values sitting on
    the band edge, an empty side, a budget of two candidates per chunk,
    negative and mixed-sign values, and a read-only memory-mapped side —
    once as the kernel plans them and once with the bucketed plan forced.
    """

    @pytest.mark.parametrize(
        "shape", ["duplicates", "empty-side", "tiny-budget", "mixed-sign", "memory-mapped"]
    )
    @pytest.mark.parametrize("eps", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("plan", ["size-gated", "bucketed"])
    def test_same_pairs_and_count_as_nested_loop(
        self, plan, sweep, d, eps, shape, monkeypatch, tmp_path
    ):
        if plan == "bucketed":  # these inputs are all far below the size gate
            monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
        rng = np.random.default_rng([d, eps == "symmetric", len(shape)])
        s, t = _case_inputs(shape, d, rng, tmp_path)
        widths = {
            f"A{i+1}": 1.0 if eps == "symmetric" else (0.25 * i, 1.0 + 0.5 * i)
            for i in range(d)
        }
        condition = BandCondition(widths)
        algorithm = _equivalence_kernel(sweep, d)
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
    """Every sweep dimension gives the reference pairs, and count() their number."""
    reference = _pairs(NestedLoopJoin(), np.asarray(s), np.asarray(t), condition)
    for dim in range(condition.dimensionality):
        algorithm = IntervalJoin(dim, memory_budget=memory_budget)
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
    def test_random_inputs_every_dimension(self, d, rng, cell_plans):
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
            pairs = IntervalJoin().join(s, t, condition)
            after = kernel_counter_totals()
        finally:
            (obs.enable if was_enabled else obs.disable)()
        assert after["pairs"] - before["pairs"] == pairs.shape[0] > 0
        assert after["candidates"] - before["candidates"] <= 3 * pairs.shape[0]


class TestAgreementWithReference:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=repr)
    def test_count_matches_join(self, algorithm, rng):
        s, t = _random_inputs(rng, 120, 140, 2, spread=4.0)
        condition = BandCondition.symmetric(["A1", "A2"], 0.3)
        assert algorithm.count(s, t, condition) == algorithm.join(s, t, condition).shape[0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS[1:], ids=repr)
    def test_equi_join_case(self, algorithm, rng):
        values = rng.integers(0, 20, size=80).astype(float)
        s = values[:, None]
        t = rng.integers(0, 20, size=90).astype(float)[:, None]
        condition = BandCondition.symmetric(["A1"], 0.0)
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=repr)
    def test_empty_inputs(self, algorithm):
        condition = BandCondition.symmetric(["A1"], 1.0)
        empty = np.empty((0, 1))
        some = np.array([[1.0], [2.0]])
        assert algorithm.join(empty, some, condition).shape == (0, 2)
        assert algorithm.join(some, empty, condition).shape == (0, 2)
        assert algorithm.count(empty, empty, condition) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=repr)
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


def most_selective_dimension(
    s_arr: np.ndarray, t_arr: np.ndarray, condition: BandCondition
) -> int:
    """Return the dimension with the largest spread-to-band-width ratio.

    Selectivity of dimension ``i`` is approximated by the ratio of the
    combined value spread to the band width; zero-width (equality)
    dimensions are maximally selective.
    """
    best_dim = 0
    best_score = -np.inf
    for i, pred in enumerate(condition.predicates):
        combined = np.concatenate([s_arr[:, i], t_arr[:, i]])
        spread = float(combined.max() - combined.min()) if combined.size else 0.0
        score = np.inf if pred.width == 0 else spread / pred.width
        if score > best_score:
            best_score = score
            best_dim = i
    return best_dim


@st.composite
def _sweep_inputs(draw):
    """``(s, t, condition)`` over 1..4 dimensions: zero widths, tied
    spreads, an empty side, mixed signs and offsets up to 1e9."""
    d = draw(st.integers(1, 4))
    sizes = [draw(st.integers(0, 12)) for _ in range(2)]
    if draw(st.booleans()):
        sizes[draw(st.integers(0, 1))] = 0
    offset = draw(st.sampled_from([0.0, -1e9, 1e9]))
    # Small integer grids make equal spreads (and so ties) common.
    values = st.integers(-4, 4).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
    s, t = (
        np.array([[draw(values) + offset for _ in range(d)] for _ in range(n)]).reshape(n, d)
        for n in sizes
    )
    widths = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 100.0, allow_nan=False)
    condition = BandCondition(
        {f"A{i + 1}": (draw(widths), draw(widths)) for i in range(d)}
    )
    return s, t, condition


class TestIntervalJoinSpecifics:
    def test_selects_most_selective_dimension(self, rng):
        # Dimension 1 has a huge spread relative to its band width, so it
        # should be chosen as the index dimension.
        s = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1000, 200)])
        t = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1000, 200)])
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        assert sweep_dimension(s, t, condition) == 1

    @settings(max_examples=300, deadline=None)
    @given(_sweep_inputs())
    def test_sweep_dimension_matches_spread_ratio_reference(self, case):
        """``IntervalJoin(dim=None)`` sweeps the dimension the spread ÷ band
        width reference picks, ties and degenerate inputs included."""
        s, t, condition = case
        swept = []
        kernel = kernels.interval_count

        def recording(s_arr, t_arr, condition, dim, **kwargs):
            swept.append(dim)
            return kernel(s_arr, t_arr, condition, dim, **kwargs)

        with mock.patch.object(kernels, "interval_count", recording):
            IntervalJoin().count(s, t, condition)
        assert swept == [most_selective_dimension(s, t, condition)]

    def test_explicit_dimension(self, rng):
        s, t = _random_inputs(rng, 50, 50, 2)
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        algorithm = IntervalJoin(dim=1)
        reference = _pairs(NestedLoopJoin(), s, t, condition)
        np.testing.assert_array_equal(_pairs(algorithm, s, t, condition), reference)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            NestedLoopJoin(block_size=0)
        with pytest.raises(ValueError):
            IntervalJoin(dim=-1)
        with pytest.raises(ValueError):
            IntervalJoin(memory_budget=0)

    def test_dimension_out_of_range(self, rng):
        s, t = _random_inputs(rng, 10, 10, 1)
        condition = BandCondition.symmetric(["A1"], 0.5)
        with pytest.raises(ValueError):
            IntervalJoin(dim=3).join(s, t, condition)
        with pytest.raises(ValueError):
            IntervalJoin(dim=3).count(s, t, condition)

    def test_default_is_the_papers_index_nested_loop(self):
        """The sweep rule picks the dimension; chunks hold 4M candidates."""
        default = IntervalJoin()
        assert (default.name, default.dim) == ("index-nested-loop", None)
        assert default.memory_budget == kernels.DEFAULT_MEMORY_BUDGET
        assert kernels.max_candidates(default.memory_budget) == 4_000_000


class TestSweepRule:
    """``kernels.cells_per_dimension`` is the one rule behind the sweep
    dimension of ``IntervalJoin(dim=None)`` and the bucketed dimensions of
    the cell plan."""

    def test_cells_are_spread_over_band_width(self):
        cells = kernels.cells_per_dimension(
            np.array([0.0, -2.0, 5.0]), np.array([4.0, 2.0, 5.0]), np.array([0.5, 2.0, 1.0])
        )
        np.testing.assert_array_equal(cells, [8.0, 2.0, 0.0])

    def test_zero_width_spans_infinitely_many_cells_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = kernels.cells_per_dimension(
                np.array([0.0, 3.0]), np.array([1.0, 3.0]), np.zeros(2)
            )
        # 0 / 0 on the second dimension included.
        np.testing.assert_array_equal(cells, [np.inf, np.inf])

    def test_overflowing_spread_is_infinite_not_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = kernels.cells_per_dimension(
                np.array([-1e308]), np.array([1e308]), np.array([1e-10])
            )
        assert cells.tolist() == [np.inf]

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 40),
        d=st.integers(1, 4),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**16),
    )
    def test_column_range_equals_the_axis_reductions(self, rows, d, order, seed):
        values = np.random.default_rng(seed).integers(-50, 50, (rows, d)) / 8.0
        arr = np.asarray(values, order=order)
        lo, hi = kernels.column_range(arr)
        np.testing.assert_array_equal(lo, arr.min(axis=0))
        np.testing.assert_array_equal(hi, arr.max(axis=0))
        assert lo.dtype == hi.dtype == arr.dtype

    @pytest.mark.parametrize(
        ("d", "target"),
        [(d, i) for d in range(1, 5) for i in range(d)],
        ids=lambda v: str(v),
    )
    def test_sweeps_the_dimension_with_the_most_cells(self, d, target, rng):
        stretch = np.ones(d)
        stretch[target] = 50.0
        s = rng.uniform(0, 1, (80, d)) * stretch
        t = rng.uniform(0, 1, (90, d)) * stretch
        condition = BandCondition.symmetric([f"A{i + 1}" for i in range(d)], 0.2)
        assert sweep_dimension(s, t, condition) == target
        np.testing.assert_array_equal(
            _pairs(IntervalJoin(), s, t, condition), _pairs(NestedLoopJoin(), s, t, condition)
        )

    def test_equality_dimension_wins_over_any_spread(self, rng):
        s = np.column_stack([rng.uniform(0, 1e6, 50), rng.integers(0, 3, 50), rng.uniform(0, 1e6, 50)])
        t = np.column_stack([rng.uniform(0, 1e6, 60), rng.integers(0, 3, 60), rng.uniform(0, 1e6, 60)])
        condition = BandCondition({"A1": 0.01, "A2": 0.0, "A3": 0.01})
        assert sweep_dimension(s, t, condition) == 1

    def test_ties_go_to_the_lowest_dimension(self, rng):
        column = rng.uniform(0, 4, 40)
        s = np.column_stack([column, column, column])
        assert sweep_dimension(s, s, BandCondition.symmetric("ABC", 0.5)) == 0
        # Two equality dimensions tie at infinity.
        assert sweep_dimension(s, s, BandCondition({"A": 0.5, "B": 0.0, "C": 0.0})) == 1

    def test_range_spans_both_sides(self):
        # Each side alone spans 1 cell on A1 and 10 on A2; together A1 spans 101.
        s = np.array([[0.0, 0.0], [1.0, 10.0]])
        t = np.array([[100.0, 0.0], [101.0, 10.0]])
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        assert sweep_dimension(s, t, condition) == 0
        assert sweep_dimension(s, s, condition) == 1

    def test_one_empty_side_ranks_by_the_other(self):
        empty = np.empty((0, 2))
        some = np.array([[0.0, 0.0], [1.0, 10.0]])
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        assert sweep_dimension(empty, some, condition) == 1
        assert sweep_dimension(some, empty, condition) == 1

    def test_both_sides_empty(self):
        empty = np.empty((0, 3))
        assert sweep_dimension(empty, empty, BandCondition.symmetric("ABC", 1.0)) == 0
        assert sweep_dimension(empty, empty, BandCondition({"A": 1.0, "B": 1.0, "C": 0.0})) == 2

    def test_cell_plan_ranks_with_the_same_rule(self, rng, monkeypatch):
        """The sweep choice ranks both sides' range; the cell plan then ranks
        the sorted side's range (T) with the same function."""
        calls = []
        cells_per_dimension = kernels.cells_per_dimension

        def recording(lo, hi, width):
            calls.append((lo.copy(), hi.copy(), np.array(width)))
            return cells_per_dimension(lo, hi, width)

        monkeypatch.setattr(kernels, "cells_per_dimension", recording)
        monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
        s, t = _random_inputs(rng, 120, 130, 3, spread=6.0)
        condition = BandCondition({"A1": 0.1, "A2": (0.2, 0.3), "A3": 0.4})
        np.testing.assert_array_equal(
            _pairs(IntervalJoin(), s, t, condition), _pairs(NestedLoopJoin(), s, t, condition)
        )
        widths = np.array([0.2, 0.5, 0.8])
        (sweep_lo, sweep_hi, sweep_w), (cell_lo, cell_hi, cell_w) = calls
        np.testing.assert_array_equal(sweep_lo, np.minimum(s.min(axis=0), t.min(axis=0)))
        np.testing.assert_array_equal(sweep_hi, np.maximum(s.max(axis=0), t.max(axis=0)))
        np.testing.assert_array_equal(cell_lo, t.min(axis=0))
        np.testing.assert_array_equal(cell_hi, t.max(axis=0))
        np.testing.assert_allclose(sweep_w, widths)
        np.testing.assert_allclose(cell_w, widths)


class TestHelpers:
    def test_join_pair_count_wrapper(self, rng):
        s, t = _random_inputs(rng, 60, 60, 1, spread=2.0)
        condition = BandCondition.symmetric(["A1"], 0.3)
        expected = NestedLoopJoin().count(s, t, condition)
        assert join_pair_count(s, t, condition) == expected
        assert (
            join_pair_count(s, t, condition, algorithm=IntervalJoin(dim=0))
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
        ids=repr,
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
        for dim in (0, 1):
            assert IntervalJoin(dim, memory_budget=64).count(s, t, condition) == expected


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


class TestBudgets:
    def test_with_memory_budget_copies_budgeted_kernels(self):
        original = IntervalJoin()
        bound = original.with_memory_budget(4096)
        assert bound is not original
        assert bound.memory_budget == 4096
        assert original.memory_budget == kernels.DEFAULT_MEMORY_BUDGET
        # Unchanged or absent budgets pass the instance through.
        assert bound.with_memory_budget(4096) is bound
        assert bound.with_memory_budget(None) is bound
        plain = NestedLoopJoin()
        assert plain.with_memory_budget(4096) is plain
