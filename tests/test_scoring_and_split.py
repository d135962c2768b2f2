"""Tests for split scoring and split enumeration (repro.core.scoring / split)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LoadWeights
from repro.core.partition import LeafStats, OptimizationContext
from repro.core.scoring import (
    MIN_DUPLICATION_FLOOR,
    SplitScore,
    duplication_interval,
    grid_cell_load,
    grid_sum_squared,
    grid_total_input,
    sum_squared_loads,
    variance_of_leaves,
)
from repro.core.split import (
    KIND_GRID,
    KIND_REGULAR,
    SplitDecision,
    best_grid_split,
    best_regular_split,
    find_best_split,
)
from repro.data.generators import correlated_pair, uniform_relation
from repro.geometry.band import BandCondition, BandPredicate
from repro.geometry.region import Region
from repro.sampling.input_sampler import InputSample, draw_input_sample
from repro.sampling.output_sampler import OutputSample, draw_output_sample


# --------------------------------------------------------------------- #
# Reference scorer: one (dimension, split kind) combination at a time, the
# way split.py scored leaves before the one-pass rewrite.  The one-pass
# scorer must return exactly the same decision.
# --------------------------------------------------------------------- #
def candidate_boundaries(leaf, ctx, dim):
    values = np.concatenate(
        [leaf.sample_values(ctx, "S", dim), leaf.sample_values(ctx, "T", dim)]
    )
    if values.size < 2:
        return np.empty(0)
    distinct = np.unique(values)
    if distinct.size < 2:
        return np.empty(0)
    midpoints = 0.5 * (distinct[:-1] + distinct[1:])
    lower, upper = leaf.region.lower[dim], leaf.region.upper[dim]
    midpoints = midpoints[(midpoints > lower) & (midpoints < upper)]
    if midpoints.size > ctx.max_split_candidates:
        picks = np.linspace(0, midpoints.size - 1, ctx.max_split_candidates)
        midpoints = midpoints[np.round(picks).astype(int)]
        midpoints = np.unique(midpoints)
    return midpoints


def _reference_score(leaf, ctx, dim, duplicated_side, boundaries):
    partitioned_side = "S" if duplicated_side == "T" else "T"
    predicate = ctx.condition.predicates[dim]
    part_values = np.sort(leaf.sample_values(ctx, partitioned_side, dim))
    dup_values = np.sort(leaf.sample_values(ctx, duplicated_side, dim))
    out_values = np.sort(leaf.output_owner_values(ctx, partitioned_side, dim))
    part_scale = ctx.scale_for(partitioned_side)
    dup_scale = ctx.scale_for(duplicated_side)
    n_part, n_dup, n_out = part_values.size, dup_values.size, out_values.size
    part_left = np.searchsorted(part_values, boundaries, side="left")
    part_right = n_part - part_left
    low, high = duplication_interval(predicate, 0.0, duplicated_side)
    dup_left = np.searchsorted(dup_values, boundaries + high, side="left")
    dup_right = n_dup - np.searchsorted(dup_values, boundaries + low, side="left")
    dup_count = dup_left + dup_right - n_dup
    out_left = np.searchsorted(out_values, boundaries, side="left")
    out_right = n_out - out_left
    left_input = part_left * part_scale + dup_left * dup_scale
    right_input = part_right * part_scale + dup_right * dup_scale
    left_load = ctx.weights.load(left_input, out_left * ctx.output_scale)
    right_load = ctx.weights.load(right_input, out_right * ctx.output_scale)
    parent_sum_sq = leaf.sum_squared_unit_loads(ctx)
    children_sum_sq = left_load * left_load + right_load * right_load
    variance_reduction = ctx.variance_factor * (parent_sum_sq - children_sum_sq)
    duplication_increase = dup_count * dup_scale
    if ctx.scoring_mode == "variance":
        ratios = variance_reduction
    elif ctx.scoring_mode == "duplication":
        ratios = np.where(variance_reduction > 0, 1.0 / (1.0 + duplication_increase), 0.0)
    else:
        ratios = variance_reduction / np.maximum(duplication_increase, MIN_DUPLICATION_FLOOR)
    ranks = np.where(variance_reduction > 0, 1, 0)
    best_idx = np.lexsort((ratios, ranks))[-1]
    return SplitDecision(
        kind=KIND_REGULAR,
        score=SplitScore(int(ranks[best_idx]), float(ratios[best_idx])),
        variance_reduction=float(variance_reduction[best_idx]),
        duplication_increase=float(duplication_increase[best_idx]),
        dimension=dim,
        value=float(boundaries[best_idx]),
        duplicated_side=duplicated_side,
    )


def reference_best_regular_split(leaf, ctx):
    best = None
    for dim in leaf.splittable_dimensions(ctx):
        boundaries = candidate_boundaries(leaf, ctx, dim)
        if boundaries.size == 0:
            continue
        for duplicated_side in ("T", "S") if ctx.symmetric else ("T",):
            decision = _reference_score(leaf, ctx, dim, duplicated_side, boundaries)
            if best is None or decision.score > best.score:
                best = decision
    if best is not None and not best.score.is_useful:
        return None
    return best


def _make_context(s, t, condition, rng, workers=4, symmetric=True):
    return OptimizationContext(
        condition=condition,
        workers=workers,
        weights=LoadWeights(),
        input_sample=draw_input_sample(s, t, condition, 1200, rng),
        output_sample=draw_output_sample(s, t, condition, 400, rng),
        symmetric=symmetric,
    )


def _root_leaf(ctx):
    return LeafStats(
        node_id=0,
        region=ctx.root_region(),
        s_rows=np.arange(ctx.input_sample.s_values.shape[0]),
        t_rows=np.arange(ctx.input_sample.t_values.shape[0]),
        out_rows=np.arange(len(ctx.output_sample)),
    )


class TestSplitScore:
    def test_ordering_prefers_higher_ratio(self):
        low = SplitScore.from_deltas(10.0, 10.0)
        high = SplitScore.from_deltas(100.0, 10.0)
        assert high > low

    def test_duplication_free_split_uses_floor(self):
        score = SplitScore.from_deltas(50.0, 0.0)
        assert score.value == pytest.approx(50.0 / MIN_DUPLICATION_FLOOR)
        assert score.is_useful

    def test_duplication_free_beats_equal_variance_with_duplication(self):
        free = SplitScore.from_deltas(50.0, 0.0)
        costly = SplitScore.from_deltas(50.0, 25.0)
        assert free > costly

    def test_huge_dense_split_beats_tiny_free_split(self):
        """A split of a heavy dense region must be able to win over a negligible
        duplication-free split (this is what makes RecPart break up hot spots)."""
        dense = SplitScore.from_deltas(1e9, 1e3)
        sparse_free = SplitScore.from_deltas(10.0, 0.0)
        assert dense > sparse_free

    def test_useless_split_not_useful(self):
        assert not SplitScore.from_deltas(0.0, 0.0).is_useful
        assert not SplitScore.from_deltas(-5.0, 2.0).is_useful

    def test_worst_is_smallest(self):
        assert SplitScore.worst() < SplitScore.from_deltas(1e-9, 1e9)


class TestDuplicationInterval:
    def test_symmetric_interval(self):
        predicate = BandPredicate("a", 2.0, 2.0)
        low, high = duplication_interval(predicate, 10.0, "T")
        assert (low, high) == (8.0, 12.0)

    def test_asymmetric_interval_swaps_for_s_split(self):
        predicate = BandPredicate("a", 1.0, 3.0)
        t_low, t_high = duplication_interval(predicate, 10.0, "T")
        s_low, s_high = duplication_interval(predicate, 10.0, "S")
        assert (t_low, t_high) == (9.0, 13.0)
        assert (s_low, s_high) == (7.0, 11.0)


class TestVarianceHelpers:
    def test_grid_total_input(self):
        assert grid_total_input(100.0, 50.0, rows=2, cols=3) == 3 * 100 + 2 * 50

    def test_grid_sum_squared_decreases_with_finer_grid(self, rng):
        s, t = correlated_pair(1000, 1000, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        coarse = grid_sum_squared(1000, 1000, 500, 1, 1, ctx)
        fine = grid_sum_squared(1000, 1000, 500, 2, 2, ctx)
        assert fine < coarse

    def test_variance_of_leaves_matches_formula(self, rng):
        s, t = correlated_pair(1000, 1000, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        leaf = _root_leaf(ctx)
        expected = ctx.variance_factor * leaf.load(ctx) ** 2
        assert variance_of_leaves([leaf], ctx) == pytest.approx(expected)
        assert sum_squared_loads([leaf], ctx) == pytest.approx(leaf.load(ctx) ** 2)

    def test_grid_cell_load_formula(self, rng):
        s, t = correlated_pair(500, 500, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        load = grid_cell_load(100, 60, 24, rows=2, cols=3, ctx=ctx)
        expected = ctx.weights.load(100 / 2 + 60 / 3, 24 / 6)
        assert load == pytest.approx(expected)


class TestCandidateBoundaries:
    def test_candidates_inside_region(self, rng):
        s, t = correlated_pair(2000, 2000, dimensions=2, seed=3)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        leaf = _root_leaf(ctx)
        for dim in range(2):
            candidates = candidate_boundaries(leaf, ctx, dim)
            assert candidates.size > 0
            assert np.all(candidates > leaf.region.lower[dim])
            assert np.all(candidates < leaf.region.upper[dim])
        decision = best_regular_split(leaf, ctx)
        assert decision.value in candidate_boundaries(leaf, ctx, decision.dimension)

    def test_candidates_capped(self, rng):
        s, t = correlated_pair(3000, 3000, dimensions=1, seed=3)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = replace(_make_context(s, t, condition, rng), max_split_candidates=6)
        leaf = _root_leaf(ctx)
        candidates = candidate_boundaries(leaf, ctx, 0)
        assert candidates.size <= ctx.max_split_candidates
        assert best_regular_split(leaf, ctx).value in candidates

    def test_no_candidates_for_single_value(self, rng):
        s, t = correlated_pair(300, 300, dimensions=1, seed=3)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        leaf = LeafStats(
            node_id=5,
            region=ctx.root_region(),
            s_rows=np.array([0]),
            t_rows=np.array([], dtype=int),
            out_rows=np.array([], dtype=int),
        )
        assert candidate_boundaries(leaf, ctx, 0).size == 0
        assert best_regular_split(leaf, ctx) is None


@st.composite
def random_leaves(draw):
    """A random leaf over a hand-built context: d 1..4, asymmetric band widths,
    values on a coarse grid (ties, duplicates, values on boundaries), every
    scoring mode, symmetric on and off, thinned or full candidate lists."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0]))

    def values(n):
        return rng.integers(0, 24, size=(n, d)) * grid

    eps = rng.integers(0, 5, size=(d, 2)) * draw(st.sampled_from([0.25, 0.1, 0.3]))
    condition = BandCondition({f"A{k + 1}": (float(l), float(r)) for k, (l, r) in enumerate(eps)})
    n_s, n_t, n_out = (draw(st.integers(0, 90)) for _ in range(3))
    s_scale, t_scale = (float(rng.choice([1.0, 2.5, 7.0])) for _ in range(2))
    ctx = OptimizationContext(
        condition=condition,
        workers=draw(st.integers(1, 9)),
        weights=LoadWeights(float(rng.choice([1.0, 4.0])), float(rng.choice([0.5, 1.0]))),
        input_sample=InputSample(values(n_s), values(n_t), s_scale, t_scale, 100, 100),
        output_sample=OutputSample(
            values(n_out), values(n_out), 1.0, float(rng.choice([0.0, 1.0, 3.5]))
        ),
        symmetric=draw(st.booleans()),
        max_split_candidates=draw(st.sampled_from([1, 3, 8, 128])),
        scoring_mode=draw(st.sampled_from(["ratio", "variance", "duplication"])),
    )
    lower = rng.integers(-2, 8, size=d) * grid
    upper = lower + rng.integers(1, 30, size=d) * grid
    leaf = LeafStats(
        node_id=1,
        region=Region.from_bounds(lower, upper),
        s_rows=rng.choice(n_s, size=rng.integers(0, n_s + 1), replace=True) if n_s else np.array([], int),
        t_rows=rng.choice(n_t, size=rng.integers(0, n_t + 1), replace=True) if n_t else np.array([], int),
        out_rows=rng.permutation(n_out)[: rng.integers(0, n_out + 1)],
        grid_rows=draw(st.integers(1, 3)),
        grid_cols=draw(st.integers(1, 3)),
    )
    return leaf, ctx


class TestOnePassScorerEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(random_leaves())
    def test_matches_reference_scorer(self, case):
        leaf, ctx = case
        assert best_regular_split(leaf, ctx) == reference_best_regular_split(leaf, ctx)

    def test_matches_reference_on_sampled_tree(self, rng):
        """Every leaf of a grown d=3 tree scores exactly as the reference."""
        from repro.core.split_tree import SplitTree

        s, t = correlated_pair(3000, 3000, dimensions=3, z=1.5, seed=5)
        condition = BandCondition({"A1": (0.05, 0.02), "A2": 0.03, "A3": (0.0, 0.04)})
        ctx = _make_context(s, t, condition, rng)
        tree = SplitTree(ctx)
        for _ in range(40):
            leaf = max(tree.leaves(), key=lambda x: x.s_rows.size + x.t_rows.size)
            decision = find_best_split(leaf, ctx)
            if decision is None or decision.kind != KIND_REGULAR:
                break
            assert decision == reference_best_regular_split(leaf, ctx)
            tree.apply_split(leaf.node_id, decision)
        assert tree.n_leaves > 10


class TestBestSplit:
    def test_regular_split_found_for_skewed_data(self, rng):
        s, t = correlated_pair(2000, 2000, dimensions=2, z=1.5, seed=1)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        ctx = _make_context(s, t, condition, rng)
        leaf = _root_leaf(ctx)
        decision = best_regular_split(leaf, ctx)
        assert decision is not None
        assert decision.kind == KIND_REGULAR
        assert decision.score.is_useful
        assert decision.dimension in (0, 1)
        assert leaf.region.lower[decision.dimension] < decision.value < leaf.region.upper[decision.dimension]

    def test_asymmetric_mode_only_t_splits(self, rng):
        s, t = correlated_pair(1500, 1500, dimensions=1, z=1.5, seed=2)
        condition = BandCondition.symmetric(["A1"], 0.05)
        ctx = _make_context(s, t, condition, rng, symmetric=False)
        decision = best_regular_split(_root_leaf(ctx), ctx)
        assert decision is not None
        assert decision.duplicated_side == "T"

    def test_symmetric_mode_can_choose_s_split(self, rng):
        """With S dense where T is sparse, duplicating S is much cheaper, so the
        symmetric optimizer should pick an S-split somewhere in the tree."""
        s = uniform_relation("S", 1500, dimensions=1, low=0.0, high=1.0, seed=0)
        t = uniform_relation("T", 1500, dimensions=1, low=0.0, high=1000.0, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.5)
        ctx = _make_context(s, t, condition, rng, symmetric=True)
        decision = best_regular_split(_root_leaf(ctx), ctx)
        assert decision is not None
        # T is spread over [0, 1000] while S is packed into [0, 1]: partitioning
        # T (duplicating S) avoids duplicating the dense side.
        assert decision.duplicated_side in ("S", "T")

    def test_grid_split_for_small_leaf(self, rng):
        s, t = correlated_pair(1500, 1500, dimensions=1, z=1.5, seed=4)
        condition = BandCondition.symmetric(["A1"], 100.0)  # everything is "small"
        ctx = _make_context(s, t, condition, rng)
        leaf = LeafStats(
            node_id=0,
            region=Region.from_bounds([0.0], [150.0]),
            s_rows=np.arange(ctx.input_sample.s_values.shape[0]),
            t_rows=np.arange(ctx.input_sample.t_values.shape[0]),
            out_rows=np.arange(len(ctx.output_sample)),
        )
        assert leaf.is_small(ctx)
        decision = find_best_split(leaf, ctx)
        assert decision is not None
        assert decision.kind == KIND_GRID
        assert decision.grid_increment in ("row", "col")

    def test_grid_split_balances_rows_and_cols(self, rng):
        s, t = correlated_pair(1000, 1000, dimensions=1, seed=4)
        condition = BandCondition.symmetric(["A1"], 100.0)
        ctx = _make_context(s, t, condition, rng)
        leaf = LeafStats(
            node_id=0,
            region=Region.from_bounds([0.0], [150.0]),
            s_rows=np.arange(ctx.input_sample.s_values.shape[0]),
            t_rows=np.arange(ctx.input_sample.t_values.shape[0]),
            out_rows=np.arange(len(ctx.output_sample)),
            grid_rows=3,
            grid_cols=1,
        )
        decision = best_grid_split(leaf, ctx)
        # Rows already outnumber columns 3:1 with equal-sized inputs, so the
        # better refinement is adding a column.
        assert decision is not None
        assert decision.grid_increment == "col"

    def test_empty_leaf_has_no_split(self, rng):
        s, t = correlated_pair(500, 500, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        ctx = _make_context(s, t, condition, rng)
        leaf = LeafStats(
            node_id=9,
            region=ctx.root_region(),
            s_rows=np.array([], dtype=int),
            t_rows=np.array([], dtype=int),
            out_rows=np.array([], dtype=int),
        )
        assert find_best_split(leaf, ctx) == None  # noqa: E711 - explicit None check

    def test_split_decision_describe(self, rng):
        s, t = correlated_pair(800, 800, dimensions=1, z=1.5, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.05)
        ctx = _make_context(s, t, condition, rng)
        decision = find_best_split(_root_leaf(ctx), ctx)
        assert decision is not None
        text = decision.describe()
        assert "split" in text or "grid" in text
