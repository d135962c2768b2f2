"""Tests for RecPart's termination trackers (repro.core.termination)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LoadWeights
from repro.core.assignment import lpt_assignment, worker_loads
from repro.core.partition import LeafStats, OptimizationContext
from repro.core.split import find_best_split
from repro.core.split_tree import SplitTree
from repro.core.termination import (
    CostModelTermination,
    PartitioningEstimate,
    TheoreticalTermination,
    estimate_partitioning,
)
from repro.cost.model import default_running_time_model
from repro.data.generators import correlated_pair
from repro.exceptions import OptimizationError
from repro.geometry.band import BandCondition
from repro.geometry.region import Region
from repro.sampling.input_sampler import InputSample, draw_input_sample
from repro.sampling.output_sampler import OutputSample, draw_output_sample


def reference_estimate_partitioning(leaves, ctx):
    """The per-leaf loop over LeafStats estimates that the array version replaced."""
    unit_loads, unit_inputs, unit_outputs = [], [], []
    total_input = 0.0
    for leaf in leaves:
        n_units = leaf.n_units()
        unit_loads.extend([leaf.unit_load(ctx)] * n_units)
        unit_inputs.extend([leaf.unit_input(ctx)] * n_units)
        unit_outputs.extend([leaf.unit_output(ctx)] * n_units)
        total_input += leaf.estimated_input(ctx)
    loads = np.asarray(unit_loads, dtype=float)
    assignment = lpt_assignment(loads, ctx.workers)
    per_worker_load = worker_loads(loads, assignment, ctx.workers)
    per_worker_input = worker_loads(np.asarray(unit_inputs), assignment, ctx.workers)
    per_worker_output = worker_loads(np.asarray(unit_outputs), assignment, ctx.workers)
    most_loaded = int(np.argmax(per_worker_load))
    baseline_input = float(ctx.input_sample.total_input)
    lower_bound_load = (
        ctx.weights.load(baseline_input, float(ctx.output_sample.estimated_output)) / ctx.workers
    )
    max_load = float(per_worker_load[most_loaded])
    return PartitioningEstimate(
        total_input=float(total_input),
        max_worker_load=max_load,
        max_worker_input=float(per_worker_input[most_loaded]),
        max_worker_output=float(per_worker_output[most_loaded]),
        n_units=int(loads.size),
        duplication_overhead=float((total_input - baseline_input) / baseline_input),
        load_overhead=float((max_load - lower_bound_load) / lower_bound_load),
    )


@pytest.fixture
def context(rng) -> OptimizationContext:
    s, t = correlated_pair(2000, 2000, dimensions=1, z=1.5, seed=21)
    condition = BandCondition.symmetric(["A1"], 0.05)
    return OptimizationContext(
        condition=condition,
        workers=4,
        weights=LoadWeights(),
        input_sample=draw_input_sample(s, t, condition, 1000, rng),
        output_sample=draw_output_sample(s, t, condition, 300, rng),
    )


def leaf_counts(leaves: list[LeafStats]) -> np.ndarray:
    """The ``SplitTree.leaf_counts`` columns of a list of leaves."""
    return np.array(
        [
            (leaf.s_rows.size, leaf.t_rows.size, leaf.out_rows.size, leaf.grid_rows, leaf.grid_cols)
            for leaf in leaves
        ],
        dtype=np.int64,
    ).reshape(-1, 5).T


def _grow(tree: SplitTree, steps: int) -> list[np.ndarray]:
    """Grow the tree greedily, returning the leaf counts after every step."""
    states = [tree.leaf_counts()]
    for _ in range(steps):
        best_leaf, best_decision = None, None
        for leaf in tree.leaves():
            decision = find_best_split(leaf, tree.ctx)
            if decision is None:
                continue
            if best_decision is None or decision.score > best_decision.score:
                best_leaf, best_decision = leaf, decision
        if best_decision is None:
            break
        tree.apply_split(best_leaf.node_id, best_decision)
        states.append(tree.leaf_counts())
    return states


class TestEstimatePartitioning:
    def test_root_estimate_matches_totals(self, context):
        tree = SplitTree(context)
        estimate = estimate_partitioning(tree.leaf_counts(), context)
        assert estimate.total_input == pytest.approx(context.input_sample.total_input)
        assert estimate.n_units == 1
        assert estimate.duplication_overhead == pytest.approx(0.0)
        # A single unit on one of w workers is w times the lower bound.
        assert estimate.load_overhead == pytest.approx(context.workers - 1, rel=0.05)

    def test_empty_partitioning_rejected(self, context):
        with pytest.raises(OptimizationError):
            estimate_partitioning(leaf_counts([]), context)

    def test_splitting_reduces_load_overhead(self, context):
        tree = SplitTree(context)
        before = estimate_partitioning(tree.leaf_counts(), context)
        _grow(tree, 8)
        after = estimate_partitioning(tree.leaf_counts(), context)
        assert after.load_overhead < before.load_overhead

    def test_duplication_monotonically_non_decreasing(self, context):
        """Paper Section 4.2: every iteration can only increase total input."""
        tree = SplitTree(context)
        states = _grow(tree, 10)
        inputs = [estimate_partitioning(state, context).total_input for state in states]
        assert all(b >= a - 1e-9 for a, b in zip(inputs, inputs[1:]))


    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_leaves=st.integers(1, 60),
        workers=st.integers(1, 12),
        tied=st.booleans(),
    )
    def test_matches_per_leaf_reference(self, seed, n_leaves, workers, tied):
        """Random leaves (tied loads when ``tied``): the array estimate is
        bit-identical to summing LeafStats estimates leaf by leaf."""
        rng = np.random.default_rng(seed)
        scales = [1.0, 3.0, 3.0] if tied else list(rng.uniform(0.1, 9.0, size=3))
        one = np.zeros((1, 1))
        ctx = OptimizationContext(
            condition=BandCondition.symmetric(["A1"], 0.1),
            workers=workers,
            weights=LoadWeights(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.1, 2.0))),
            input_sample=InputSample(one, one, scales[0], scales[1], 5000, 7000),
            output_sample=OutputSample(one, one, float(rng.uniform(1.0, 1e5)), scales[2]),
        )
        high = 3 if tied else 400
        leaves = [
            LeafStats(
                node_id=i,
                region=Region.from_bounds([0.0], [1.0]),
                s_rows=np.zeros(rng.integers(0, high), dtype=int),
                t_rows=np.zeros(rng.integers(0, high), dtype=int),
                out_rows=np.zeros(rng.integers(0, high), dtype=int),
                grid_rows=int(rng.integers(1, 4)),
                grid_cols=int(rng.integers(1, 4)),
            )
            for i in range(n_leaves)
        ]
        estimate = estimate_partitioning(leaf_counts(leaves), ctx)
        assert estimate == reference_estimate_partitioning(leaves, ctx)


class TestTheoreticalTermination:
    def test_tracks_best_snapshot(self, context):
        tree = SplitTree(context)
        tracker = TheoreticalTermination(context)
        tracker.record(tree)
        _grow(tree, 6)
        tracker.record(tree)
        assert tracker.best_snapshot is not None
        assert tracker.best_estimate is not None
        assert tracker.iterations == 2

    def test_stops_when_duplication_exceeds_best_load_overhead(self, context):
        tracker = TheoreticalTermination(context)
        tree = SplitTree(context)
        tracker.record(tree)
        assert not tracker.should_stop()
        # Simulate a later state whose duplication overhead exceeds the best
        # load overhead recorded so far by monkey-patching the estimate inputs:
        # grow until that happens or the tree is exhausted.
        for _ in range(60):
            _grow(tree, 1)
            tracker.record(tree)
            if tracker.should_stop():
                break
        # The tracker must never report a best objective worse than the first one.
        assert tracker.best_objective <= max(
            tracker.best_estimate.duplication_overhead, tracker.best_estimate.load_overhead
        ) + 1e-9


class TestCostModelTermination:
    def test_requires_cost_model(self, context):
        with pytest.raises(OptimizationError):
            CostModelTermination(context, cost_model=None)

    def test_invalid_window(self, context):
        with pytest.raises(OptimizationError):
            CostModelTermination(context, cost_model=default_running_time_model(), window=0)

    def test_stops_after_plateau(self, context):
        tracker = CostModelTermination(
            context, cost_model=default_running_time_model(), window=3, improvement_threshold=0.01
        )
        tree = SplitTree(context)
        # Record the same (unchanged) partitioning repeatedly: zero improvement.
        for _ in range(6):
            tracker.record(tree)
        assert tracker.should_stop()

    def test_does_not_stop_while_improving(self, context):
        tracker = CostModelTermination(
            context, cost_model=default_running_time_model(), window=3, improvement_threshold=0.01
        )
        tree = SplitTree(context)
        tracker.record(tree)
        stopped_early = False
        for _ in range(4):
            _grow(tree, 1)
            tracker.record(tree)
            if tracker.should_stop():
                stopped_early = True
        # While each iteration still improves the predicted time, no stop signal.
        assert not stopped_early or tracker.iterations > 3

    def test_best_snapshot_minimises_predicted_time(self, context):
        tracker = CostModelTermination(
            context, cost_model=default_running_time_model(), window=4
        )
        tree = SplitTree(context)
        tracker.record(tree)
        for _ in range(10):
            _grow(tree, 1)
            tracker.record(tree)
        assert tracker.best_objective == pytest.approx(min(tracker._history))
