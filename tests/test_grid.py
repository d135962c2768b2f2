"""Tests for Grid-eps and Grid* (repro.baselines.grid / grid_star)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.grid import (
    GridEpsilonPartitioner,
    GridPartitioning,
    grid_cell_sizes,
    replication_counts,
)
from repro.baselines.grid_star import GridStarPartitioner, estimate_grid_statistics
from repro.config import LoadWeights
from repro.cost.model import default_running_time_model
from repro.data.generators import correlated_pair, uniform_relation
from repro.engine import ParallelJoinEngine
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition
from repro.sampling.input_sampler import draw_input_sample
from repro.sampling.output_sampler import draw_output_sample


class TestGridGeometry:
    def test_cell_sizes_follow_band_width(self):
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        np.testing.assert_allclose(grid_cell_sizes(condition, 1.0), [0.5, 0.5])
        np.testing.assert_allclose(grid_cell_sizes(condition, 4.0), [2.0, 2.0])

    def test_zero_band_width_rejected(self):
        condition = BandCondition.symmetric(["A1"], 0.0)
        with pytest.raises(PartitioningError):
            grid_cell_sizes(condition, 1.0)

    def test_invalid_multiplier(self):
        condition = BandCondition.symmetric(["A1"], 1.0)
        with pytest.raises(PartitioningError):
            grid_cell_sizes(condition, 0.0)

    def test_replication_counts_bounded_by_3_per_dimension(self, rng):
        """With cell size equal to the band width, a tuple touches at most 3 cells
        per dimension (paper Section 5.1)."""
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        t_matrix = rng.uniform(0, 10, size=(500, 2))
        counts = replication_counts(t_matrix, condition, grid_cell_sizes(condition, 1.0))
        assert counts.max() <= 9
        assert counts.min() >= 1

    def test_coarser_grid_reduces_replication(self, rng):
        condition = BandCondition.symmetric(["A1", "A2"], 0.5)
        t_matrix = rng.uniform(0, 10, size=(500, 2))
        fine = replication_counts(t_matrix, condition, grid_cell_sizes(condition, 1.0)).sum()
        coarse = replication_counts(t_matrix, condition, grid_cell_sizes(condition, 8.0)).sum()
        assert coarse < fine


class TestGridPartitioner:
    def test_partition_and_execute_correctly(self):
        s, t = correlated_pair(2000, 2000, dimensions=2, z=1.5, seed=5)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="pairs")

    @pytest.mark.parametrize("empty", ["S", "T"])
    def test_one_empty_side_partitions_to_an_empty_join(self, empty):
        s, t = correlated_pair(200, 200, dimensions=2, z=1.5, seed=5)
        s, t = (s.head(0), t) if empty == "S" else (s, t.head(0))
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine(backend="serial").execute(
            s, t, condition, partitioning, verify="pairs"
        )
        assert result.total_output == 0

    def test_s_tuples_not_duplicated(self):
        s, t = correlated_pair(1000, 1000, dimensions=1, z=1.5, seed=6)
        condition = BandCondition.symmetric(["A1"], 0.1)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
        rows, _ = partitioning.route(s.join_matrix(["A1"]), "S")
        assert rows.size == len(s)

    def test_t_duplication_grows_with_dimensionality(self):
        """The paper's O(3^d) replication argument, observed empirically."""
        results = {}
        for d in (1, 2, 3):
            s, t = correlated_pair(1500, 1500, dimensions=d, z=1.5, seed=7)
            condition = BandCondition.symmetric([f"A{i+1}" for i in range(d)], 0.1)
            partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
            rows, _ = partitioning.route(t.join_matrix(condition.attributes), "T")
            results[d] = rows.size / len(t)
        assert results[1] < results[2] < results[3]

    def test_max_copies_guard(self):
        s, t = correlated_pair(3000, 3000, dimensions=3, z=1.5, seed=8)
        condition = BandCondition.symmetric(["A1", "A2", "A3"], 0.1)
        partitioner = GridEpsilonPartitioner(max_copies=100)
        with pytest.raises(PartitioningError):
            partitioner.partition(s, t, condition, workers=4)

    def test_hash_assignment_mode(self):
        s, t = correlated_pair(1000, 1000, dimensions=1, z=1.5, seed=9)
        condition = BandCondition.symmetric(["A1"], 0.1)
        partitioning = GridEpsilonPartitioner(assignment="hash").partition(
            s, t, condition, workers=4
        )
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="count")

    def test_invalid_assignment_mode(self):
        with pytest.raises(PartitioningError):
            GridEpsilonPartitioner(assignment="bogus")

    def test_zero_band_width_fails_cleanly(self):
        s, t = correlated_pair(500, 500, dimensions=1, z=1.5, seed=10)
        condition = BandCondition.symmetric(["A1"], 0.0)
        with pytest.raises(PartitioningError):
            GridEpsilonPartitioner().partition(s, t, condition, workers=4)

    def test_multiplier_changes_method_name(self):
        s, t = correlated_pair(500, 500, dimensions=1, z=1.5, seed=11)
        condition = BandCondition.symmetric(["A1"], 0.5)
        partitioning = GridEpsilonPartitioner(multiplier=4.0).partition(s, t, condition, 2)
        assert "x4" in partitioning.method

    def test_route_unknown_cells_fall_back_to_hashing(self):
        """Routing data outside the optimizer-observed domain must still assign
        every tuple to some unit (coverage requirement of Definition 1)."""
        s, t = correlated_pair(500, 500, dimensions=1, z=1.5, seed=12)
        condition = BandCondition.symmetric(["A1"], 0.5)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=2)
        far_away = np.array([[1e6], [2e6]])
        rows, units = partitioning.route(far_away, "S")
        assert rows.size == 2
        assert np.all((units >= 0) & (units < partitioning.n_units))


class TestGridStar:
    def test_estimate_grid_statistics_monotone_duplication(self, rng):
        s, t = correlated_pair(3000, 3000, dimensions=2, z=1.5, seed=13)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        input_sample = draw_input_sample(s, t, condition, 1000, rng)
        output_sample = draw_output_sample(s, t, condition, 200, rng)
        weights = LoadWeights()
        fine_total, _, _ = estimate_grid_statistics(
            input_sample, output_sample, condition, 1.0, 4, weights
        )
        coarse_total, _, _ = estimate_grid_statistics(
            input_sample, output_sample, condition, 8.0, 4, weights
        )
        assert coarse_total <= fine_total

    def test_grid_star_picks_coarser_grid_than_default(self):
        """On skewed Pareto data the default eps-sized grid over-duplicates, so the
        cost-model search should settle on a multiplier above 1 (paper Table 5)."""
        s, t = correlated_pair(4000, 4000, dimensions=2, z=1.5, seed=14)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        partitioner = GridStarPartitioner(cost_model=default_running_time_model())
        partitioning = partitioner.partition(s, t, condition, workers=4)
        assert partitioning.method == "Grid*"
        assert partitioning.stats.extra["chosen_multiplier"] >= 1.0
        assert partitioning.stats.iterations >= 2

    def test_grid_star_beats_default_grid_on_duplication(self):
        s, t = correlated_pair(4000, 4000, dimensions=2, z=1.5, seed=15)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        engine = ParallelJoinEngine(backend="serial")
        default_grid = engine.execute(
            s, t, condition, GridEpsilonPartitioner().partition(s, t, condition, 4)
        )
        tuned = engine.execute(
            s, t, condition, GridStarPartitioner().partition(s, t, condition, 4)
        )
        assert tuned.total_input <= default_grid.total_input

    def test_grid_star_correctness(self):
        s, t = correlated_pair(2000, 2000, dimensions=2, z=1.5, seed=16)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = GridStarPartitioner().partition(s, t, condition, workers=4)
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="count")

    def test_invalid_parameters(self):
        with pytest.raises(PartitioningError):
            GridStarPartitioner(max_multiplier=0)
        with pytest.raises(PartitioningError):
            GridStarPartitioner(patience=0)
