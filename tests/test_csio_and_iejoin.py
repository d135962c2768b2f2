"""Tests for the CSIO and distributed IEJoin baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.csio import CSIOPartitioner, build_coarsened_matrix
from repro.baselines.iejoin import (
    IEJoinPartitioner,
    block_boundaries,
    joinable_block_pairs,
)
from repro.baselines.quantiles import approximate_quantiles, ordering_key
from repro.data.generators import correlated_pair, uniform_relation
from repro.engine import ParallelJoinEngine
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition
from repro.sampling.input_sampler import draw_input_sample
from repro.sampling.output_sampler import draw_output_sample


class TestCSIOMatrix:
    def test_candidate_band_width_follows_epsilon(self, rng):
        """With row-major ordering, the candidate region is a diagonal band whose
        width grows with the band width (paper Figure 6 / Section 5.2)."""
        s, t = correlated_pair(4000, 4000, dimensions=1, z=1.5, seed=20)
        narrow_condition = BandCondition.symmetric(["A1"], 0.001)
        wide_condition = BandCondition.symmetric(["A1"], 5.0)
        counts = {}
        for label, condition in (("narrow", narrow_condition), ("wide", wide_condition)):
            input_sample = draw_input_sample(s, t, condition, 1000, rng)
            output_sample = draw_output_sample(s, t, condition, 200, rng)
            keys_s = ordering_key(input_sample.s_values, "row-major")
            keys_t = ordering_key(input_sample.t_values, "row-major")
            s_bounds = approximate_quantiles(keys_s, 16)
            t_bounds = approximate_quantiles(keys_t, 16)
            matrix = build_coarsened_matrix(
                input_sample, output_sample, condition, s_bounds, t_bounds, "row-major"
            )
            counts[label] = matrix.n_candidate_cells
        assert counts["narrow"] < counts["wide"]

    def test_block_ordering_creates_denser_matrix(self, rng):
        """Paper Figure 8: block-style ordering widens the candidate region for
        multidimensional joins."""
        s, t = correlated_pair(4000, 4000, dimensions=2, z=1.0, seed=21)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        input_sample = draw_input_sample(s, t, condition, 1500, rng)
        output_sample = draw_output_sample(s, t, condition, 300, rng)
        cells = {}
        for ordering in ("row-major", "block"):
            keys_s = ordering_key(input_sample.s_values, ordering)
            keys_t = ordering_key(input_sample.t_values, ordering)
            s_bounds = approximate_quantiles(keys_s, 20)
            t_bounds = approximate_quantiles(keys_t, 20)
            matrix = build_coarsened_matrix(
                input_sample, output_sample, condition, s_bounds, t_bounds, ordering
            )
            cells[ordering] = matrix.n_candidate_cells
        assert cells["row-major"] <= cells["block"] * 1.2


class TestCSIOPartitioner:
    def test_end_to_end_correctness(self):
        s, t = correlated_pair(2500, 2500, dimensions=2, z=1.5, seed=22)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        partitioning = CSIOPartitioner().partition(s, t, condition, workers=4)
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="pairs")

    def test_at_most_one_rectangle_per_worker(self):
        s, t = correlated_pair(2000, 2000, dimensions=1, z=1.5, seed=23)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = CSIOPartitioner().partition(s, t, condition, workers=6)
        assert partitioning.n_units <= 6
        assert np.unique(partitioning.unit_workers()).size == partitioning.n_units

    def test_output_statistics_guide_the_cover(self):
        """CSIO balances load better than plain 1-per-quantile partitioning on
        skewed data — its max worker load must be well below a single-worker run."""
        s, t = correlated_pair(3000, 3000, dimensions=1, z=2.0, seed=24)
        condition = BandCondition.symmetric(["A1"], 0.02)
        engine = ParallelJoinEngine(backend="serial")
        partitioning = CSIOPartitioner().partition(s, t, condition, workers=4)
        result = engine.execute(s, t, condition, partitioning, verify="count")
        single = result.weights.load(len(s) + len(t), result.total_output)
        assert result.max_worker_load < 0.7 * single

    def test_granularity_validation(self):
        with pytest.raises(PartitioningError):
            CSIOPartitioner(granularity=0)

    def test_equi_join_support(self):
        """Unlike Grid-eps, CSIO handles band width zero."""
        s, t = correlated_pair(2000, 2000, dimensions=1, z=1.5, seed=25)
        condition = BandCondition.symmetric(["A1"], 0.0)
        partitioning = CSIOPartitioner().partition(s, t, condition, workers=4)
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="count")

    def test_block_ordering_end_to_end(self):
        s, t = correlated_pair(1500, 1500, dimensions=2, z=1.0, seed=26)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = CSIOPartitioner(ordering="block").partition(s, t, condition, workers=4)
        result = ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning)
        assert result.total_output >= 0  # executes without error; candidacy is approximate


class TestIEJoinBlocks:
    def test_block_boundaries_sizes(self, rng):
        values = rng.uniform(0, 100, 10_000)
        boundaries = block_boundaries(values, 2500)
        assert boundaries.size == 3  # four blocks

    def test_single_block(self, rng):
        assert block_boundaries(rng.uniform(size=100), 1000).size == 0

    def test_invalid_block_size(self):
        with pytest.raises(PartitioningError):
            block_boundaries(np.arange(10.0), 0)

    def test_joinable_pairs_cover_diagonal(self):
        s_bounds = np.array([10.0, 20.0, 30.0])
        t_bounds = np.array([10.0, 20.0, 30.0])
        pairs = joinable_block_pairs(s_bounds, t_bounds, epsilon=1.0)
        pair_set = {tuple(p) for p in pairs}
        for i in range(4):
            assert (i, i) in pair_set
        # Far-apart blocks are not joinable with a small epsilon.
        assert (0, 3) not in pair_set

    def test_larger_epsilon_adds_pairs(self):
        s_bounds = np.array([10.0, 20.0, 30.0])
        t_bounds = np.array([10.0, 20.0, 30.0])
        narrow = joinable_block_pairs(s_bounds, t_bounds, epsilon=0.5)
        wide = joinable_block_pairs(s_bounds, t_bounds, epsilon=15.0)
        assert wide.shape[0] > narrow.shape[0]


class TestIEJoinPartitioner:
    def test_end_to_end_correctness(self):
        s, t = correlated_pair(2500, 2500, dimensions=2, z=1.5, seed=27)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        partitioning = IEJoinPartitioner(size_per_block=500).partition(s, t, condition, 4)
        ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="pairs")

    def test_block_size_controls_duplication(self):
        """Smaller blocks mean more joinable pairs sharing blocks, hence more
        duplication (the effect swept in paper Table 11)."""
        s, t = correlated_pair(4000, 4000, dimensions=1, z=1.5, seed=28)
        condition = BandCondition.symmetric(["A1"], 0.05)
        engine = ParallelJoinEngine(backend="serial")
        small_blocks = engine.execute(
            s, t, condition, IEJoinPartitioner(size_per_block=250).partition(s, t, condition, 8)
        )
        large_blocks = engine.execute(
            s, t, condition, IEJoinPartitioner(size_per_block=2000).partition(s, t, condition, 8)
        )
        assert small_blocks.total_input >= large_blocks.total_input

    def test_quantile_partitioning_cuts_dense_regions(self):
        """On skewed data IEJoin duplicates noticeably more input than RecPart-S
        (the core observation of paper Tables 7 / 11)."""
        from repro.core.recpart import RecPartSPartitioner

        s, t = correlated_pair(4000, 4000, dimensions=1, z=1.5, seed=29)
        condition = BandCondition.symmetric(["A1"], 0.05)
        engine = ParallelJoinEngine(backend="serial")
        iejoin = engine.execute(
            s, t, condition, IEJoinPartitioner(size_per_block=500).partition(s, t, condition, 8)
        )
        recpart = engine.execute(
            s, t, condition, RecPartSPartitioner().partition(s, t, condition, 8)
        )
        assert iejoin.total_input > recpart.total_input

    def test_invalid_parameters(self):
        with pytest.raises(PartitioningError):
            IEJoinPartitioner(size_per_block=0)
        with pytest.raises(PartitioningError):
            IEJoinPartitioner(sort_dimension=-1)
        s, t = correlated_pair(100, 100, dimensions=1, seed=0)
        with pytest.raises(PartitioningError):
            IEJoinPartitioner(sort_dimension=4).partition(
                s, t, BandCondition.symmetric(["A1"], 0.1), 2
            )

    def test_describe(self):
        s, t = correlated_pair(1000, 1000, dimensions=1, z=1.5, seed=30)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = IEJoinPartitioner(size_per_block=250).partition(s, t, condition, 4)
        info = partitioning.describe()
        assert info["s_blocks"] >= 2
        assert info["block_pairs"] == partitioning.n_units
