"""Tests for input and output sampling (repro.sampling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import correlated_pair, uniform_relation
from repro.exceptions import SamplingError
from repro.geometry.band import BandCondition
from repro.local_join.base import join_pair_count
from repro.local_join.interval import IntervalJoin
from repro.sampling import output_sampler
from repro.sampling.input_sampler import draw_input_sample
from repro.sampling.output_sampler import _grow_rows, draw_output_sample


class TestInputSampler:
    def test_sample_shapes_and_scales(self, rng):
        s, t = correlated_pair(4000, 2000, dimensions=2, seed=0)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        sample = draw_input_sample(s, t, condition, 1000, rng)
        assert sample.s_values.shape == (500, 2)
        assert sample.t_values.shape == (500, 2)
        assert sample.s_scale == pytest.approx(4000 / 500)
        assert sample.t_scale == pytest.approx(2000 / 500)
        assert sample.total_input == 6000
        assert sample.dimensionality == 2

    def test_sample_larger_than_relation_uses_whole_relation(self, rng):
        s, t = correlated_pair(100, 100, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        sample = draw_input_sample(s, t, condition, 10_000, rng)
        assert sample.s_values.shape[0] == 100
        assert sample.s_scale == 1.0

    def test_combined_values(self, rng):
        s, t = correlated_pair(500, 500, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        sample = draw_input_sample(s, t, condition, 200, rng)
        assert sample.combined_values().shape[0] == (
            sample.s_values.shape[0] + sample.t_values.shape[0]
        )

    def test_data_bounds_cover_sample(self, rng):
        s, t = correlated_pair(1000, 1000, dimensions=3, seed=0)
        condition = BandCondition.symmetric(["A1", "A2", "A3"], 0.1)
        sample = draw_input_sample(s, t, condition, 512, rng)
        lower, upper = sample.data_bounds()
        combined = sample.combined_values()
        assert np.all(combined >= lower)
        assert np.all(combined <= upper)

    def test_data_bounds_with_padding(self, rng):
        s, t = correlated_pair(500, 500, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.5)
        sample = draw_input_sample(s, t, condition, 200, rng)
        lower_plain, upper_plain = sample.data_bounds()
        lower_padded, upper_padded = sample.data_bounds(padding=np.array([2.0]))
        assert lower_padded[0] < lower_plain[0]
        assert upper_padded[0] > upper_plain[0]

    def test_sample_size_validation(self, rng):
        s, t = correlated_pair(100, 100, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        with pytest.raises(SamplingError):
            draw_input_sample(s, t, condition, 1, rng)

    def test_scales_convert_counts_to_estimates(self, rng):
        """Scaled sample counts over a predicate approximate the true count."""
        s = uniform_relation("S", 20_000, dimensions=1, seed=0)
        t = uniform_relation("T", 20_000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.1)
        sample = draw_input_sample(s, t, condition, 4000, rng)
        true_below = float(np.sum(s["A1"] < 0.5))
        estimated_below = float(np.sum(sample.s_values[:, 0] < 0.5)) * sample.s_scale
        assert abs(estimated_below - true_below) / true_below < 0.15


class TestOutputSampler:
    def test_output_sample_estimates_total_output(self, rng):
        s = uniform_relation("S", 5000, dimensions=1, seed=0)
        t = uniform_relation("T", 5000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.01)
        sample = draw_output_sample(s, t, condition, 500, rng, initial_fraction=0.1)
        exact = join_pair_count(s.join_matrix(["A1"]), t.join_matrix(["A1"]), condition)
        assert exact > 0
        assert 0.5 * exact < sample.estimated_output < 1.6 * exact

    def test_sampled_pairs_actually_join(self, rng):
        s, t = correlated_pair(3000, 3000, dimensions=2, z=1.5, seed=1)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        sample = draw_output_sample(s, t, condition, 300, rng)
        if len(sample):
            assert condition.matches(sample.s_coords, sample.t_coords).all()

    def test_empty_join_gives_empty_sample(self, rng):
        s = uniform_relation("S", 500, dimensions=1, low=0.0, high=1.0, seed=0)
        t = uniform_relation("T", 500, dimensions=1, low=100.0, high=101.0, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.5)
        sample = draw_output_sample(s, t, condition, 100, rng)
        assert sample.is_empty
        assert sample.estimated_output == 0.0
        assert sample.pair_scale == 0.0

    def test_empty_relation(self, rng):
        s = uniform_relation("S", 0, dimensions=1, seed=0)
        t = uniform_relation("T", 10, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.5)
        sample = draw_output_sample(s, t, condition, 10, rng)
        assert sample.is_empty

    def test_sample_capped_at_requested_size(self, rng):
        s = uniform_relation("S", 2000, dimensions=1, seed=0)
        t = uniform_relation("T", 2000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.2)  # huge output
        sample = draw_output_sample(s, t, condition, 64, rng, initial_fraction=0.2)
        assert len(sample) <= 64
        assert sample.pair_scale > 0

    def test_progressive_growth_for_small_output(self, rng):
        """A very selective join forces the sampler to enlarge its cross-sample."""
        s = uniform_relation("S", 4000, dimensions=1, seed=0)
        t = uniform_relation("T", 4000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 1e-4)
        sample = draw_output_sample(
            s, t, condition, 200, rng, initial_fraction=0.01, max_fraction=0.5
        )
        # The exact output is ~ 4000*4000*2e-4 = 3200, so some pairs must be found.
        assert len(sample) > 0

    def test_parameter_validation(self, rng):
        s, t = correlated_pair(100, 100, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.5)
        with pytest.raises(SamplingError):
            draw_output_sample(s, t, condition, 0, rng)
        with pytest.raises(SamplingError):
            draw_output_sample(s, t, condition, 10, rng, initial_fraction=0.0)
        with pytest.raises(SamplingError):
            draw_output_sample(s, t, condition, 10, rng, initial_fraction=0.6, max_fraction=0.5)
        with pytest.raises(SamplingError):
            draw_output_sample(s, t, condition, 10, rng, growth=1.0)


    def test_first_round_keeps_the_single_draw_stream(self):
        """When the first round finds enough pairs the sample is exactly one
        draw of each side plus one subsample, as a one-shot sampler draws it."""
        s = uniform_relation("S", 6000, dimensions=2, seed=3)
        t = uniform_relation("T", 5000, dimensions=2, seed=4)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        sample = draw_output_sample(s, t, condition, 50, np.random.default_rng(8))

        rng = np.random.default_rng(8)
        s_sub, t_sub = s.sample(120, rng), t.sample(100, rng)
        s_matrix, t_matrix = s_sub.join_matrix(["A1", "A2"]), t_sub.join_matrix(["A1", "A2"])
        pairs = IntervalJoin().join(s_matrix, t_matrix, condition)
        assert pairs.shape[0] >= 50
        estimated = pairs.shape[0] * (6000 / 120) * (5000 / 100)
        pairs = pairs[rng.choice(pairs.shape[0], size=50, replace=False)]
        np.testing.assert_array_equal(sample.s_coords, s_matrix[pairs[:, 0]])
        np.testing.assert_array_equal(sample.t_coords, t_matrix[pairs[:, 1]])
        assert sample.estimated_output == estimated

    def test_grown_rows_never_repeat(self):
        rng = np.random.default_rng(2)
        rows = np.empty(0, dtype=np.int64)
        for fraction in (0.02, 0.08, 0.35, 0.9, 1.0):
            grown = _grow_rows(rows, 5000, fraction, rng)
            assert grown.size == round(fraction * 5000)
            assert np.unique(grown).size == grown.size
            np.testing.assert_array_equal(grown[: rows.size], rows)
            rows = grown

    def test_growth_skips_to_the_predicted_fraction(self, monkeypatch):
        """A pilot that finds a tenth of the pairs goes straight to the first
        scheduled fraction predicted to find them all: two joins, not five."""
        joins = []

        class Counting:
            def join(self, s_matrix, t_matrix, condition):
                joins.append((s_matrix.shape[0], t_matrix.shape[0]))
                return IntervalJoin().join(s_matrix, t_matrix, condition)

        monkeypatch.setattr(output_sampler, "IntervalJoin", Counting)
        s = uniform_relation("S", 20_000, dimensions=1, seed=0)
        t = uniform_relation("T", 20_000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.002)
        sample = draw_output_sample(s, t, condition, 10 * 640, np.random.default_rng(0))
        assert len(joins) == 2
        assert joins[1][0] in (round(0.02 * 2**k * 20_000) for k in range(1, 5))
        assert len(sample) == 10 * 640
        # The grown pairs are distinct (no row was drawn twice).
        coords = np.column_stack([sample.s_coords, sample.t_coords])
        assert np.unique(coords, axis=0).shape[0] == len(sample)

    def test_grown_sample_estimates_total_output(self, rng):
        s = uniform_relation("S", 8000, dimensions=1, seed=0)
        t = uniform_relation("T", 8000, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.001)
        sample = draw_output_sample(s, t, condition, 400, rng, initial_fraction=0.01)
        exact = join_pair_count(s.join_matrix(["A1"]), t.join_matrix(["A1"]), condition)
        assert 0.5 * exact < sample.estimated_output < 1.6 * exact


class TestSelectivityEstimates:
    def test_uniform_window_fraction_matches_analytic_value(self):
        from repro.sampling.selectivity import window_fractions

        rng = np.random.default_rng(5)
        s = rng.uniform(0, 1, size=(5000, 1))
        t = rng.uniform(0, 1, size=(5000, 1))
        condition = BandCondition.symmetric(["A1"], 0.05)
        fraction = window_fractions(s, t, condition)[0]
        # P(|x - y| <= 0.05) for uniform [0, 1) is ~2 * 0.05 = 0.1.
        assert 0.07 < fraction < 0.13

    def test_output_estimate_tracks_exact_count(self):
        from repro.sampling.selectivity import estimate_join_selectivity

        rng = np.random.default_rng(9)
        s = rng.uniform(0, 2, size=(3000, 1))
        t = rng.uniform(0, 2, size=(3000, 1))
        condition = BandCondition.symmetric(["A1"], 0.02)
        estimate = estimate_join_selectivity(s, t, condition) * 3000 * 3000
        exact = join_pair_count(s, t, condition)
        assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_empty_inputs_estimate_zero(self):
        from repro.sampling.selectivity import (
            estimate_join_selectivity,
            window_fractions,
        )

        condition = BandCondition.symmetric(["A1"], 0.1)
        empty = np.empty((0, 1))
        some = np.ones((5, 1))
        assert estimate_join_selectivity(empty, some, condition) == 0.0
        np.testing.assert_array_equal(window_fractions(some, empty, condition), [0.0])

    def test_invalid_sample_size(self):
        from repro.sampling.selectivity import window_fractions

        condition = BandCondition.symmetric(["A1"], 0.1)
        values = np.ones((5, 1))
        with pytest.raises(ValueError):
            window_fractions(values, values, condition, sample_size=0)
