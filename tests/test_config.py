"""Tests for configuration objects (repro.config)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import MAX_WORKERS, LoadWeights, RecPartConfig, ServiceConfig


class TestLoadWeights:
    def test_defaults_match_paper_profile(self):
        weights = LoadWeights()
        assert weights.ratio == pytest.approx(4.0)

    def test_load_formula(self):
        weights = LoadWeights(beta_input=2.0, beta_output=0.5)
        assert weights.load(10, 4) == pytest.approx(22.0)

    def test_zero_output_weight(self):
        weights = LoadWeights(beta_input=1.0, beta_output=0.0)
        assert weights.ratio == float("inf")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LoadWeights(beta_input=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LoadWeights(beta_input=0.0, beta_output=0.0)


class TestRecPartConfig:
    def test_defaults(self):
        config = RecPartConfig()
        assert config.symmetric is True
        assert config.termination == "applied"
        assert config.iteration_cap(8) >= 8

    def test_iteration_cap_override(self):
        config = RecPartConfig(max_iterations=17)
        assert config.iteration_cap(100) == 17

    def test_iteration_cap_scales_with_workers(self):
        config = RecPartConfig()
        assert config.iteration_cap(16) > config.iteration_cap(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecPartConfig(sample_size=0)
        with pytest.raises(ValueError):
            RecPartConfig(small_partition_factor=-1.0)
        with pytest.raises(ValueError):
            RecPartConfig(termination="other")
        with pytest.raises(ValueError):
            RecPartConfig(improvement_threshold=1.5)


class TestServiceConfig:
    def test_worker_budget_is_bounded(self):
        assert ServiceConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError, match="workers must be between 1 and"):
            ServiceConfig(workers=MAX_WORKERS + 1)
        with pytest.raises(ValueError, match="workers must be between 1 and"):
            ServiceConfig(workers=0)

    def test_compaction_runs_in_the_background_or_in_the_append(self):
        for mode in ("background", "sync"):
            assert ServiceConfig(compaction=mode).compaction == mode
        with pytest.raises(ValueError, match="compaction must be"):
            ServiceConfig(compaction="off")

    def test_infinite_staleness_threshold_never_compacts(self):
        from repro.service import BandJoinService

        config = ServiceConfig(
            backend="serial", compaction="sync", staleness_threshold=math.inf
        )
        with BandJoinService(config) as service:
            service.register("S", {"A1": np.arange(4.0)})
            assert service.append("S", {"A1": np.arange(40.0)}).delta_rows == 40
            assert service.catalog.get("S").delta_rows == 40
