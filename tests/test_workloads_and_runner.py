"""Tests for workload definitions and the experiment runner."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.recpart import RecPartSPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.exceptions import ReproError, WorkloadError
from repro.experiments import workloads as wl
from repro.experiments.runner import default_partitioners, run_workload
from repro.experiments.workloads import Workload, ebird_cloud_workload, pareto_workload, ptf_workload


class TestWorkloadDefinitions:
    def test_pareto_workload_build(self):
        workload = pareto_workload(0.1, dimensions=2, rows_per_input=500)
        s, t, condition = workload.build()
        assert len(s) == len(t) == 500
        assert condition.dimensionality == 2
        assert workload.attributes() == ("A1", "A2")

    def test_reverse_pareto_workload(self):
        workload = pareto_workload(1.0, dimensions=1, reverse=True, rows_per_input=500)
        s, t, _ = workload.build()
        assert np.median(t["A1"]) > np.median(s["A1"])

    def test_ebird_cloud_workload(self):
        workload = ebird_cloud_workload(2.0, rows_per_input=300)
        s, t, condition = workload.build()
        assert condition.attributes == ("time", "latitude", "longitude")
        assert len(s) == len(t) == 300

    def test_ptf_workload_shares_sources(self):
        workload = ptf_workload(2.78e-4, rows_per_input=1000)
        s, t, condition = workload.build()
        assert condition.attributes == ("ra", "dec")
        # The two halves observe the same sources, so some cross pairs exist
        # within a few arc seconds.
        from repro.local_join.base import join_pair_count

        count = join_pair_count(
            s.join_matrix(condition.attributes), t.join_matrix(condition.attributes), condition
        )
        assert count > 0

    def test_workload_validation(self):
        with pytest.raises(WorkloadError):
            Workload(
                name="bad",
                description="",
                dataset="unknown",
                dimensions=1,
                band_widths=(1.0,),
            )
        with pytest.raises(WorkloadError):
            Workload(
                name="bad",
                description="",
                dataset="pareto",
                dimensions=2,
                band_widths=(1.0,),
            )
        with pytest.raises(WorkloadError):
            Workload(
                name="bad",
                description="",
                dataset="pareto",
                dimensions=1,
                band_widths=(1.0,),
                workers=0,
            )

    def test_scaled_copy(self):
        workload = pareto_workload(0.1, dimensions=1)
        scaled = workload.scaled(1000, 2)
        assert scaled.rows_per_input == 1000
        assert scaled.workers == 2
        assert scaled.name != workload.name
        assert dataclasses.replace(scaled) == scaled

    def test_workload_is_deterministic(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=200)
        s1, _, _ = workload.build()
        s2, _, _ = workload.build()
        np.testing.assert_array_equal(s1["A1"], s2["A1"])

    def test_label(self):
        assert "pareto" in pareto_workload(0.1).label()


class TestTableWorkloadFamilies:
    @pytest.mark.parametrize(
        "factory",
        [
            wl.table2a_workloads,
            wl.table2b_workloads,
            wl.table2c_workloads,
            wl.table3_workloads,
            wl.table4a_workloads,
            wl.table4b_workloads,
            wl.table4c_workloads,
            wl.table4d_workloads,
            wl.table6_workloads,
            wl.table7_workloads,
            wl.table9_workloads,
            wl.table12_workloads,
            wl.table15_workloads,
            wl.table16_workloads,
            wl.figure4_workloads,
        ],
    )
    def test_factories_return_valid_workloads(self, factory):
        workloads = factory()
        assert len(workloads) >= 1
        names = [w.name for w in workloads]
        assert len(names) == len(set(names)), "workload names must be unique within a table"

    def test_table2a_band_widths_increase(self):
        widths = [w.band_widths[0] for w in wl.table2a_workloads()]
        assert widths == sorted(widths)

    def test_table3_skew_increases(self):
        skews = [w.skew for w in wl.table3_workloads()]
        assert skews == sorted(skews)

    def test_table4a_scales_input_and_workers_together(self):
        workloads = wl.table4a_workloads()
        rows = [w.rows_per_input for w in workloads]
        workers = [w.workers for w in workloads]
        assert rows == sorted(rows)
        assert workers == sorted(workers)

    def test_table5_multipliers(self):
        assert wl.table5_grid_multipliers()[0] == 1


class TestRunner:
    def test_run_workload_produces_result_per_method(self):
        workload = pareto_workload(0.1, dimensions=2, rows_per_input=800, workers=3)
        partitioners = [RecPartSPartitioner(), OneBucketPartitioner()]
        experiment = run_workload(workload, partitioners=partitioners, verify="count")
        assert len(experiment.results) == 2
        assert {r.method for r in experiment.results} == {"RecPart-S", "1-Bucket"}
        recpart = experiment.result_for("RecPart-S")
        assert not recpart.failed
        assert recpart.total_input >= 1600
        assert recpart.duplication_overhead >= 0
        assert experiment.bounds.output_size == recpart.total_output

    def test_failed_method_reported_not_raised(self):
        from repro.baselines.grid import GridEpsilonPartitioner

        workload = pareto_workload(0.0, dimensions=1, rows_per_input=400, workers=2)
        experiment = run_workload(
            workload, partitioners=[GridEpsilonPartitioner(), OneBucketPartitioner()]
        )
        grid = experiment.result_for("Grid-eps")
        assert grid.failed
        assert "band width" in (grid.error or "").lower() or "defined" in (grid.error or "")
        assert not experiment.result_for("1-Bucket").failed

    def test_best_method_selection(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=600, workers=2)
        experiment = run_workload(
            workload, partitioners=[RecPartSPartitioner(), OneBucketPartitioner()]
        )
        assert experiment.best_method().method in {"RecPart-S", "1-Bucket"}

    def test_unknown_method_lookup(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=300, workers=2)
        experiment = run_workload(workload, partitioners=[OneBucketPartitioner()])
        with pytest.raises(ReproError):
            experiment.result_for("nonexistent")

    def test_overhead_points(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=500, workers=2)
        experiment = run_workload(workload, partitioners=[OneBucketPartitioner()])
        points = experiment.overhead_points()
        assert len(points) == 1
        assert points[0].method == "1-Bucket"
        # With 2 workers the matrix is 1x2 (or 2x1): one side is shipped twice,
        # so total input is at least 1.5x the baseline.
        assert points[0].duplication_overhead >= 0.4

    def test_format_renders_all_methods(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=400, workers=2)
        experiment = run_workload(
            workload, partitioners=[RecPartSPartitioner(), OneBucketPartitioner()]
        )
        text = experiment.format()
        assert "RecPart-S" in text and "1-Bucket" in text

    def test_default_partitioners_flags(self):
        methods = {p.name for p in default_partitioners()}
        assert methods == {"RecPart-S", "CSIO", "1-Bucket", "Grid-eps"}
        extended = {p.name for p in default_partitioners(
            include_recpart_symmetric=True, include_grid_star=True, include_iejoin=True
        )}
        assert {"RecPart", "Grid*", "IEJoin"} <= extended

    def test_runner_is_deterministic(self):
        workload = pareto_workload(0.1, dimensions=1, rows_per_input=500, workers=2)
        first = run_workload(workload, partitioners=[RecPartSPartitioner()])
        second = run_workload(workload, partitioners=[RecPartSPartitioner()])
        assert first.results[0].total_input == second.results[0].total_input
        assert first.results[0].max_worker_output == second.results[0].max_worker_output


#: ``run_workload(seed=0)`` with the default partitioners, recorded at commit
#: a3263d2 through the ``simulated`` executor that the engine replaced.  The
#: RecPart-S and CSIO rows were re-recorded when the output sampler started
#: growing one sample instead of re-drawing it (the other two methods draw no
#: output sample).  Per method: (I, I_m, O_m, total output, units, predicted
#: join time).  The d=3 row was recorded at commit c4a56bd.
GOLDEN_MEASURES = {
    (0.001, 1, 4000, 4): {
        "RecPart-S": (8028, 2057, 4655, 18119, 28, 20911.0),
        "CSIO": (8375, 2375, 4599, 18119, 4, 22474.0),
        "1-Bucket": (16000, 4020, 4562, 18119, 4, 36642.0),
        "Grid-eps": (13842, 3503, 4664, 18119, 4320, 32518.0),
    },
    (0.05, 2, 3000, 6): {
        "RecPart-S": (6547, 1115, 4918, 26667, 20, 15925.0),
        "CSIO": (7438, 2251, 1815, 26667, 6, 18257.0),
        "1-Bucket": (15000, 2502, 4868, 26667, 6, 29876.0),
        "Grid-eps": (18030, 3145, 4763, 26667, 8223, 35373.0),
    },
    (0.05, 3, 3000, 6): {
        "RecPart-S": (6222, 1098, 120, 1408, 36, 10734.0),
        "CSIO": (7250, 1375, 421, 1408, 6, 13171.0),
        "1-Bucket": (15000, 2523, 266, 1408, 6, 25358.0),
        "Grid-eps": (20927, 3542, 257, 1408, 60652, 35352.0),
    },
}


class TestGoldenPaperMeasures:
    """The paper's measures are a property of the partitioning, not of the
    code path that executes it: they must not move when the reduce phase is
    rewritten."""

    @pytest.mark.parametrize(
        "band_width, dimensions, rows, workers", GOLDEN_MEASURES, ids=["d1", "d2", "d3"]
    )
    def test_run_workload_reproduces_recorded_measures(
        self, band_width, dimensions, rows, workers
    ):
        workload = pareto_workload(
            band_width, dimensions=dimensions, rows_per_input=rows, workers=workers
        )
        experiment = run_workload(workload, seed=0, verify="count")
        measured = {
            r.method: (
                r.total_input,
                r.max_worker_input,
                r.max_worker_output,
                r.total_output,
                r.n_units,
                r.predicted_join_time,
            )
            for r in experiment.results
        }
        assert measured == GOLDEN_MEASURES[band_width, dimensions, rows, workers]
