"""Smoke tests for the per-table experiment reproductions (tiny scale).

The full-size reproductions live in ``benchmarks/``; these tests only verify
that every table function runs end-to-end at a very small scale, produces
well-formed rows, and exhibits the qualitative relationships the paper
reports (e.g. RecPart duplicates less input than 1-Bucket).
"""

from __future__ import annotations

import pytest

from repro.experiments import tables
from repro.experiments.figures import Figure4Data, Figure9Data, figure4
from repro.experiments.workloads import pareto_workload
from repro.metrics.measures import OverheadPoint

#: Scale factor applied to every workload: 50k tuples/input become 2k.
TINY = 0.04


class TestTableReproductionsSmoke:
    def test_table2b_runs_and_orders_methods(self):
        reproduction = tables.table2b(scale=TINY)
        assert len(reproduction.experiments) == 3
        text = reproduction.format()
        assert "RecPart-S" in text and "CSIO" in text
        for experiment in reproduction.experiments:
            recpart = experiment.result_for("RecPart-S")
            one_bucket = experiment.result_for("1-Bucket")
            assert not recpart.failed and not one_bucket.failed
            # The qualitative relationship of paper Table 2b: RecPart-S ships
            # far less input than 1-Bucket's ~sqrt(w) replication.
            assert recpart.total_input < one_bucket.total_input

    def test_table2a_grid_fails_on_equi_join_row(self):
        reproduction = tables.table2a(scale=TINY)
        first = reproduction.experiments[0]
        assert first.result_for("Grid-eps").failed

    def test_table2a_verified_at_scale_005(self):
        """RecPart-S and Grid-eps once answered 6 of these runs wrongly (pairs
        at exactly ε, on a 1e-5 grid); a wrong answer now raises."""
        reproduction = tables.table2a(scale=0.05, verify="pairs")
        failed = [
            (experiment.workload.name, result.method)
            for experiment in reproduction.experiments
            for result in experiment.results
            if result.failed
        ]
        assert all(method == "Grid-eps" for _, method in failed)

    def test_table3_skew_rows(self):
        reproduction = tables.table3(scale=TINY)
        assert len(reproduction.experiments) == 4

    def test_table5_grid_sweep_rows(self):
        reproduction = tables.table5(scale=TINY)
        labels = [row[0] for row in reproduction.custom_rows]
        assert any("Grid (cell = 1" in label for label in labels)
        assert "Grid*" in labels and "RecPart-S" in labels

    def test_table7_block_size_sweep(self):
        reproduction = tables.table7(scale=TINY)
        methods = {row[1] for row in reproduction.custom_rows}
        assert methods == {"RecPart-S", "IEJoin"}

    def test_table8_beta_sweep(self):
        reproduction = tables.table8(scale=TINY)
        assert len(reproduction.custom_rows) == len(
            __import__("repro.experiments.workloads", fromlist=["table8_beta_ratios"]).table8_beta_ratios()
        )

    def test_table9_symmetric_comparison(self):
        reproduction = tables.table9(scale=TINY)
        assert len(reproduction.custom_rows) >= 5
        # Every row carries both RecPart-S and RecPart measurements.
        assert all(len(row) == 12 for row in reproduction.custom_rows)

    def test_table16_theoretical_termination(self):
        reproduction = tables.table16(scale=TINY)
        for experiment in reproduction.experiments:
            assert not experiment.result_for("RecPart").failed

    def test_all_tables_registry(self):
        assert set(tables.ALL_TABLES) >= {"2a", "2b", "2c", "3", "5", "7", "9", "15", "16"}

    def test_overhead_points_collection(self):
        reproduction = tables.table2b(scale=TINY)
        points = reproduction.overhead_points()
        assert all(isinstance(p, OverheadPoint) for p in points)
        assert len(points) >= 4


class TestFigures:
    def test_figure4_points_and_summary(self):
        workloads = [
            pareto_workload(0.1, dimensions=2, rows_per_input=1500, workers=4),
            pareto_workload(0.05, dimensions=1, rows_per_input=1500, workers=4),
        ]
        data = figure4(scale=1.0, workloads=workloads)
        assert isinstance(data, Figure4Data)
        assert len(data.points) >= 8
        assert "RecPart-S" in data.methods()
        rows = data.summary_rows()
        assert len(rows) == len(data.methods())
        ascii_plot = data.render_ascii()
        assert "duplication overhead" in ascii_plot

    def test_figure4_recpart_dominates_competitors(self):
        workloads = [pareto_workload(0.1, dimensions=2, rows_per_input=2000, workers=4)]
        data = figure4(scale=1.0, workloads=workloads)
        recpart_worst = data.worst_point("RecPart-S")
        one_bucket_worst = data.worst_point("1-Bucket")
        assert recpart_worst is not None and one_bucket_worst is not None
        assert (
            recpart_worst.duplication_overhead < one_bucket_worst.duplication_overhead
        )

    def test_figure4_csv_export(self, tmp_path):
        data = Figure4Data(points=[OverheadPoint("RecPart", "w", 0.01, 0.02)])
        path = data.to_csv(tmp_path / "points.csv")
        content = path.read_text()
        assert "duplication_overhead" in content
        assert "RecPart" in content

    def test_figure4_empty_render(self):
        assert Figure4Data().render_ascii() == "(no points)"

    def test_figure9_cdf_math(self):
        data = Figure9Data(errors=[0.1, -0.3, 0.5, 0.05])
        values, fractions = data.cdf()
        assert values.shape == fractions.shape == (4,)
        assert fractions[-1] == pytest.approx(1.0)
        assert data.fraction_below(0.2) == pytest.approx(0.5)
        assert data.max_error() == pytest.approx(0.5)
        assert len(data.summary_rows()) == 4

    def test_figure9_empty(self):
        data = Figure9Data()
        values, fractions = data.cdf()
        assert values.size == 0
        assert data.fraction_below(0.5) == 0.0
        assert data.max_error() == 0.0
