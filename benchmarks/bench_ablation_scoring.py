"""Ablation: RecPart's split-scoring measure and termination condition.

DESIGN.md calls out the split score (variance-reduction / duplication ratio)
and the termination condition as the design choices that make RecPart work.
This bench compares the paper's choices against the ablated variants on the
skewed 3D Pareto workload:

* scoring "ratio" (paper) vs "variance" (greedy balance, ignores duplication)
  vs "duplication" (least duplication first among the splits that reduce
  load variance, ignoring how much they reduce it),
* applied (cost model) vs theoretical (lower-bound) termination.
"""

from __future__ import annotations

from conftest import bench_scale, write_report

from repro.config import RecPartConfig
from repro.core.recpart import RecPartPartitioner
from repro.cost.lower_bounds import compute_lower_bounds
from repro.engine import ParallelJoinEngine
from repro.experiments.workloads import pareto_workload
from repro.metrics.report import format_table


def _run_variants(scale: float) -> list[list]:
    workload = pareto_workload(0.05, dimensions=3, rows_per_input=max(4000, int(50_000 * scale)))
    s, t, condition = workload.build()
    workers = workload.workers
    bounds = compute_lower_bounds(s, t, condition, workers)
    engine = ParallelJoinEngine(backend="serial")
    rows = []
    variants = [
        ("ratio + applied (paper)", RecPartConfig(scoring="ratio", termination="applied")),
        ("ratio + theoretical", RecPartConfig(scoring="ratio", termination="theoretical")),
        ("variance-only scoring", RecPartConfig(scoring="variance", termination="applied")),
        ("duplication-only scoring", RecPartConfig(scoring="duplication", termination="applied")),
        ("small sample (512)", RecPartConfig(scoring="ratio", sample_size=512)),
    ]
    for label, config in variants:
        partitioning = RecPartPartitioner(config=config).partition(s, t, condition, workers)
        result = engine.execute(s, t, condition, partitioning)
        rows.append(
            [
                label,
                partitioning.stats.iterations,
                partitioning.n_units,
                result.total_input,
                bounds.input_overhead(result.total_input),
                result.max_worker_input,
                result.max_worker_output,
                bounds.load_overhead(result.max_worker_load),
            ]
        )
    return rows


def test_ablation_scoring_and_termination(benchmark):
    rows = benchmark.pedantic(lambda: _run_variants(bench_scale()), rounds=1, iterations=1)
    table = format_table(
        ["variant", "iterations", "units", "I", "dup overhead", "I_m", "O_m", "load overhead"],
        rows,
        title="Ablation: split scoring measure and termination condition",
    )
    write_report("ablation_scoring", table)
    by_label = {row[0]: row for row in rows}
    paper = by_label["ratio + applied (paper)"]
    duplication_only = by_label["duplication-only scoring"]
    variance_only = by_label["variance-only scoring"]
    # Ignoring duplication must cost extra input; ignoring balance must cost load.
    assert variance_only[4] >= paper[4] - 0.05
    assert duplication_only[7] >= paper[7] - 0.05
    # Least-duplication scoring still splits: its plan is not the root alone.
    assert duplication_only[2] > 1
