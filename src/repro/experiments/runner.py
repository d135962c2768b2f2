"""End-to-end experiment runner.

``run_workload`` takes one workload (dataset + band condition + cluster size)
and a set of partitioners, runs the full optimize -> partition -> execute
pipeline for each, and collects the per-method measures the paper
reports in its tables: optimization time, estimated join time, total input
``I`` (with duplicates), and the input ``I_m`` / output ``O_m`` of the most
loaded worker, plus the overheads over the lower bounds used by Figure 4.

Failures (e.g. Grid-eps refusing to materialise an astronomically replicated
input, or being undefined for band width zero) are captured as failed method
results rather than aborting the experiment — matching how the paper reports
"failed" and "N/A" cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_ENGINE_BACKEND, LoadWeights
from repro.core.partitioner import Partitioner
from repro.cost.lower_bounds import LowerBounds, compute_lower_bounds
from repro.cost.model import RunningTimeModel, default_running_time_model
from repro.data.relation import Relation
from repro.engine.engine import ParallelJoinEngine
from repro.exceptions import ReproError
from repro.experiments.workloads import Workload
from repro.geometry.band import BandCondition
from repro.metrics.measures import OverheadPoint
from repro.metrics.report import format_table


@dataclass
class MethodResult:
    """Measured outcome of one partitioning method on one workload."""

    method: str
    optimization_seconds: float = 0.0
    execution_seconds: float = 0.0
    predicted_join_time: float | None = None
    total_input: int = 0
    max_worker_input: int = 0
    max_worker_output: int = 0
    max_worker_load: float = 0.0
    total_output: int = 0
    duplication_overhead: float = 0.0
    load_overhead: float = 0.0
    n_units: int = 0
    failed: bool = False
    error: str | None = None

    @property
    def total_time(self) -> float:
        """Return optimization plus (predicted) join time when available."""
        if self.predicted_join_time is None:
            return self.optimization_seconds
        return self.optimization_seconds + self.predicted_join_time

    def as_row(self) -> list:
        """Return the method's table row (paper column structure)."""
        if self.failed:
            return [self.method, "failed", "-", "-", "-", "-", "-", self.error or ""]
        return [
            self.method,
            self.optimization_seconds,
            self.predicted_join_time,
            self.total_input,
            self.max_worker_input,
            self.max_worker_output,
            self.duplication_overhead,
            self.load_overhead,
        ]


@dataclass
class ExperimentResult:
    """All method results of one workload plus its lower bounds."""

    workload: Workload
    bounds: LowerBounds
    results: list[MethodResult] = field(default_factory=list)

    HEADERS = [
        "method",
        "opt [s]",
        "est. join time",
        "I",
        "I_m",
        "O_m",
        "dup overhead",
        "load overhead",
    ]

    def result_for(self, method: str) -> MethodResult:
        """Return the result of one method (raises if absent)."""
        for result in self.results:
            if result.method == method:
                return result
        raise ReproError(f"no result for method {method!r} in workload {self.workload.name!r}")

    def successful(self) -> list[MethodResult]:
        """Return only the methods that completed."""
        return [r for r in self.results if not r.failed]

    def best_method(self) -> MethodResult:
        """Return the method with the smallest total (optimization + join) time."""
        candidates = self.successful()
        if not candidates:
            raise ReproError(f"every method failed on workload {self.workload.name!r}")
        return min(candidates, key=lambda r: r.total_time)

    def overhead_points(self) -> list[OverheadPoint]:
        """Return the Figure-4 scatter points of this experiment."""
        return [
            OverheadPoint(
                method=r.method,
                workload=self.workload.name,
                duplication_overhead=r.duplication_overhead,
                load_overhead=r.load_overhead,
            )
            for r in self.successful()
        ]

    def format(self) -> str:
        """Render the experiment as an aligned text table."""
        rows = []
        for r in self.results:
            if r.failed:
                rows.append([r.method, "failed", None, None, None, None, None, None])
            else:
                rows.append(
                    [
                        r.method,
                        r.optimization_seconds,
                        r.predicted_join_time,
                        r.total_input,
                        r.max_worker_input,
                        r.max_worker_output,
                        r.duplication_overhead,
                        r.load_overhead,
                    ]
                )
        title = (
            f"{self.workload.name}: {self.workload.description} "
            f"(|S|+|T|={self.bounds.total_input:,.0f}, output={self.bounds.output_size:,.0f}, "
            f"w={self.workload.workers})"
        )
        return format_table(self.HEADERS, rows, title=title)


def default_partitioners(
    weights: LoadWeights | None = None,
    cost_model: RunningTimeModel | None = None,
    include_recpart_symmetric: bool = False,
    include_grid_star: bool = False,
    include_iejoin: bool = False,
    seed: int = 0,
) -> list[Partitioner]:
    """Return the paper's standard comparison set: RecPart-S, CSIO, 1-Bucket, Grid-eps.

    Optional flags add the symmetric RecPart, Grid* and distributed IEJoin,
    used by the experiments that study them specifically.
    """
    from repro.baselines.csio import CSIOPartitioner
    from repro.baselines.grid import GridEpsilonPartitioner
    from repro.baselines.grid_star import GridStarPartitioner
    from repro.baselines.iejoin import IEJoinPartitioner
    from repro.baselines.one_bucket import OneBucketPartitioner
    from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner

    weights = weights if weights is not None else LoadWeights()
    cost_model = cost_model if cost_model is not None else default_running_time_model()
    partitioners: list[Partitioner] = [
        RecPartSPartitioner(cost_model=cost_model, weights=weights, seed=seed),
        CSIOPartitioner(weights=weights, seed=seed),
        OneBucketPartitioner(weights=weights, seed=seed),
        GridEpsilonPartitioner(weights=weights, seed=seed),
    ]
    if include_recpart_symmetric:
        partitioners.insert(1, RecPartPartitioner(cost_model=cost_model, weights=weights, seed=seed))
    if include_grid_star:
        partitioners.append(GridStarPartitioner(cost_model=cost_model, weights=weights, seed=seed))
    if include_iejoin:
        partitioners.append(IEJoinPartitioner(weights=weights, seed=seed))
    return partitioners


def run_method(
    partitioner: Partitioner,
    s: Relation,
    t: Relation,
    condition: BandCondition,
    workers: int,
    bounds: LowerBounds | None,
    engine: ParallelJoinEngine,
    cost_model: RunningTimeModel | None = None,
    verify: str = "none",
    rng: np.random.Generator | None = None,
) -> MethodResult:
    """Run one partitioner end-to-end and package the measurements.

    ``bounds`` may be ``None``; the overhead fields are then left at zero and
    can be filled in later with :func:`attach_overheads`.  With a
    ``cost_model`` the predicted join time of the executed partitioning is
    attached to the result.
    """
    start = time.perf_counter()
    try:
        partitioning = partitioner.partition(s, t, condition, workers, rng=rng)
        execution = engine.execute(s, t, condition, partitioning, verify=verify)
    except ReproError as error:
        return MethodResult(
            method=partitioner.name,
            failed=True,
            error=f"{type(error).__name__}: {error}",
            execution_seconds=time.perf_counter() - start,
        )
    elapsed = time.perf_counter() - start
    predicted = None
    if cost_model is not None:
        predicted = cost_model.predict(
            execution.total_input, execution.max_worker_input, execution.max_worker_output
        )
    result = MethodResult(
        method=partitioner.name,
        optimization_seconds=partitioning.stats.optimization_seconds,
        execution_seconds=elapsed - partitioning.stats.optimization_seconds,
        predicted_join_time=predicted,
        total_input=execution.total_input,
        max_worker_input=execution.max_worker_input,
        max_worker_output=execution.max_worker_output,
        max_worker_load=execution.max_worker_load,
        total_output=execution.total_output,
        n_units=partitioning.n_units,
    )
    if bounds is not None:
        attach_overheads(result, bounds)
    return result


def attach_overheads(result: MethodResult, bounds: LowerBounds) -> MethodResult:
    """Fill a method result's overhead-vs-lower-bound fields in place."""
    if not result.failed:
        result.duplication_overhead = bounds.input_overhead(result.total_input)
        result.load_overhead = bounds.load_overhead(result.max_worker_load)
    return result


def run_workload(
    workload: Workload,
    partitioners: list[Partitioner] | None = None,
    weights: LoadWeights | None = None,
    cost_model: RunningTimeModel | None = None,
    verify: str = "none",
    seed: int = 0,
    engine: str = DEFAULT_ENGINE_BACKEND,
) -> ExperimentResult:
    """Run every partitioner on one workload and collect the paper-style measures.

    ``engine`` names the :mod:`repro.engine` backend the local joins are
    dispatched to (``"serial"``, ``"threads"`` or ``"processes"``); the
    measures are backend-independent.
    """
    weights = weights if weights is not None else LoadWeights()
    cost_model = cost_model if cost_model is not None else default_running_time_model()
    if partitioners is None:
        partitioners = default_partitioners(weights=weights, cost_model=cost_model, seed=seed)

    s, t, condition = workload.build()
    join_engine = ParallelJoinEngine(backend=engine, weights=weights)

    results = []
    for partitioner in partitioners:
        # Stable per-method stream: zlib.crc32 is deterministic across processes
        # (unlike the builtin hash of a string), so experiment results are
        # reproducible run to run.
        import zlib

        method_key = zlib.crc32(partitioner.name.encode()) % (2**31)
        rng = np.random.default_rng((seed, method_key))
        results.append(
            run_method(
                partitioner,
                s,
                t,
                condition,
                workload.workers,
                None,
                join_engine,
                cost_model,
                verify=verify,
                rng=rng,
            )
        )

    # Every successful execution produced the exact join output (the engine
    # verifies this when asked), so the lower bounds can reuse that count
    # instead of recomputing the full join.
    exact_output: float | None = None
    for result in results:
        if not result.failed:
            exact_output = float(result.total_output)
            break
    bounds = compute_lower_bounds(
        s, t, condition, workload.workers, weights=weights, output_size=exact_output
    )
    for result in results:
        attach_overheads(result, bounds)
    return ExperimentResult(workload=workload, bounds=bounds, results=results)
