"""Termination conditions and best-partitioning tracking for RecPart.

The paper proposes two ways to decide when to stop growing the split tree
and which of the intermediate partitionings to keep (Section 4.2,
"Termination condition and winning partitioning"):

* **theoretical** — evaluate every intermediate partitioning by its overhead
  over the lower bounds (input duplication overhead and max-worker-load
  overhead), keep the one minimising the larger of the two, and stop once
  the monotonically growing duplication overhead exceeds the smallest load
  overhead seen so far (no later iteration can improve the objective).
* **applied** — evaluate every intermediate partitioning with the calibrated
  running-time model, keep the one with the smallest predicted join time and
  stop when the predicted time has improved by less than 1% over a window of
  the last ``w`` iterations.

Both are implemented as trackers fed once per repeat-loop iteration with the
split tree, whose per-leaf counts they price.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.config import TERMINATION_IMPROVEMENT_THRESHOLD
from repro.core.assignment import lpt_assignment, worker_loads
from repro.core.partition import OptimizationContext
from repro.core.split_tree import SplitTree
from repro.exceptions import OptimizationError


@dataclass(frozen=True)
class PartitioningEstimate:
    """Optimizer-side estimate of one intermediate partitioning.

    All quantities are estimated from the samples (scaled counts), mirroring
    the information RecPart has available during optimization.
    """

    total_input: float
    max_worker_load: float
    max_worker_input: float
    max_worker_output: float
    n_units: int
    duplication_overhead: float
    load_overhead: float

    @property
    def lower_bound_objective(self) -> float:
        """Return ``max(duplication overhead, load overhead)`` (theoretical objective)."""
        return max(self.duplication_overhead, self.load_overhead)


def estimate_partitioning(counts: np.ndarray, ctx: OptimizationContext) -> PartitioningEstimate:
    """Estimate total input, max worker load and lower-bound overheads of a partitioning.

    ``counts`` holds one column per leaf — its sampled S, T and output
    counts and its grid rows and columns, as :meth:`SplitTree.leaf_counts
    <repro.core.split_tree.SplitTree.leaf_counts>` returns them.  Execution
    units (leaves, or 1-Bucket cells of small leaves) are assigned to workers
    with the same LPT heuristic the final partitioning uses, so the estimate
    matches what execution would see (up to sampling error).
    """
    if counts.shape[1] == 0:
        raise OptimizationError("cannot estimate an empty partitioning")
    # The LeafStats estimates, as arrays over the leaves (same float operations).
    n_s, n_t, n_out, rows, cols = counts
    est_s, est_t = n_s * ctx.s_scale, n_t * ctx.t_scale
    n_units = rows * cols
    unit_input = est_s / rows + est_t / cols
    unit_output = n_out * ctx.output_scale / n_units
    # A sequential sum, as a running total over the leaves would add them.
    total_input = float(np.cumsum(cols * est_s + rows * est_t)[-1])

    loads = np.repeat(ctx.weights.load(unit_input, unit_output), n_units)
    inputs = np.repeat(unit_input, n_units)
    outputs = np.repeat(unit_output, n_units)
    assignment = lpt_assignment(loads, ctx.workers)
    per_worker_load = worker_loads(loads, assignment, ctx.workers)
    per_worker_input = worker_loads(inputs, assignment, ctx.workers)
    per_worker_output = worker_loads(outputs, assignment, ctx.workers)
    most_loaded = int(np.argmax(per_worker_load)) if per_worker_load.size else 0

    baseline_input = float(ctx.input_sample.total_input)
    estimated_output = float(ctx.output_sample.estimated_output)
    lower_bound_load = (
        ctx.weights.load(baseline_input, estimated_output) / ctx.workers
        if ctx.workers
        else 0.0
    )
    max_load = float(per_worker_load[most_loaded]) if per_worker_load.size else 0.0
    duplication_overhead = (
        (total_input - baseline_input) / baseline_input if baseline_input > 0 else 0.0
    )
    load_overhead = (
        (max_load - lower_bound_load) / lower_bound_load if lower_bound_load > 0 else 0.0
    )
    return PartitioningEstimate(
        total_input=float(total_input),
        max_worker_load=max_load,
        max_worker_input=float(per_worker_input[most_loaded]) if per_worker_input.size else 0.0,
        max_worker_output=float(per_worker_output[most_loaded]) if per_worker_output.size else 0.0,
        n_units=int(loads.size),
        duplication_overhead=float(duplication_overhead),
        load_overhead=float(load_overhead),
    )


class TerminationTracker(abc.ABC):
    """Tracks intermediate partitionings, the best one found, and the stop signal."""

    def __init__(self, ctx: OptimizationContext) -> None:
        self.ctx = ctx
        self.best_snapshot: dict[int, tuple[int, int]] | None = None
        self.best_objective: float = np.inf
        self.best_estimate: PartitioningEstimate | None = None
        self.iterations: int = 0

    def record(self, tree: SplitTree) -> PartitioningEstimate:
        """Record the tree's current partitioning; returns its estimate."""
        estimate = estimate_partitioning(tree.leaf_counts(), self.ctx)
        objective = self.objective(estimate)
        if objective < self.best_objective:
            self.best_objective = objective
            self.best_snapshot = tree.snapshot()
            self.best_estimate = estimate
        self.iterations += 1
        self._after_record(estimate, objective)
        return estimate

    @abc.abstractmethod
    def objective(self, estimate: PartitioningEstimate) -> float:
        """Return the scalar objective minimised by the tracker."""

    def _after_record(self, estimate: PartitioningEstimate, objective: float) -> None:
        """Hook for subclasses that keep extra history."""

    @abc.abstractmethod
    def should_stop(self) -> bool:
        """Return ``True`` when the repeat-loop should terminate."""


class TheoreticalTermination(TerminationTracker):
    """Lower-bound-overhead termination (no cost model required).

    Stops once the (monotonically non-decreasing) input-duplication overhead
    exceeds the smallest max-worker-load overhead observed so far, because
    from that point on the objective ``max(duplication, load overhead)`` can
    no longer improve.
    """

    def __init__(self, ctx: OptimizationContext) -> None:
        super().__init__(ctx)
        self._min_load_overhead = np.inf
        self._last_duplication_overhead = 0.0

    def objective(self, estimate: PartitioningEstimate) -> float:
        return estimate.lower_bound_objective

    def _after_record(self, estimate: PartitioningEstimate, objective: float) -> None:
        self._min_load_overhead = min(self._min_load_overhead, estimate.load_overhead)
        self._last_duplication_overhead = estimate.duplication_overhead

    def should_stop(self) -> bool:
        return self._last_duplication_overhead > self._min_load_overhead


class CostModelTermination(TerminationTracker):
    """Cost-model ("applied") termination.

    Parameters
    ----------
    cost_model:
        Any object exposing ``predict(total_input, max_input, max_output)``
        returning an estimated join time; typically a
        :class:`repro.cost.model.RunningTimeModel`.
    window:
        Number of trailing iterations over which improvement is measured
        (the paper uses ``w``).
    improvement_threshold:
        Minimum relative improvement over the window required to continue.
    """

    def __init__(
        self,
        ctx: OptimizationContext,
        cost_model,
        window: int | None = None,
        improvement_threshold: float = TERMINATION_IMPROVEMENT_THRESHOLD,
    ) -> None:
        super().__init__(ctx)
        if cost_model is None or not hasattr(cost_model, "predict"):
            raise OptimizationError("CostModelTermination requires a cost model with .predict")
        self.cost_model = cost_model
        self.window = window if window is not None else max(ctx.workers, 2)
        if self.window < 1:
            raise OptimizationError("termination window must be at least 1")
        self.improvement_threshold = improvement_threshold
        self._history: list[float] = []

    def objective(self, estimate: PartitioningEstimate) -> float:
        return float(
            self.cost_model.predict(
                estimate.total_input, estimate.max_worker_input, estimate.max_worker_output
            )
        )

    def _after_record(self, estimate: PartitioningEstimate, objective: float) -> None:
        self._history.append(objective)

    def should_stop(self) -> bool:
        if len(self._history) <= self.window:
            return False
        best_before = min(self._history[: -self.window])
        best_recent = min(self._history[-self.window :])
        if best_before <= 0:
            return True
        improvement = (best_before - best_recent) / best_before
        return improvement < self.improvement_threshold
