"""Per-worker and per-job accounting of one executed band-join."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import LoadWeights
from repro.exceptions import ExecutionError


@dataclass
class WorkerStats:
    """Accounting of one worker.

    Attributes
    ----------
    worker_id:
        Worker index in ``[0, w)``.
    input_s / input_t:
        Number of S- / T-tuples received (including duplicates).
    output:
        Number of output pairs produced by the worker's local joins.
    units:
        Number of partition units executed on the worker.
    local_seconds:
        Measured wall-clock time spent in the worker's local joins.
    """

    worker_id: int
    input_s: int = 0
    input_t: int = 0
    output: int = 0
    units: int = 0
    local_seconds: float = 0.0

    @property
    def input_total(self) -> int:
        """Return the total number of input tuples received by the worker."""
        return self.input_s + self.input_t

    def load(self, weights: LoadWeights) -> float:
        """Return the worker's load under the paper's linear load model."""
        return weights.load(self.input_total, self.output)


@dataclass
class JobStats:
    """Aggregated statistics of one distributed band-join."""

    workers: list[WorkerStats] = field(default_factory=list)
    total_output: int = 0
    baseline_input: int = 0

    def __post_init__(self) -> None:
        if not self.workers:
            raise ExecutionError("JobStats needs at least one worker entry")

    # ------------------------------------------------------------------ #
    # Aggregates used throughout the paper's tables
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        """Return the number of workers."""
        return len(self.workers)

    @property
    def total_input(self) -> int:
        """Return total input ``I`` including duplicates."""
        return sum(w.input_total for w in self.workers)

    @property
    def duplication(self) -> int:
        """Return the absolute number of duplicate input tuples created."""
        return self.total_input - self.baseline_input

    @property
    def duplication_ratio(self) -> float:
        """Return ``(I - (|S|+|T|)) / (|S|+|T|)`` — the paper's input-overhead measure."""
        if self.baseline_input <= 0:
            return 0.0
        return self.duplication / self.baseline_input

    def worker_loads(self, weights: LoadWeights) -> np.ndarray:
        """Return the per-worker loads under the given weights."""
        return np.array([w.load(weights) for w in self.workers], dtype=float)

    def most_loaded_worker(self, weights: LoadWeights) -> WorkerStats:
        """Return the statistics of the most loaded worker."""
        loads = self.worker_loads(weights)
        return self.workers[int(np.argmax(loads))]

    def max_worker_load(self, weights: LoadWeights) -> float:
        """Return ``L_m`` — the maximum per-worker load."""
        loads = self.worker_loads(weights)
        return float(loads.max()) if loads.size else 0.0

    def max_worker_input(self, weights: LoadWeights) -> int:
        """Return ``I_m`` — the input of the most loaded worker."""
        return self.most_loaded_worker(weights).input_total

    def max_worker_output(self, weights: LoadWeights) -> int:
        """Return ``O_m`` — the output of the most loaded worker."""
        return self.most_loaded_worker(weights).output

    def load_imbalance(self, weights: LoadWeights) -> float:
        """Return max/mean per-worker load (the "Imbalance" column of Table 14)."""
        loads = self.worker_loads(weights)
        mean = float(loads.mean()) if loads.size else 0.0
        if mean == 0:
            return 1.0
        return float(loads.max()) / mean

    @property
    def max_local_seconds(self) -> float:
        """Return the largest measured local-join time across workers."""
        return max((w.local_seconds for w in self.workers), default=0.0)

    @property
    def total_local_seconds(self) -> float:
        """Return the sum of measured local-join times across workers."""
        return sum(w.local_seconds for w in self.workers)

    def as_dict(self, weights: LoadWeights) -> dict:
        """Return a JSON-friendly summary of the job."""
        return {
            "workers": self.n_workers,
            "total_input": self.total_input,
            "baseline_input": self.baseline_input,
            "duplication_ratio": self.duplication_ratio,
            "total_output": self.total_output,
            "max_worker_load": self.max_worker_load(weights),
            "max_worker_input": self.max_worker_input(weights),
            "max_worker_output": self.max_worker_output(weights),
            "load_imbalance": self.load_imbalance(weights),
        }


def merge_job_stats(jobs: "list[JobStats]") -> JobStats:
    """Merge per-worker accounting of several executions into one JobStats.

    Used by the serving layer to report one consolidated accounting for a
    query served by several joins (a partitioned base join and the local
    joins of the rows appended since).  Worker lists are aligned by worker
    id; the merged job spans the widest worker range of its parts.
    """
    if not jobs:
        raise ExecutionError("merge_job_stats needs at least one job")
    n_workers = max(job.n_workers for job in jobs)
    merged = [WorkerStats(worker_id=i) for i in range(n_workers)]
    for job in jobs:
        for worker in job.workers:
            into = merged[worker.worker_id]
            into.input_s += worker.input_s
            into.input_t += worker.input_t
            into.output += worker.output
            into.units += worker.units
            into.local_seconds += worker.local_seconds
    return JobStats(
        workers=merged,
        total_output=sum(job.total_output for job in jobs),
        baseline_input=max(job.baseline_input for job in jobs),
    )
