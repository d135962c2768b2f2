"""Assignment of partition units to workers.

Once a partitioner has carved the join-attribute space (or the join matrix)
into units, the units must be distributed over the ``w`` workers.  The
classic longest-processing-time (LPT) greedy rule — sort units by descending
load, always give the next unit to the currently least-loaded worker — is a
4/3-approximation of the optimal makespan and is what the library uses
whenever the partitioner itself does not dictate a one-to-one mapping.

Random assignment is also provided because RecPart's load-variance derivation
(Section 4.2 of the paper) models exactly that: each leaf assigned to a
uniformly random worker.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import PartitioningError


def lpt_assignment(loads: np.ndarray, workers: int) -> np.ndarray:
    """Assign units to workers with the LPT greedy heuristic.

    Parameters
    ----------
    loads:
        Per-unit load estimates (non-negative).
    workers:
        Number of workers.

    Returns
    -------
    Array of worker ids, one per unit.
    """
    loads = np.asarray(loads, dtype=float)
    if workers < 1:
        raise PartitioningError("workers must be at least 1")
    if np.any(loads < 0):
        raise PartitioningError("unit loads must be non-negative")
    n = loads.shape[0]
    if n == 0 or workers == 1:
        return np.zeros(n, dtype=np.int64)
    # A heap of (total, worker) pops the least-loaded worker, the lowest id
    # among equal totals.
    heap = [(0.0, worker) for worker in range(workers)]
    assignment = [0] * n
    unit_loads = loads.tolist()
    for unit in np.argsort(-loads, kind="stable").tolist():
        total, worker = heap[0]
        assignment[unit] = worker
        heapq.heapreplace(heap, (total + unit_loads[unit], worker))
    return np.array(assignment, dtype=np.int64)


def random_assignment(n_units: int, workers: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each unit to a uniformly random worker."""
    if workers < 1:
        raise PartitioningError("workers must be at least 1")
    if n_units < 0:
        raise PartitioningError("n_units must be non-negative")
    return rng.integers(0, workers, size=n_units, dtype=np.int64)


def round_robin_assignment(n_units: int, workers: int) -> np.ndarray:
    """Assign units to workers round-robin (unit ``i`` to worker ``i mod w``)."""
    if workers < 1:
        raise PartitioningError("workers must be at least 1")
    return np.arange(n_units, dtype=np.int64) % workers


def worker_loads(loads: np.ndarray, assignment: np.ndarray, workers: int) -> np.ndarray:
    """Aggregate per-unit loads into per-worker totals."""
    loads = np.asarray(loads, dtype=float)
    assignment = np.asarray(assignment)
    if loads.shape != assignment.shape:
        raise PartitioningError("loads and assignment must have the same shape")
    return np.bincount(assignment, weights=loads, minlength=workers)


def max_worker_load(loads: np.ndarray, assignment: np.ndarray, workers: int) -> float:
    """Return the maximum per-worker total load under the given assignment."""
    totals = worker_loads(loads, assignment, workers)
    return float(totals.max()) if totals.size else 0.0


def load_imbalance(loads: np.ndarray, assignment: np.ndarray, workers: int) -> float:
    """Return the ratio of max to mean per-worker load (1.0 means perfectly balanced)."""
    totals = worker_loads(loads, assignment, workers)
    mean = float(totals.mean()) if totals.size else 0.0
    if mean == 0:
        return 1.0
    return float(totals.max()) / mean
