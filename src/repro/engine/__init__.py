"""Real parallel execution engine with pluggable backends and plan caching.

This subpackage is the reduce phase of the map -> shuffle -> reduce pipeline
(paper Figure 5), executed on actual hardware and kept apart from the
planning layer (the partitioners of :mod:`repro.core` and
:mod:`repro.baselines`):

* :mod:`repro.engine.routing` — vectorised batch routing: all tuples are
  routed and grouped per partition unit with numpy masks, then gathered
  into one batched local-join task per worker.
* :mod:`repro.engine.backends` — pluggable execution backends: ``serial``
  (reference), ``threads`` (``ThreadPoolExecutor``, exploiting numpy's GIL
  release) and ``processes`` (a forked ``ProcessPoolExecutor``: workers
  inherit the join inputs at fork, and a task crosses the process boundary
  as its index).
* :mod:`repro.engine.plan_cache` — a partitioning cache keyed by relation
  content fingerprints, band condition and worker budget, so repeated
  queries over the same data skip the optimization phase entirely.
* :mod:`repro.engine.engine` — :class:`ParallelJoinEngine`, which ties the
  above together, reports :class:`EngineResult` objects carrying the
  per-worker :class:`~repro.distributed.stats.JobStats` accounting, and can
  verify a result against the single-machine join.

Quickstart
----------
>>> from repro import correlated_pair, BandCondition
>>> from repro.engine import ParallelJoinEngine
>>> s, t = correlated_pair(50_000, 50_000, dimensions=2, z=1.5, seed=0)
>>> condition = BandCondition.symmetric(["A1", "A2"], 0.05)
>>> engine = ParallelJoinEngine(backend="threads")
>>> first = engine.join(s, t, condition, workers=8)   # optimizes with RecPart
>>> again = engine.join(s, t, condition, workers=8)   # served from the plan cache
>>> again.plan_from_cache
True
"""

from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    TaskOutcome,
    ThreadPoolBackend,
    available_backends,
    get_backend,
)
from repro.engine.engine import EngineResult, ParallelJoinEngine
from repro.engine.plan_cache import (
    PlanCache,
    PlanCacheStats,
    condition_key,
    plan_key,
    relation_fingerprint,
)
from repro.engine.routing import (
    RoutedSide,
    WorkerTask,
    build_worker_tasks,
    gather_task_inputs,
    route_side,
    unit_offset_step,
    worker_input_counts,
)

__all__ = [
    # engine
    "ParallelJoinEngine",
    "EngineResult",
    # backends
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "TaskOutcome",
    "available_backends",
    "get_backend",
    # plan cache
    "PlanCache",
    "PlanCacheStats",
    "plan_key",
    "condition_key",
    "relation_fingerprint",
    # routing
    "RoutedSide",
    "WorkerTask",
    "route_side",
    "build_worker_tasks",
    "gather_task_inputs",
    "unit_offset_step",
    "worker_input_counts",
]
