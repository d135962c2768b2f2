"""The traced replay of one join: the same steps ``ParallelJoinEngine.join``
takes, made one at a time through the program's public functions with a
harness span around each.

Span names are ``<layer prefix>.<step>``; :data:`LAYER_OF_PREFIX` maps the
prefix to the ``src/repro`` module the time belongs to.  The replay follows
``engine/engine.py``: the in-memory steps when both relations are on the
heap, the streamed steps (``stream_worker_tasks`` over
``StoreMatrixSource``) when a side is mmap-backed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.core.recpart as recpart_module
import repro.engine.backends as backends_module
from repro.core.recpart import RecPartPartitioner
from repro.data.storage import SpillArena
from repro.distributed.stats import JobStats, WorkerStats
from repro.engine.plan_cache import plan_key
from repro.engine.routing import (
    build_worker_tasks,
    route_side,
    stream_worker_tasks,
    unit_offset_step,
    worker_input_counts,
)
from repro.engine.sources import StoreMatrixSource
from repro.local_join.base import LocalJoinAlgorithm
from summary import median

#: Span-name prefix -> the module (layer) its self time is charged to.
LAYER_OF_PREFIX = {
    "plan_cache": "engine.plan_cache",
    "core": "core",
    "sampling": "sampling",
    "routing": "engine.routing",
    "backends": "engine.backends",
    "kernels": "local_join.kernels",
    "engine": "engine.engine",
    "server": "service.server",
    "prepared": "service.prepared",
    "catalog": "service.catalog",
}


def layer_of(span_name: str) -> str | None:
    """Return the layer of a span, ``None`` for the harness's own spans."""
    return LAYER_OF_PREFIX.get(span_name.split(".", 1)[0])


class TracedAlgorithm(LocalJoinAlgorithm):
    """A local-join algorithm with a ``kernels.join`` span around each call."""

    def __init__(self, inner: LocalJoinAlgorithm, recorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name

    def with_memory_budget(self, memory_budget):
        return TracedAlgorithm(self.inner.with_memory_budget(memory_budget), self.recorder)

    def join(self, s_values, t_values, condition):
        with self.recorder.span("kernels.join"):
            return self.inner.join(s_values, t_values, condition)

    def count(self, s_values, t_values, condition):
        with self.recorder.span("kernels.join"):
            return self.inner.count(s_values, t_values, condition)


@dataclass
class ReplayResult:
    """What one traced replay produced, for checking and for the metrics."""

    pairs: np.ndarray
    partitioning: object
    job: JobStats
    copies: int
    seconds: float
    overlap: float


def replay_join(recorder, engine, s, t, condition, workers, rng) -> ReplayResult:
    """Run one cold join step by step under ``recorder`` and return its result.

    ``engine`` supplies the backend, the local algorithm and the load
    weights, exactly as ``engine.join`` would use them; its plan cache is
    not consulted (the op being replayed is the cold one).
    """
    start = time.perf_counter()
    partitioner = RecPartPartitioner(weights=engine.weights)
    algorithm = TracedAlgorithm(engine.algorithm, recorder)
    with recorder.span("plan_cache.key"):
        plan_key(
            s, t, condition, workers, partitioner.name,
            extra=(partitioner.plan_cache_key(), ()),
        )
    with (
        recorder.patched(recpart_module, "draw_input_sample", "sampling.draw_input"),
        recorder.patched(recpart_module, "draw_output_sample", "sampling.draw_output"),
        recorder.span("core.partition"),
    ):
        partitioning = partitioner.partition(s, t, condition, workers, rng=rng)

    if s.storage == "memory" and t.storage == "memory":
        with recorder.span("engine.matrices"):
            s_matrix = s.join_matrix(condition.attributes)
            t_matrix = t.join_matrix(condition.attributes)
        with recorder.span("routing.route"):
            s_routed = route_side(partitioning, s_matrix, "S")
            t_routed = route_side(partitioning, t_matrix, "T")
            offset_step = unit_offset_step(s_matrix, t_matrix, condition)
            tasks = build_worker_tasks(partitioning, s_routed, t_routed, offset_step)
        copies = s_routed.n_copies + t_routed.n_copies
        outcomes, run_seconds = _run(recorder, engine, tasks, s_matrix, t_matrix, condition, algorithm)
        with recorder.span("engine.merge"):
            s_counts = worker_input_counts(partitioning, s_routed)
            t_counts = worker_input_counts(partitioning, t_routed)
            job, pairs = _merge(partitioning, outcomes, s_counts, t_counts, len(s) + len(t))
    else:
        s_source = StoreMatrixSource.from_relation(s, condition.attributes)
        t_source = StoreMatrixSource.from_relation(t, condition.attributes)
        with SpillArena.scratch(engine.spill_dir) as arena:
            with recorder.span("routing.stream_route"):
                tasks, s_counts, t_counts, _ = stream_worker_tasks(
                    partitioning, s_source, t_source, condition, arena, engine.chunk_bytes
                )
            copies = sum(task.n_input for task in tasks)
            outcomes, run_seconds = _run(
                recorder, engine, tasks, s_source, t_source, condition, algorithm
            )
            with recorder.span("engine.merge"):
                job, pairs = _merge(partitioning, outcomes, s_counts, t_counts, len(s) + len(t))
        s_source.release()
        t_source.release()
    busy = sum(outcome.local_seconds for outcome in outcomes)
    return ReplayResult(
        pairs=pairs,
        partitioning=partitioning,
        job=job,
        copies=copies,
        seconds=time.perf_counter() - start,
        overlap=busy / run_seconds if run_seconds > 0 else 0.0,
    )


def replay_metrics(recorder, replays, since: int = 0) -> dict:
    """Return the per-layer metrics a list of replays gives: medians over the
    replays (ops numbered ``since`` or later in ``recorder``)."""
    n = len(replays)

    def seconds(*names):
        totals = recorder.durations(*names, since=since)
        return {"value": median(totals.values()), "samples": n} if totals else None

    def of_replays(value):
        return {"value": median([value(replay) for replay in replays]), "samples": n}

    return {
        "core.partition_s": seconds("core.partition"),
        "core.iterations": of_replays(lambda r: r.partitioning.stats.iterations),
        "core.units": of_replays(lambda r: r.partitioning.n_units),
        "sampling.draw_s": seconds("sampling.draw_input", "sampling.draw_output"),
        "plan_cache.key_s": seconds("plan_cache.key"),
        "routing.route_s": seconds("routing.route"),
        "routing.stream_route_s": seconds("routing.stream_route"),
        "routing.copies": of_replays(lambda r: r.copies),
        "backends.gather_s": seconds("backends.gather"),
        "backends.run_s": seconds("backends.run"),
        "backends.overlap": of_replays(lambda r: r.overlap),
        "kernels.join_s": seconds("kernels.join"),
        "engine.merge_s": seconds("engine.merge"),
    }


def _run(recorder, engine, tasks, s_side, t_side, condition, algorithm):
    """``backend.run`` under a span that adopts the pool threads' spans."""
    with (
        recorder.patched(backends_module, "gather_task_inputs", "backends.gather"),
        recorder.span("backends.run", adopt=True) as span,
    ):
        outcomes = engine.backend.run(tasks, s_side, t_side, condition, algorithm, True)
    return outcomes, span["end"] - span["start"]


def _merge(partitioning, outcomes, s_counts, t_counts, baseline_input):
    """Fold task outcomes into job accounting and one pair array — the work
    ``engine.execute`` does in its ``merge`` step."""
    stats = [
        WorkerStats(worker_id=i, input_s=int(s_counts[i]), input_t=int(t_counts[i]))
        for i in range(partitioning.workers)
    ]
    chunks = []
    for outcome in outcomes:
        worker = stats[outcome.worker_id]
        worker.units += outcome.n_units
        worker.output += outcome.output
        worker.local_seconds += outcome.local_seconds
        if outcome.pairs is not None and outcome.pairs.size:
            chunks.append(outcome.pairs)
    job = JobStats(
        workers=stats,
        total_output=sum(w.output for w in stats),
        baseline_input=baseline_input,
    )
    pairs = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return job, pairs
