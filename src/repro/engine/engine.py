"""The parallel band-join execution engine.

:class:`ParallelJoinEngine` is the one reduce path of the repository (the map
-> shuffle -> reduce pipeline of paper Figure 5): given a
:class:`~repro.core.partitioner.JoinPartitioning` and two relations it

1. routes both inputs with one vectorised batch-routing pass
   (:mod:`repro.engine.routing`),
2. builds one batched local-join task per worker (the paper's index nested
   loop, :class:`~repro.local_join.IntervalJoin`, unless one is injected),
3. executes the tasks on real hardware through a pluggable backend
   (:mod:`repro.engine.backends` — ``serial``, ``threads`` or
   ``processes``),
4. folds the outcomes into the per-worker
   :class:`~repro.distributed.stats.JobStats` accounting of paper
   Definition 1, from which every metric, table and report is computed, and
5. on request (``verify=``) checks the result against a single-machine
   reference join.

:meth:`ParallelJoinEngine.join` is the query-level entry point: it runs the
optimizer (RecPart by default) through a :class:`~repro.engine.plan_cache.PlanCache`,
so repeated queries over the same data skip the optimization phase entirely.

The planning layer (partitioners) stays wholly separate from the execution
layer (backends): any partitioning can run on any backend, and all backends
produce the exact pair set of the ``serial`` reference.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_WORKERS, LoadWeights
from repro.core.partitioner import JoinPartitioning, Partitioner
from repro.data.relation import Relation
from repro.data.storage import DEFAULT_BLOCK_BYTES, SpillArena
from repro.distributed.stats import JobStats, WorkerStats
from repro.engine.backends import ExecutionBackend, get_backend
from repro.engine.plan_cache import PlanCache
from repro.engine.routing import (
    build_worker_tasks,
    route_side,
    stream_worker_tasks,
    unit_offset_step,
    worker_input_counts,
)
from repro.engine.sources import StoreMatrixSource
from repro.exceptions import ExecutionError
from repro.geometry.band import BandCondition
from repro.local_join import IntervalJoin
from repro.local_join.base import LocalJoinAlgorithm, canonical_pair_order
from repro.obs import get_logger, tracer

logger = get_logger(__name__)


@dataclass
class EngineResult:
    """Outcome of one engine execution.

    Wraps the standard :class:`~repro.distributed.stats.JobStats` per-worker
    accounting (so the paper's measures — ``I``, ``I_m``, ``O_m``, max
    worker load — apply unchanged) plus the engine's real wall-clock
    timings.
    """

    backend: str
    partitioning: JoinPartitioning
    job: JobStats
    weights: LoadWeights
    wall_seconds: float
    routing_seconds: float
    execution_seconds: float
    optimization_seconds: float = 0.0
    plan_from_cache: bool = False
    pairs: np.ndarray | None = None

    @property
    def total_output(self) -> int:
        """Return the total number of output pairs produced."""
        return self.job.total_output

    @property
    def total_input(self) -> int:
        """Return ``I``: total input including duplicates."""
        return self.job.total_input

    @property
    def duplication_ratio(self) -> float:
        """Return the paper's input-duplication overhead."""
        return self.job.duplication_ratio

    @property
    def max_worker_load(self) -> float:
        """Return ``L_m``: the maximum per-worker load."""
        return self.job.max_worker_load(self.weights)

    @property
    def max_worker_input(self) -> int:
        """Return ``I_m``: input of the most loaded worker."""
        return self.job.max_worker_input(self.weights)

    @property
    def max_worker_output(self) -> int:
        """Return ``O_m``: output of the most loaded worker."""
        return self.job.max_worker_output(self.weights)

    @property
    def max_local_seconds(self) -> float:
        """Return the largest per-worker local-join time."""
        return self.job.max_local_seconds

    @property
    def speedup(self) -> float:
        """Return aggregate local-join seconds over backend wall-clock.

        1.0 means no overlap (serial); values approaching the worker count
        mean the backend ran the per-worker joins fully in parallel.
        """
        if self.execution_seconds <= 0:
            return 1.0
        return self.job.total_local_seconds / self.execution_seconds

    def summary(self) -> dict:
        """Return a JSON-friendly summary row (plugs into the metrics reports)."""
        info = self.job.as_dict(self.weights)
        info.update(
            {
                "method": self.partitioning.method,
                "backend": self.backend,
                "wall_seconds": self.wall_seconds,
                "routing_seconds": self.routing_seconds,
                "execution_seconds": self.execution_seconds,
                "optimization_seconds": self.optimization_seconds,
                "plan_from_cache": self.plan_from_cache,
                "speedup": self.speedup,
                "max_local_seconds": self.max_local_seconds,
            }
        )
        return info


class ParallelJoinEngine:
    """Executes distributed band-joins for real through pluggable backends.

    Parameters
    ----------
    backend:
        Backend name (``"serial"``, ``"threads"``, ``"processes"``) or an
        :class:`~repro.engine.backends.ExecutionBackend` instance.
    algorithm:
        Local join algorithm run inside every task; ``None`` runs the paper's
        index nested loop, :class:`~repro.local_join.IntervalJoin`.
    weights:
        Load weights of the per-worker load measures.
    plan_cache:
        Plan cache used by :meth:`join`; a fresh default cache when ``None``.
    max_parallelism:
        Pool-size cap passed to pool-based backends.
    memory_budget:
        Machine-wide byte budget of the local-join kernels' candidate
        buffers; the backend divides it across concurrent tasks.  ``None``
        keeps each kernel's own default.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "threads",
        algorithm: LocalJoinAlgorithm | None = None,
        weights: LoadWeights | None = None,
        plan_cache: PlanCache | None = None,
        max_parallelism: int | None = None,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
        chunk_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        self.backend = get_backend(
            backend, max_workers=max_parallelism, memory_budget=memory_budget
        )
        self.algorithm = algorithm if algorithm is not None else IntervalJoin()
        self.weights = weights if weights is not None else LoadWeights()
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: Root directory of per-join streaming scratch files (``None`` uses
        #: the system temp dir); only touched when a relation is out-of-core.
        self.spill_dir = spill_dir
        #: Byte size of one streamed routing chunk.
        self.chunk_bytes = int(chunk_bytes)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        partitioning: JoinPartitioning,
        materialize: bool = False,
        verify: str = "none",
    ) -> EngineResult:
        """Execute a band-join under an existing partitioning.

        Parameters
        ----------
        materialize:
            Materialise the output pairs (original S/T row indices) on the
            result; otherwise only counts are produced.
        verify:
            ``"none"`` (default), ``"count"`` (total output must match the
            single-machine join) or ``"pairs"`` (full pair-by-pair check,
            which also detects duplicated output; implies materialisation).
            A mismatch raises :class:`~repro.exceptions.ExecutionError`.
        """
        if verify not in ("none", "count", "pairs"):
            raise ExecutionError("verify must be 'none', 'count' or 'pairs'")
        materialize = materialize or verify == "pairs"
        condition.validate_against(s.column_names)
        condition.validate_against(t.column_names)
        wall_start = time.perf_counter()
        with contextlib.ExitStack() as scratch:
            routing_start = time.perf_counter()
            with tracer().span("route", workers=partitioning.workers):
                tasks, s_counts, t_counts, s_side, t_side = self._route(
                    s, t, condition, partitioning, scratch
                )
            routing_seconds = time.perf_counter() - routing_start

            execution_start = time.perf_counter()
            with tracer().span(
                "local_join", backend=self.backend.name, tasks=len(tasks)
            ) as join_span:
                outcomes = self.backend.run(
                    tasks, s_side, t_side, condition, self.algorithm, materialize,
                    trace_ctx=join_span.context,
                )
                for outcome in outcomes:
                    if outcome.spans:
                        tracer().attach(join_span.context, outcome.spans)
            execution_seconds = time.perf_counter() - execution_start

            with tracer().span("merge"):
                job, pairs = self._merge_outcomes(
                    partitioning, outcomes, s_counts, t_counts, materialize,
                    baseline_input=len(s) + len(t),
                )
        wall_seconds = time.perf_counter() - wall_start
        logger.debug(
            "executed %d tasks on %s: output=%d exec=%.4fs route=%.4fs",
            len(tasks), self.backend.name, job.total_output,
            execution_seconds, routing_seconds,
        )
        if verify != "none":
            self._verify(s, t, condition, job, pairs, verify)
        return EngineResult(
            backend=self.backend.name,
            partitioning=partitioning,
            job=job,
            weights=self.weights,
            wall_seconds=wall_seconds,
            routing_seconds=routing_seconds,
            execution_seconds=execution_seconds,
            optimization_seconds=partitioning.stats.optimization_seconds,
            pairs=pairs,
        )

    def _route(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        partitioning: JoinPartitioning,
        scratch: contextlib.ExitStack,
    ) -> tuple:
        """Route both sides into one task per worker.

        Returns ``(tasks, s_counts, t_counts, s_side, t_side)``: the tasks,
        the per-worker deduplicated input counts of paper Definition 1, and
        the two sides as the backend reads them.  The relations' storage
        chooses how.  In memory, the whole join matrices are routed at once.
        When a side is mmap-backed, routing reads each side in bounded
        chunks and spills the per-worker row/offset arrays to a scratch
        arena, and the sides are :class:`StoreMatrixSource` views (segment
        paths, not data), so peak resident memory is bounded by the chunk
        and kernel budgets rather than the relation sizes; ``scratch`` owns
        the arena and the sources' mappings until the join is merged.
        """
        attributes = condition.attributes
        if s.storage == "memory" and t.storage == "memory":
            s_side = s.join_matrix(attributes)
            t_side = t.join_matrix(attributes)
            s_routed = route_side(partitioning, s_side, "S")
            t_routed = route_side(partitioning, t_side, "T")
            tasks = build_worker_tasks(
                partitioning, s_routed, t_routed,
                unit_offset_step(s_side, t_side, condition),
            )
            s_counts = worker_input_counts(partitioning, s_routed)
            t_counts = worker_input_counts(partitioning, t_routed)
            return tasks, s_counts, t_counts, s_side, t_side
        s_side = StoreMatrixSource.from_relation(s, attributes)
        t_side = StoreMatrixSource.from_relation(t, attributes)
        scratch.callback(t_side.release)
        scratch.callback(s_side.release)
        arena = scratch.enter_context(SpillArena.scratch(self.spill_dir))
        tasks, s_counts, t_counts, _ = stream_worker_tasks(
            partitioning, s_side, t_side, condition, arena, self.chunk_bytes
        )
        return tasks, s_counts, t_counts, s_side, t_side

    def _merge_outcomes(
        self,
        partitioning: JoinPartitioning,
        outcomes,
        s_counts: np.ndarray,
        t_counts: np.ndarray,
        materialize: bool,
        baseline_input: int,
    ) -> tuple[JobStats, np.ndarray | None]:
        """Fold task outcomes + routed input counts into job accounting."""
        worker_stats = [WorkerStats(worker_id=i) for i in range(partitioning.workers)]
        for stats in worker_stats:
            stats.input_s = int(s_counts[stats.worker_id])
            stats.input_t = int(t_counts[stats.worker_id])
        pair_chunks: list[np.ndarray] = []
        for outcome in outcomes:
            stats = worker_stats[outcome.worker_id]
            stats.units += outcome.n_units
            stats.output += outcome.output
            stats.local_seconds += outcome.local_seconds
            if materialize and outcome.pairs is not None and outcome.pairs.size:
                pair_chunks.append(outcome.pairs)
        job = JobStats(
            workers=worker_stats,
            total_output=sum(w.output for w in worker_stats),
            baseline_input=baseline_input,
        )
        pairs: np.ndarray | None = None
        if materialize:
            pairs = (
                np.concatenate(pair_chunks)
                if pair_chunks
                else np.empty((0, 2), dtype=np.int64)
            )
        return job, pairs

    @staticmethod
    def _verify(
        s: Relation,
        t: Relation,
        condition: BandCondition,
        job: JobStats,
        pairs: np.ndarray | None,
        verify: str,
    ) -> None:
        """Check the distributed result against a single-machine reference join."""
        reference_algorithm = IntervalJoin()
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        if verify == "count":
            exact = reference_algorithm.count(s_matrix, t_matrix, condition)
            if exact != job.total_output:
                raise ExecutionError(
                    f"distributed output {job.total_output} does not match the "
                    f"single-machine join output {exact}"
                )
            return
        reference = canonical_pair_order(
            reference_algorithm.join(s_matrix, t_matrix, condition)
        )
        produced = canonical_pair_order(pairs)
        if produced.shape != reference.shape or not np.array_equal(produced, reference):
            raise ExecutionError(
                "distributed output pairs do not match the single-machine join "
                f"({produced.shape[0]} produced vs {reference.shape[0]} expected)"
            )

    def join(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int = DEFAULT_WORKERS,
        partitioner: Partitioner | None = None,
        materialize: bool = False,
        rng: np.random.Generator | None = None,
    ) -> EngineResult:
        """Answer one band-join query end to end, reusing cached plans.

        The optimization phase (``partitioner.partition``) only runs when no
        plan for the same (relation contents, condition, worker budget,
        method) is cached; a hit skips it entirely and is visible as
        ``plan_from_cache`` on the result.
        """
        if workers < 1:
            raise ExecutionError("workers must be at least 1")
        if partitioner is None:
            from repro.core.recpart import RecPartPartitioner

            partitioner = RecPartPartitioner(weights=self.weights)
        with tracer().span("plan", workers=workers) as plan_span:
            partitioning, cached = self.plan_cache.get_or_build(
                partitioner, s, t, condition, workers, rng=rng
            )
            plan_span.set(cached=cached, method=partitioning.method)
        result = self.execute(s, t, condition, partitioning, materialize=materialize)
        result.plan_from_cache = cached
        return result

    def __repr__(self) -> str:
        return (
            f"ParallelJoinEngine(backend={self.backend.name!r}, "
            f"algorithm={self.algorithm.name!r})"
        )
