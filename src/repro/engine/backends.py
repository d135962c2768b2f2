"""Pluggable execution backends for the parallel join engine.

A backend takes the per-worker :class:`~repro.engine.routing.WorkerTask`
batch of one join and executes every task's local band-join on real
hardware:

``serial``
    Reference implementation — tasks run one after another in the driver
    process.  Every other backend must produce exactly its pair set.
``threads``
    A ``ThreadPoolExecutor``.  The local join algorithms spend their time in
    numpy kernels, which release the GIL, so worker tasks genuinely overlap
    on multi-core machines without any data transfer at all.
``processes``
    A ``ProcessPoolExecutor`` whose workers are forked per join: they
    inherit the join matrices (in-memory arrays or out-of-core sources) and
    the routed tasks from the driver's memory, so nothing is copied or
    pickled on the way in and a task crosses the process boundary as its
    index.

Backends are stateless; pools live only for the duration of one
:meth:`ExecutionBackend.run` call.
"""

from __future__ import annotations

import abc
import copy
import multiprocessing
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import (
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.data.storage import SpillArena, block_spans, madvise_dontneed
from repro.engine import deadline
from repro.engine.routing import WorkerTask, gather_task_inputs
from repro.exceptions import DeadlineExceededError, ExecutionError
from repro.faults import InjectedWorkerCrash
from repro.geometry.band import BandCondition
from repro.local_join.base import LocalJoinAlgorithm
from repro.local_join.kernels import kernel_scratch
from repro.obs.globals import registry as obs_registry
from repro.obs.globals import tracer
from repro.obs.tracing import SpanContext, span_record

#: Per-side byte size above which an out-of-core task gathers its shifted
#: join matrix into a scratch memory map instead of the heap (and lets the
#: kernels spill their permuted copies the same way).  Only relevant when a
#: side is a matrix *source* — plain in-memory joins never spill.
TASK_SPILL_BYTES: int = 8 * 1024 * 1024

#: Default bound on how many times one lost task is re-executed (and on pool
#: rebuilds per dispatch) before the process backend falls back to in-driver
#: execution.
MAX_TASK_RETRIES: int = 3

#: First retry delay after a worker crash; doubles per crash, capped below.
RETRY_BACKOFF_SECONDS: float = 0.05

#: Upper bound on the exponential retry backoff.
RETRY_BACKOFF_CAP: float = 1.0


def _crash_counter():
    return obs_registry().counter(
        "repro_worker_crashes_total",
        "worker deaths (real or injected) observed by execution backends",
    )


def _retry_counter():
    return obs_registry().counter(
        "repro_task_retries_total",
        "partition tasks re-executed after a worker failure",
    )


def _fallback_counter():
    return obs_registry().counter(
        "repro_backend_fallbacks_total",
        "dispatches completed on a simpler backend after repeated failures",
    )


class _WorkerStall(ExecutionError):
    """No pool progress within the per-task timeout: a worker is hung."""


@dataclass
class TaskOutcome:
    """Result of one executed worker task.

    ``pairs`` holds globally indexed ``(s_row, t_row)`` output pairs when the
    join was materialised, ``None`` otherwise.  ``local_seconds`` times the
    local join itself (gathering the task's input copies is excluded).
    ``spans`` carries plain span-record dicts produced when a trace context
    was propagated into the task — picklable, so they survive the process
    boundary and the engine grafts them onto the live trace afterwards.
    """

    worker_id: int
    n_units: int
    output: int
    local_seconds: float
    pairs: np.ndarray | None = None
    spans: list | None = None


def _side_bytes(source, rows: np.ndarray) -> int:
    width = source.shape[1] if isinstance(source, np.ndarray) else source.width
    return int(rows.size) * int(width) * 8


def _gather_task_side(source, rows: np.ndarray, offsets: np.ndarray, arena) -> np.ndarray:
    """Gather one side's shifted task matrix, spilling large gathers to scratch.

    With an arena, an out-of-core side larger than :data:`TASK_SPILL_BYTES`
    lands in a scratch memory map filled block by block (source and scratch
    pages recycled as the fill advances); otherwise the gather goes to the
    heap exactly as before.
    """
    if isinstance(source, np.ndarray):
        mat = source[rows]
        if mat.shape[0]:
            mat[:, 0] += offsets
        return mat
    if arena is None or _side_bytes(source, rows) <= TASK_SPILL_BYTES:
        mat = source.take(np.asarray(rows))
        if mat.shape[0]:
            mat[:, 0] += offsets
        return mat
    n, width = int(rows.size), source.width
    mat = arena.empty_matrix(float, n, width, prefix="task")
    block_rows = max(1, (4 * 1024 * 1024) // (width * 8))
    source.take_into(mat, rows, block_rows)
    for index, (b0, b1) in enumerate(block_spans(n, block_rows)):
        mat[b0:b1, 0] += offsets[b0:b1]
        if index % 4 == 3:
            madvise_dontneed(mat)
    madvise_dontneed(mat)
    return mat


def execute_task(
    task: WorkerTask,
    s_matrix: np.ndarray,
    t_matrix: np.ndarray,
    condition: BandCondition,
    algorithm: LocalJoinAlgorithm,
    materialize: bool,
    trace_ctx: SpanContext | None = None,
    gathered: tuple[np.ndarray, np.ndarray] | None = None,
) -> TaskOutcome:
    """Run one worker task against the given join matrices.

    Either matrix may be a plain ndarray or a
    :class:`~repro.engine.sources.StoreMatrixSource` over an out-of-core
    relation; large source-backed tasks run with scratch spilling so the
    whole task never needs to fit in memory.  A caller already holding the
    task's shifted ``(S, T)`` inputs passes them as ``gathered``; the
    matrices are then not read, and the pairs still map through the task's
    rows.
    """
    if task.s_rows.size == 0 or task.t_rows.size == 0:
        return TaskOutcome(
            worker_id=task.worker_id,
            n_units=task.n_units,
            output=0,
            local_seconds=0.0,
            pairs=np.empty((0, 2), dtype=np.int64) if materialize else None,
        )
    # Chaos hook: a fired ``task_slow`` point stalls this task before its
    # kernel runs, simulating a straggling worker — keyed so every task of
    # every dispatch draws independently, whatever kernel is selected (the
    # chunk loop's unkeyed hook only covers windowed kernels).
    faults.maybe_slow("task", task.worker_id)
    streamed = not (isinstance(s_matrix, np.ndarray) and isinstance(t_matrix, np.ndarray))
    if gathered is None and streamed and max(
        _side_bytes(s_matrix, task.s_rows), _side_bytes(t_matrix, task.t_rows)
    ) > TASK_SPILL_BYTES:
        with SpillArena() as arena:
            with kernel_scratch(arena, TASK_SPILL_BYTES):
                return _execute_task_inner(
                    task, s_matrix, t_matrix, condition, algorithm, materialize,
                    trace_ctx, arena, None,
                )
    return _execute_task_inner(
        task, s_matrix, t_matrix, condition, algorithm, materialize, trace_ctx, None,
        gathered,
    )


def _execute_task_inner(
    task: WorkerTask,
    s_matrix,
    t_matrix,
    condition: BandCondition,
    algorithm: LocalJoinAlgorithm,
    materialize: bool,
    trace_ctx: SpanContext | None,
    arena,
    gathered,
) -> TaskOutcome:
    task_wall = time.time() if trace_ctx is not None else 0.0
    task_start = time.perf_counter()
    if gathered is not None:
        worker_s, worker_t = gathered
    elif arena is not None:
        worker_s = _gather_task_side(s_matrix, task.s_rows, task.s_offsets, arena)
        worker_t = _gather_task_side(t_matrix, task.t_rows, task.t_offsets, arena)
    else:
        worker_s, worker_t = gather_task_inputs(task, s_matrix, t_matrix)
    join_start = time.perf_counter()
    if materialize:
        local = algorithm.join(worker_s, worker_t, condition)
        local_seconds = time.perf_counter() - join_start
        # Map to original rows in place: one pair array and one column live.
        pairs = np.asarray(local, dtype=np.int64)
        if pairs.shape[0]:
            pairs[:, 0] = task.s_rows[pairs[:, 0]]
            pairs[:, 1] = task.t_rows[pairs[:, 1]]
        output = int(local.shape[0])
    else:
        output = int(algorithm.count(worker_s, worker_t, condition))
        local_seconds = time.perf_counter() - join_start
        pairs = None
    spans = None
    if trace_ctx is not None:
        spans = [
            span_record(
                "task",
                parent=trace_ctx,
                start=task_wall,
                duration=time.perf_counter() - task_start,
                worker_id=task.worker_id,
                units=task.n_units,
                output=output,
                algorithm=getattr(algorithm, "name", type(algorithm).__name__),
                pid=os.getpid(),
            )
        ]
    return TaskOutcome(
        worker_id=task.worker_id,
        n_units=task.n_units,
        output=output,
        local_seconds=local_seconds,
        pairs=pairs,
        spans=spans,
    )


class ExecutionBackend(abc.ABC):
    """Interface of an engine execution backend.

    Backends carry an optional machine-wide ``memory_budget`` (bytes) for
    the local-join kernels' transient candidate buffers.  Before dispatch it
    is divided by the number of concurrently running tasks and bound onto
    the algorithm (:meth:`~repro.local_join.base.LocalJoinAlgorithm.with_memory_budget`),
    so a thread or process pool of size ``p`` allocates at most the single
    budget in aggregate rather than ``p`` times it.
    """

    #: Backend name used in configuration, reports and the CLI.
    name: str = "backend"

    #: Machine-wide kernel candidate-buffer budget in bytes (``None`` leaves
    #: each algorithm's own budget untouched).
    memory_budget: int | None = None

    def _budgeted(
        self, algorithm: LocalJoinAlgorithm, concurrency: int
    ) -> LocalJoinAlgorithm:
        """Bind this backend's per-task budget share onto the algorithm."""
        if self.memory_budget is None:
            return algorithm
        per_task = max(1, self.memory_budget // max(1, concurrency))
        return algorithm.with_memory_budget(per_task)

    @abc.abstractmethod
    def run(
        self,
        tasks: list[WorkerTask],
        s_matrix: np.ndarray,
        t_matrix: np.ndarray,
        condition: BandCondition,
        algorithm: LocalJoinAlgorithm,
        materialize: bool,
        trace_ctx: SpanContext | None = None,
    ) -> list[TaskOutcome]:
        """Execute every task and return the outcomes in task order.

        ``trace_ctx`` optionally identifies the enclosing telemetry span;
        backends pass it into :func:`execute_task` so every task produces a
        child span record (shipped back in :attr:`TaskOutcome.spans`).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _default_parallelism() -> int:
    """Return the number of CPUs available to this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class SerialBackend(ExecutionBackend):
    """Reference backend: tasks run sequentially in the driver process."""

    name = "serial"
    max_workers = 1  # one task at a time: a planned query gains no parallelism

    def __init__(self, memory_budget: int | None = None) -> None:
        if memory_budget is not None and memory_budget < 1:
            raise ExecutionError("memory_budget must be positive")
        self.memory_budget = memory_budget

    def run(
        self, tasks, s_matrix, t_matrix, condition, algorithm, materialize,
        trace_ctx=None,
    ):
        algorithm = self._budgeted(algorithm, concurrency=1)
        outcomes = []
        for task in tasks:
            deadline.check("serial execution")
            outcomes.append(
                execute_task(
                    task, s_matrix, t_matrix, condition, algorithm, materialize,
                    trace_ctx=trace_ctx,
                )
            )
        return outcomes


def _thread_run_task(
    task, index, attempt, allow_crash,
    s_matrix, t_matrix, condition, algorithm, materialize, trace_ctx,
):
    """Run one task on a pool thread, simulating injected worker crashes.

    A fired ``worker_crash`` point raises :class:`InjectedWorkerCrash` (the
    thread-pool stand-in for a process death); the driver retries the task
    with a fresh attempt number.  ``allow_crash=False`` marks the bounded
    retry loop's final attempt, which always runs to completion.
    """
    injector = faults.active()
    if (
        allow_crash
        and injector is not None
        and injector.fire("worker_crash", "threads", index, attempt)
    ):
        raise InjectedWorkerCrash(
            f"injected crash of thread worker on task {index} (attempt {attempt})"
        )
    return execute_task(
        task, s_matrix, t_matrix, condition, algorithm, materialize,
        trace_ctx=trace_ctx,
    )


class ThreadPoolBackend(ExecutionBackend):
    """Thread-pool backend exploiting numpy's GIL release.

    Simulated worker crashes (:class:`InjectedWorkerCrash` raised by a fault
    injector) are retried per task up to :data:`MAX_TASK_RETRIES` times; the
    final attempt runs crash-free, so availability never depends on a lucky
    draw.  An active request deadline bounds the driver's waits.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the number of CPUs available to the process.
    """

    name = "threads"

    def __init__(
        self, max_workers: int | None = None, memory_budget: int | None = None
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExecutionError("max_workers must be positive")
        if memory_budget is not None and memory_budget < 1:
            raise ExecutionError("memory_budget must be positive")
        self.max_workers = max_workers
        self.memory_budget = memory_budget

    def run(
        self, tasks, s_matrix, t_matrix, condition, algorithm, materialize,
        trace_ctx=None,
    ):
        if not tasks:
            return []
        pool_size = min(self.max_workers or _default_parallelism(), len(tasks))
        if pool_size <= 1:
            return SerialBackend(memory_budget=self.memory_budget).run(
                tasks, s_matrix, t_matrix, condition, algorithm, materialize,
                trace_ctx=trace_ctx,
            )
        algorithm = self._budgeted(algorithm, concurrency=pool_size)
        outcomes: dict[int, TaskOutcome] = {}
        pool = ThreadPoolExecutor(max_workers=pool_size)
        try:
            pending = {
                pool.submit(
                    _thread_run_task, task, index, 0, True,
                    s_matrix, t_matrix, condition, algorithm, materialize,
                    trace_ctx,
                ): (index, 0)
                for index, task in enumerate(tasks)
            }
            while pending:
                done, _ = futures_wait(
                    set(pending), timeout=deadline.remaining(),
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    raise DeadlineExceededError(
                        "deadline exceeded waiting on thread-pool tasks"
                    )
                for future in done:
                    index, attempt = pending.pop(future)
                    try:
                        outcomes[index] = future.result()
                    except InjectedWorkerCrash:
                        _crash_counter().inc(backend=self.name)
                        _retry_counter().inc(backend=self.name)
                        next_attempt = attempt + 1
                        if trace_ctx is not None:
                            tracer().record(
                                "task_retry", trace_ctx, start=time.time(),
                                duration=0.0, backend=self.name, task=index,
                                attempt=next_attempt,
                            )
                        pending[
                            pool.submit(
                                _thread_run_task, tasks[index], index,
                                next_attempt, next_attempt < MAX_TASK_RETRIES,
                                s_matrix, t_matrix, condition, algorithm,
                                materialize, trace_ctx,
                            )
                        ] = (index, next_attempt)
            pool.shutdown(wait=False)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        return [outcomes[index] for index in range(len(tasks))]


# Per-process state of the process-pool backend, populated by the pool
# initializer; module-level so the worker function is picklable.
_PROCESS_STATE: dict = {}


def _process_initializer(
    s_matrix,
    t_matrix,
    tasks: list[WorkerTask],
    condition: BandCondition,
    algorithm: LocalJoinAlgorithm,
    materialize: bool,
    trace_ctx: SpanContext | None = None,
    fault_state: tuple | None = None,
) -> None:
    # The pool forks, so these arguments are the driver's own objects,
    # inherited with its memory rather than pickled.
    _PROCESS_STATE["s_matrix"] = s_matrix
    _PROCESS_STATE["t_matrix"] = t_matrix
    _PROCESS_STATE["tasks"] = tasks
    _PROCESS_STATE["condition"] = condition
    _PROCESS_STATE["algorithm"] = algorithm
    _PROCESS_STATE["materialize"] = materialize
    _PROCESS_STATE["trace_ctx"] = trace_ctx
    # Explicit (un)install: with a forked worker the parent's injector is
    # inherited, so the driver's choice must override either way.
    if fault_state is not None:
        rates, seed, slow_seconds = fault_state
        faults.install(faults.FaultInjector(rates, seed=seed, slow_seconds=slow_seconds))
    else:
        faults.uninstall()


def _process_run_task(index: int, attempt: int = 0) -> TaskOutcome:
    injector = faults.active()
    if injector is not None and injector.fire("worker_crash", "processes", index, attempt):
        # Simulated segfault/OOM kill: die without cleanup, exactly like the
        # real thing.  The driver sees BrokenProcessPool and recovers.
        os._exit(17)
    return execute_task(
        _PROCESS_STATE["tasks"][index],
        _PROCESS_STATE["s_matrix"],
        _PROCESS_STATE["t_matrix"],
        _PROCESS_STATE["condition"],
        _PROCESS_STATE["algorithm"],
        _PROCESS_STATE["materialize"],
        trace_ctx=_PROCESS_STATE.get("trace_ctx"),
    )


class ProcessPoolBackend(ExecutionBackend):
    """Process-pool backend over forked workers, with crash recovery.

    The pool is built with the ``fork`` start method, so every worker
    inherits the join matrices (in-memory arrays or out-of-core sources)
    and the routed tasks from the driver's memory; each task is submitted
    as its integer index.  Only the output (pair arrays or counts) crosses
    the process boundary by pickling.

    A worker death (``BrokenProcessPool`` — OOM kill, segfault, injected
    crash) or a hang past ``task_timeout`` loses only the tasks that had not
    completed: the pool is rebuilt and exactly those tasks are re-submitted
    with capped exponential backoff, up to ``max_task_retries`` rounds.
    Past that the dispatch falls back to the thread backend (and, should
    that fail too, to serial) — the query still answers with the identical
    pair set, just slower.  Recovery surfaces through the process-wide
    telemetry (``repro_worker_crashes_total``, ``repro_task_retries_total``,
    ``repro_backend_fallbacks_total``) and ``task_retry`` span events.

    Unlike the threads backend, a pool of size 1 is *not* short-circuited to
    the serial path: running off-process is this backend's semantic (a
    1-thread pool is observationally identical to serial, a 1-process pool
    is not), and silently un-processing it would misreport the backend's
    true overhead in comparisons.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the number of CPUs available to the process.
    task_timeout:
        Seconds without any task completing before the pool is declared
        hung, its workers killed, and the round retried (``None`` disables
        the hang detector).
    max_task_retries:
        Crash/hang rounds tolerated per dispatch before falling back.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: int | None = None,
        memory_budget: int | None = None,
        task_timeout: float | None = None,
        max_task_retries: int = MAX_TASK_RETRIES,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExecutionError("max_workers must be positive")
        if memory_budget is not None and memory_budget < 1:
            raise ExecutionError("memory_budget must be positive")
        if task_timeout is not None and task_timeout <= 0:
            raise ExecutionError("task_timeout must be positive when set")
        if max_task_retries < 0:
            raise ExecutionError("max_task_retries must be non-negative")
        self.max_workers = max_workers
        self.memory_budget = memory_budget
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        #: PIDs of the most recently observed live pool workers (refreshed
        #: while a dispatch runs) — lets chaos tests SIGKILL a real worker.
        self._live_pids: tuple[int, ...] = ()

    @property
    def live_worker_pids(self) -> tuple[int, ...]:
        """Return the worker PIDs observed during the current dispatch."""
        return self._live_pids

    def run(
        self, tasks, s_matrix, t_matrix, condition, algorithm, materialize,
        trace_ctx=None,
    ):
        if not tasks:
            return []
        pool_size = min(self.max_workers or _default_parallelism(), len(tasks))
        algorithm = self._budgeted(algorithm, concurrency=pool_size)
        injector = faults.active()
        fault_state = (
            (injector.rates, injector.seed, injector.slow_seconds)
            if injector is not None
            else None
        )
        initargs = (
            s_matrix, t_matrix, tasks, condition, algorithm, materialize,
            trace_ctx, fault_state,
        )
        outcomes = self._run_with_recovery(tasks, pool_size, initargs, trace_ctx)
        lost = [index for index in range(len(tasks)) if index not in outcomes]
        if lost:
            for index, outcome in zip(
                lost,
                self._run_fallback(
                    [tasks[index] for index in lost], s_matrix, t_matrix,
                    condition, algorithm, materialize, trace_ctx,
                ),
            ):
                outcomes[index] = outcome
        return [outcomes[index] for index in range(len(tasks))]

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def _run_with_recovery(
        self, tasks, pool_size: int, initargs: tuple, trace_ctx
    ) -> dict[int, TaskOutcome]:
        """Execute tasks on (re-built) pools; returns what completed.

        Tasks still missing from the returned mapping after
        ``max_task_retries`` crash/hang rounds are the caller's to run on a
        fallback backend.
        """
        outcomes: dict[int, TaskOutcome] = {}
        crashes = 0
        while len(outcomes) < len(tasks):
            remaining_idx = [i for i in range(len(tasks)) if i not in outcomes]
            pool = ProcessPoolExecutor(
                max_workers=min(pool_size, len(remaining_idx)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_process_initializer,
                initargs=initargs,
            )
            try:
                self._dispatch_round(pool, tasks, remaining_idx, crashes, outcomes)
                # Every future resolved: workers are idle, the join is quick,
                # and waiting joins them so no worker outlives the dispatch.
                pool.shutdown(wait=True)
                break
            except (BrokenProcessPool, _WorkerStall) as exc:
                self._kill_pool(pool)
                crashes += 1
                _crash_counter().inc(backend=self.name)
                lost = [i for i in remaining_idx if i not in outcomes]
                if crashes > self.max_task_retries:
                    _fallback_counter().inc(source=self.name, target="threads")
                    if trace_ctx is not None:
                        tracer().record(
                            "backend_fallback", trace_ctx, start=time.time(),
                            duration=0.0, source=self.name, lost=len(lost),
                            crashes=crashes,
                        )
                    break
                _retry_counter().inc(len(lost), backend=self.name)
                backoff = min(
                    RETRY_BACKOFF_CAP,
                    RETRY_BACKOFF_SECONDS * (2 ** (crashes - 1)),
                )
                budget = deadline.remaining()
                if budget is not None:
                    backoff = min(backoff, budget)
                if trace_ctx is not None:
                    tracer().record(
                        "task_retry", trace_ctx, start=time.time(),
                        duration=0.0, backend=self.name, lost=len(lost),
                        attempt=crashes, backoff_seconds=backoff,
                        cause=type(exc).__name__,
                    )
                if backoff > 0:
                    time.sleep(backoff)
            except BaseException:
                self._kill_pool(pool)
                raise
        return outcomes

    def _dispatch_round(
        self, pool, tasks, remaining_idx, attempt: int, outcomes: dict
    ) -> None:
        """Submit one round of tasks and collect until done, hang or crash."""
        pending = {
            pool.submit(_process_run_task, index, attempt): index
            for index in remaining_idx
        }
        while pending:
            procs = getattr(pool, "_processes", None) or {}
            self._live_pids = tuple(proc.pid for proc in procs.values())
            budget = deadline.remaining()
            timeout = self.task_timeout
            if budget is not None:
                timeout = budget if timeout is None else min(timeout, budget)
            done, _ = futures_wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                remaining_budget = deadline.remaining()
                if remaining_budget is not None and remaining_budget <= 0:
                    self._kill_pool(pool)
                    raise DeadlineExceededError(
                        "deadline exceeded waiting on process-pool tasks"
                    )
                # No completion within the hang window: kill the workers so
                # the lost tasks can retry on a fresh pool.
                raise _WorkerStall(
                    f"no task completed within task_timeout={self.task_timeout}s"
                )
            for future in done:
                index = pending.pop(future)
                outcomes[index] = future.result()

    @staticmethod
    def _kill_pool(pool) -> None:
        """Forcefully tear a (possibly wedged) pool down without waiting."""
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers are fine
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may refuse shutdown
            pass

    def _run_fallback(
        self, tasks, s_matrix, t_matrix, condition, algorithm, materialize,
        trace_ctx,
    ) -> list[TaskOutcome]:
        """Run lost tasks in-driver: threads first, serial as last resort.

        The thread backend's own bounded retry loop absorbs injected
        crashes; the serial pass additionally runs with injection suppressed
        — the recovery chain terminates even at a 100% crash rate.
        """
        try:
            return ThreadPoolBackend(
                max_workers=self.max_workers, memory_budget=self.memory_budget
            ).run(
                tasks, s_matrix, t_matrix, condition, algorithm, materialize,
                trace_ctx=trace_ctx,
            )
        except (InjectedWorkerCrash, BrokenProcessPool):
            _fallback_counter().inc(source="threads", target="serial")
            with faults.suppressed():
                return SerialBackend(memory_budget=self.memory_budget).run(
                    tasks, s_matrix, t_matrix, condition, algorithm,
                    materialize, trace_ctx=trace_ctx,
                )


_BACKEND_FACTORIES = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def available_backends() -> tuple[str, ...]:
    """Return the names of the registered engine backends."""
    return tuple(_BACKEND_FACTORIES)


def get_backend(
    backend: "str | ExecutionBackend",
    max_workers: int | None = None,
    memory_budget: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    An explicit ``memory_budget`` is also honoured for instances: the
    instance is shallow-copied with the budget bound (never mutated — it may
    be shared), so ``ParallelJoinEngine(backend=SomeBackend(), memory_budget=...)``
    caps aggregate kernel allocation exactly like the name-based form.
    """
    if isinstance(backend, ExecutionBackend):
        if memory_budget is not None and backend.memory_budget != memory_budget:
            if memory_budget < 1:
                raise ExecutionError("memory_budget must be positive")
            clone = copy.copy(backend)
            clone.memory_budget = memory_budget
            return clone
        return backend
    try:
        factory = _BACKEND_FACTORIES[backend]
    except KeyError:
        raise ExecutionError(
            f"unknown engine backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    if factory is SerialBackend:
        return factory(memory_budget=memory_budget)
    return factory(max_workers=max_workers, memory_budget=memory_budget)
