"""Concurrent query scheduler: single-flight, admission control.

The scheduler is the serving layer's control plane.  It admits
``(prepared query, epsilons)`` requests and runs each one on the thread that
asked for it: :meth:`QueryScheduler.query` executes on its caller's thread,
and :meth:`QueryScheduler.submit` starts one thread for the request and
returns a future.  Each request runs as one :meth:`PreparedQuery.execute`
under its own deadline — an answer never depends on what else was admitted
with it.  At most ``max_workers`` requests execute at once; the others wait
for a slot in admission order.  Two mechanisms keep heavy traffic efficient:

**Single-flight deduplication** — a request identical to one already waiting
or executing (same prepared-query key, same epsilons) does not start a
second execution; it attaches to the in-flight future and both callers get
the same result.  Under a thundering herd of popular queries only one engine
dispatch runs.

**Admission control** — at most ``max_pending`` requests may be waiting or
executing; beyond that :meth:`QueryScheduler.submit` raises
:class:`~repro.exceptions.ServiceOverloadError` instead of letting queues
grow without bound.  Optionally the scheduler also prices each query by its
cheap sampled output estimate (:meth:`PreparedQuery.estimate_pairs`, powered
by the zero-materialization counting kernels) and rejects queries whose
estimate exceeds ``max_estimated_pairs`` — a runaway band width then fails
fast at submit time instead of holding a slot with an enormous dispatch.

Every request is timed (slot wait, execution, total) and counted per
execution path; :meth:`SchedulerMetrics.snapshot` reports the counters plus
latency percentiles over a sliding window.  Before an answer's future
resolves, the executing thread also accounts the sampled output estimate a
cold answer carries against its pair count (an O(1) step).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.config import DEFAULT_MAX_PENDING, DEFAULT_SCHEDULER_WORKERS
from repro.engine import deadline as deadline_mod
from repro.exceptions import (
    CorruptSegmentError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadError,
)
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    NOOP_SPAN,
    MetricsRegistry,
    get_logger,
    peak_rss_bytes,
    percentile,
    tracer,
)
from repro.service.prepared import PreparedQuery, QueryResult

__all__ = ["QueryScheduler", "SchedulerMetrics"]

logger = get_logger(__name__)

#: Failure causes reported by ``repro_query_failures_total``.
FAILURE_CAUSES = ("overload", "worker_crash", "timeout", "corrupt_segment", "internal")

#: Lifecycle events counted by ``repro_scheduler_events_total``.
EVENTS = ("submitted", "completed", "failed", "deduplicated", "rejected", "degraded")


def _failure_cause(exc: BaseException) -> str:
    """Classify an execution failure for the labeled failure counter."""
    if isinstance(exc, ServiceOverloadError):
        return "overload"
    if isinstance(exc, DeadlineExceededError):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "worker_crash"
    if isinstance(exc, CorruptSegmentError):
        return "corrupt_segment"
    return "internal"


class SchedulerMetrics:
    """Scheduler accounting, backed by an obs :class:`MetricsRegistry`.

    Every counter lives in the registry (``repro_scheduler_*``), so one
    Prometheus scrape of the owning registry sees them, and
    :meth:`snapshot` reads them back.  The peak-RSS gauge is read from the
    process at scrape time.  Exact latency percentiles additionally keep a
    sliding window of samples — registry histograms have fixed buckets, and
    the serving API promised exact p50/p95/p99.
    """

    def __init__(self, window: int = 2048, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._events = self.registry.counter(
            "repro_scheduler_events_total",
            "scheduler lifecycle events (submitted/completed/...)",
        )
        self._paths = self.registry.counter(
            "repro_scheduler_paths_total", "completed requests per execution path"
        )
        self._latency = self.registry.histogram(
            "repro_scheduler_latency_seconds",
            "request latency by stage",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._peak_rss = self.registry.gauge(
            "repro_process_peak_rss_bytes",
            "peak resident set size of the serving process",
        )
        self._peak_rss.set_function(peak_rss_bytes)
        self._failures = self.registry.counter(
            "repro_query_failures_total",
            "request failures classified by cause "
            "(overload/worker_crash/timeout/corrupt_segment/internal)",
        )
        self._degraded = self.registry.counter(
            "repro_degraded_responses_total",
            "requests served from a version-stale cached result under overload",
        )
        self._latencies: deque = deque(maxlen=window)  # (queue_s, exec_s, total_s)

    # -- write paths ---------------------------------------------------- #
    def record_submitted(self) -> None:
        self._events.inc(event="submitted")

    def record_deduplicated(self) -> None:
        self._events.inc(event="deduplicated")

    def record_rejected(self) -> None:
        self._events.inc(event="rejected")
        # Admission rejections are the scheduler's overload failures —
        # classified here even when degraded mode still answers the caller.
        self._failures.inc(cause="overload")

    def record_degraded(self) -> None:
        self._events.inc(event="degraded")
        self._degraded.inc()

    def record(self, path: str, queue_seconds: float, exec_seconds: float) -> None:
        """Record one completed request."""
        self._events.inc(event="completed")
        self._paths.inc(path=path)
        total = queue_seconds + exec_seconds
        self._latency.observe(queue_seconds, stage="queue")
        self._latency.observe(exec_seconds, stage="exec")
        self._latency.observe(total, stage="total")
        with self._lock:
            self._latencies.append((queue_seconds, exec_seconds, total))

    def record_failure(self, cause: str = "internal") -> None:
        self._events.inc(event="failed")
        self._failures.inc(cause=cause)

    def latency_percentiles(self) -> dict:
        """Return p50/p95/p99 of total latency plus mean queue wait (seconds)."""
        with self._lock:
            totals = [total for _, _, total in self._latencies]
            queues = [queue for queue, _, _ in self._latencies]
        return {
            "p50": percentile(totals, 50),
            "p95": percentile(totals, 95),
            "p99": percentile(totals, 99),
            "mean_queue_seconds": sum(queues) / len(queues) if queues else 0.0,
            "samples": len(totals),
        }

    def snapshot(self) -> dict:
        """Return a JSON-friendly summary of every counter."""
        info = {event: int(self._events.value(event=event)) for event in EVENTS}
        info["failures"] = {
            labels.get("cause", ""): int(n) for labels, n in self._failures.items()
        }
        info["paths"] = {labels.get("path", ""): int(n) for labels, n in self._paths.items()}
        info["peak_rss_bytes"] = int(self._peak_rss.value())
        info["latency"] = self.latency_percentiles()
        return info


def _remaining(deadline_at: float | None) -> float | None:
    """Seconds left until a monotonic deadline, at least 0 (``None`` = unbounded)."""
    return None if deadline_at is None else max(0.0, deadline_at - time.monotonic())


def _query_label(prepared) -> str:
    """Human-readable label of a prepared query (tolerates test stubs)."""
    return (
        f"{getattr(prepared, 's_name', '?')}⋈{getattr(prepared, 't_name', '?')}"
    )


def _query_name(prepared) -> str:
    """Capture identity of a prepared query: its registered service name
    when available (replayable), otherwise the human-readable label."""
    return getattr(prepared, "name", None) or _query_label(prepared)


@dataclass
class _Request:
    """One scheduled execution (shared by every deduplicated submitter)."""

    prepared: PreparedQuery
    ekey: tuple
    key: tuple
    future: Future
    submitted_at: float
    started_at: float = 0.0
    submitted_wall: float = 0.0
    span: object = NOOP_SPAN  # telemetry "query" span (NOOP when disabled)
    deadline_at: float | None = None  # monotonic; None = unbounded


class QueryScheduler:
    """Admits prepared-query executions and runs each on its caller's thread.

    Parameters
    ----------
    max_workers:
        Number of queries executing at once (each drives one engine
        dispatch; the engine's own backend parallelizes within a dispatch).
        Further admitted requests wait for a slot in admission order.
    max_pending:
        Admission-control limit on requests waiting or executing.
    max_estimated_pairs:
        Reject queries whose sampled output estimate exceeds this many
        pairs (``None`` disables output-size admission control).
    recorder:
        Optional :class:`~repro.obs.workload.recorder.QueryLogRecorder`;
        when present every request outcome (completed, deduplicated,
        rejected, failed) is captured as a structured workload event.
    calibration:
        Optional :class:`~repro.obs.explain.store.EstimateAccuracyTracker`;
        when present, every answer that carries the sampled estimate of its
        base join is accounted against its pair count on the
        executing thread, before its future resolves (an O(1) step).
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_SCHEDULER_WORKERS,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_estimated_pairs: int | None = None,
        registry: MetricsRegistry | None = None,
        recorder=None,
        calibration=None,
        default_deadline: float | None = None,
        degraded_mode: str = "stale",
        drain_timeout: float = 5.0,
    ) -> None:
        if max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        if max_pending < 1:
            raise ServiceError("max_pending must be at least 1")
        if max_estimated_pairs is not None and max_estimated_pairs < 1:
            raise ServiceError("max_estimated_pairs must be positive when set")
        if default_deadline is not None and default_deadline <= 0:
            raise ServiceError("default_deadline must be positive seconds when set")
        if degraded_mode not in ("stale", "reject"):
            raise ServiceError(
                f"degraded_mode must be 'stale' or 'reject', got {degraded_mode!r}"
            )
        if drain_timeout < 0:
            raise ServiceError("drain_timeout must be non-negative")
        self.max_workers = max_workers
        self.max_pending = max_pending
        self.max_estimated_pairs = max_estimated_pairs
        self.default_deadline = default_deadline
        self.degraded_mode = degraded_mode
        self.drain_timeout = drain_timeout
        self.metrics = SchedulerMetrics(registry=registry)
        self.recorder = recorder
        self.calibration = calibration
        # Capture-template memo: everything about a completed query event
        # except its timings is determined by (query, epsilons, catalog
        # versions) — including the result fingerprint, which would
        # otherwise rehash the whole pair set per cache-served repeat.  Hot
        # repeats therefore capture at the cost of one dict copy.  Reads are
        # unlocked (a plain-dict get is atomic under the GIL); the lock only
        # serializes the insert/evict path.
        self._capture_lock = threading.Lock()
        self._capture_cache: dict[tuple, dict] = {}
        self._lock = threading.Lock()
        # Notified whenever the FIFO's head or the running count changes:
        # waiting requests, close() and wait_idle() all wait on it.
        self._changed = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()  # admitted, waiting for a slot
        self._inflight: dict[tuple, _Request] = {}
        self._running = 0
        self._shutdown = False

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(self, prepared: PreparedQuery, epsilons=None, deadline=None) -> Future:
        """Admit one query and run it on a thread of its own; returns a
        future resolving to a QueryResult.

        Identical in-flight requests share one future (single-flight); a
        full scheduler raises :class:`ServiceOverloadError` immediately, as
        does a query whose sampled output estimate exceeds
        ``max_estimated_pairs``.  The catalog versions at submit time are
        part of the request identity, so a query following an acknowledged
        append never attaches to an execution over the pre-append data.

        ``deadline`` (seconds; falls back to ``default_deadline``) bounds
        the request end to end: a request whose deadline lapses while it
        waits for a slot fails with :class:`DeadlineExceededError`, and the
        remaining budget propagates into execution where backends bound
        their waits by it.

        Under overload with ``degraded_mode="stale"``, a request whose
        epsilon binding has *any* cached result is served from it —
        explicitly marked stale with its version lag — instead of rejected.
        The rejection is still counted (the execution was refused); the
        degraded response is what the caller gets in its place.
        """
        admitted = self._admit(prepared, epsilons, self._resolve_deadline(deadline))
        if isinstance(admitted, Future):
            return admitted
        # Admission bounds these threads by max_pending.
        threading.Thread(
            target=self._run, args=(admitted,), name="bandjoin-query", daemon=True
        ).start()
        return admitted.future

    def query(self, prepared: PreparedQuery, epsilons=None, deadline=None) -> QueryResult:
        """Answer one query on the calling thread.

        Admission is :meth:`submit`'s.  An admitted request waits for a slot
        and executes here; a duplicate of an in-flight request waits for
        that request's answer for at most its own deadline.
        """
        deadline_at = self._resolve_deadline(deadline)
        admitted = self._admit(prepared, epsilons, deadline_at)
        if isinstance(admitted, _Request):
            self._run(admitted)
            return admitted.future.result()
        try:
            return admitted.result(_remaining(deadline_at))
        except FutureTimeoutError:
            raise DeadlineExceededError(
                "deadline expired while waiting for an identical in-flight query"
            ) from None

    def _admit(self, prepared, epsilons, deadline_at) -> "_Request | Future":
        """Admit one request: returns it when it must execute, or the future
        of the in-flight duplicate or degraded answer serving it instead."""
        ekey = prepared.epsilon_key(epsilons)
        key = (prepared.key, ekey, prepared.current_versions())
        priced = self.max_estimated_pairs is None
        while True:  # at most twice: once before and once after pricing
            try:
                with self._lock:
                    existing = self._admit_locked(key)
                    if existing is not None:
                        self._record_outcome(prepared, ekey, "deduplicated")
                        return existing
                    if priced:
                        return self._enqueue_locked(prepared, ekey, key, deadline_at)
            except ServiceOverloadError:
                degraded = self._degraded_future(prepared, ekey)
                if degraded is not None:
                    return degraded
                self._record_outcome(prepared, ekey, "rejected", reason="saturated")
                raise
            # Priced outside the scheduler lock (the probe reads the catalog)
            # and after the saturation check, so overload never pays for
            # probes; a duplicate landing meanwhile is caught by the second pass.
            estimate = prepared.estimate_pairs(ekey)
            if estimate > self.max_estimated_pairs:
                self.metrics.record_rejected()
                logger.info(
                    "rejected %s: estimated %.0f pairs over limit %d",
                    _query_label(prepared), estimate, self.max_estimated_pairs,
                )
                degraded = self._degraded_future(prepared, ekey)
                if degraded is not None:
                    return degraded
                self._record_outcome(prepared, ekey, "rejected", reason="estimated_pairs")
                raise ServiceOverloadError(
                    f"estimated output of ~{estimate:,.0f} pairs exceeds the "
                    f"admission limit of {self.max_estimated_pairs:,} pairs; "
                    "narrow the band or raise max_estimated_pairs"
                )
            priced = True

    def _resolve_deadline(self, deadline) -> float | None:
        """Turn a relative deadline (seconds) into a monotonic timestamp."""
        seconds = deadline if deadline is not None else self.default_deadline
        if seconds is None:
            return None
        seconds = float(seconds)
        if not 0 < seconds < math.inf:
            raise ServiceError("deadline must be positive, finite seconds")
        return time.monotonic() + seconds

    def _degraded_future(self, prepared, ekey) -> Future | None:
        """Under overload, try answering from a version-stale cached result.

        Returns a pre-resolved future holding the stale-marked result, or
        ``None`` when degraded mode is off, the prepared object cannot serve
        stale results (test stubs), or nothing usable is cached — the caller
        then rejects as before.  Correctness note: the result is *marked*
        (``stale``/``version_lag``), never silently passed off as fresh.
        """
        if self.degraded_mode != "stale":
            return None
        stale_fn = getattr(prepared, "stale_result", None)
        if stale_fn is None:
            return None
        try:
            result = stale_fn(ekey)
        except Exception:  # noqa: BLE001 - degrade is best-effort by definition
            return None
        if result is None:
            return None
        self.metrics.record_degraded()
        logger.info(
            "degraded %s: serving stale cached result (version lag %d)",
            _query_label(prepared), result.version_lag,
        )
        self._record_outcome(prepared, ekey, "degraded")
        future: Future = Future()
        future.set_result(result)
        return future

    def _admit_locked(self, key: tuple) -> Future | None:
        """Admission gate (caller holds the lock): returns the in-flight
        future of a duplicate, raises on shutdown or saturation, and returns
        ``None`` when the request may enqueue."""
        if self._shutdown:
            raise ServiceError("scheduler is shut down")
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.record_deduplicated()
            return existing.future
        if len(self._inflight) >= self.max_pending:
            self.metrics.record_rejected()
            logger.info("rejected: scheduler saturated at %d pending", self.max_pending)
            raise ServiceOverloadError(
                f"scheduler is saturated ({self.max_pending} pending queries); "
                "retry once in-flight work drains"
            )
        return None

    def _enqueue_locked(
        self,
        prepared: PreparedQuery,
        ekey: tuple,
        key: tuple,
        deadline_at: float | None = None,
    ) -> _Request:
        """Enqueue an admitted request (caller holds the lock)."""
        request = _Request(
            prepared=prepared,
            ekey=ekey,
            key=key,
            future=Future(),
            submitted_at=time.perf_counter(),
            submitted_wall=time.time(),
            # Root (or, under the server's request span, child) of this
            # request's trace; ended by the executing thread before the
            # future resolves, or on failure/shutdown.
            span=tracer().span("query", query=_query_label(prepared)),
            deadline_at=deadline_at,
        )
        self._inflight[key] = request
        self._queue.append(request)
        self.metrics.record_submitted()
        return request

    # ------------------------------------------------------------------ #
    # Workload capture
    # ------------------------------------------------------------------ #
    def _record_outcome(self, prepared, ekey, outcome: str, reason: str | None = None) -> None:
        """Capture a request that never reached execution (dedup/rejection)."""
        if self.recorder is None:
            return
        self.recorder.record_query(
            query=_query_name(prepared),
            epsilons=ekey,
            outcome=outcome,
            s_name=getattr(prepared, "s_name", "?"),
            t_name=getattr(prepared, "t_name", "?"),
            reason=reason,
        )

    def _capture_template(self, key, prepared, ekey, result: QueryResult) -> dict:
        """Build (and memoize) the static part of a completed-query capture event.

        Memoized per (query, epsilons, result versions): those determine the
        relation row counts, the output size and the content fingerprint.
        The row counts are the ones the answer covers (its lineage), which an
        append landing meanwhile does not change.  The fingerprint reads the
        result's memoized hash sum, which a delta answer was built with (its
        anchor's sum plus its new pairs'), so capturing it is O(1).
        """
        template = {
            "type": "query",
            "query": _query_name(prepared),
            "epsilons": [list(pair) for pair in ekey],
            "outcome": "ok",
            "s": result.s_name,
            "t": result.t_name,
            "s_version": result.s_version,
            "t_version": result.t_version,
            "pairs": result.n_pairs,
            "fingerprint": result.fingerprint(),
        }
        if result.lineage is not None:
            template["s_rows"], template["t_rows"] = result.lineage[2:]
        with self._capture_lock:
            cache = self._capture_cache
            if len(cache) >= 512:
                # Evict the oldest half (insertion order) in one sweep rather
                # than paying LRU bookkeeping on every hot-path hit.
                for old in list(cache)[:256]:
                    del cache[old]
            cache[key] = template
        return template

    def _record_completed(self, request: _Request, result: QueryResult, done: float) -> None:
        """Capture one completed request with its latencies and fingerprint."""
        recorder = self.recorder
        if recorder is None:
            return
        prepared, ekey = request.prepared, request.ekey
        key = (getattr(prepared, "key", None), ekey, result.s_version, result.t_version)
        template = self._capture_cache.get(key)
        if template is None:
            template = self._capture_template(key, prepared, ekey, result)
        recorder.record_completed(
            template,
            request.submitted_wall,
            request.started_at - request.submitted_at,
            done - request.started_at,
            result.path,
        )

    @property
    def pending(self) -> int:
        """Return the number of requests currently waiting or executing."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run(self, request: _Request) -> None:
        """Execute an admitted request on the calling thread once it heads
        the FIFO and fewer than ``max_workers`` requests are running.

        A request whose deadline lapses while it waits leaves the FIFO at
        that deadline and fails fast in :meth:`_execute`; one abandoned by
        :meth:`close` returns with its future already failed.
        """
        with self._lock:
            while not (
                self._queue and self._queue[0] is request and self._running < self.max_workers
            ):
                if request.future.done():  # abandoned by close()
                    return
                remaining = _remaining(request.deadline_at)
                if remaining == 0:
                    break
                self._changed.wait(remaining)
            self._queue.remove(request)  # the head, unless its deadline lapsed
            self._running += 1
            self._changed.notify_all()  # the next request may head the FIFO now
        request.started_at = time.perf_counter()
        try:
            self._execute(request)
        finally:
            with self._lock:
                self._retire_locked(request)
                self._running -= 1
                self._changed.notify_all()

    def _fail_request(self, request: _Request, exc: Exception, cause: str) -> None:
        """Resolve one request's future with a classified failure."""
        self.metrics.record_failure(cause=cause)
        if self.recorder is not None:
            self.recorder.record_query(
                query=_query_name(request.prepared),
                epsilons=request.ekey,
                outcome="failed",
                s_name=getattr(request.prepared, "s_name", "?"),
                t_name=getattr(request.prepared, "t_name", "?"),
                ts=request.submitted_wall,
                error=str(exc),
            )
        request.span.set(error=str(exc))
        request.span.end()
        request.future.set_exception(exc)

    def _execute(self, request: _Request) -> None:
        # A deadline expired while queued fails fast — a slot is never spent
        # computing an answer the caller has already given up on.
        if request.deadline_at is not None and time.monotonic() >= request.deadline_at:
            self._fail_request(
                request, DeadlineExceededError("deadline expired while queued"), "timeout"
            )
            return
        prepared = request.prepared
        if request.span.context is not None:
            tracer().record(
                "queue",
                request.span.context,
                start=request.submitted_wall,
                duration=max(0.0, request.started_at - request.submitted_at),
            )
        exec_span = (
            tracer().span("execute", parent=request.span.context)
            if request.span.context is not None
            else NOOP_SPAN
        )
        try:
            with exec_span, deadline_mod.deadline_scope(request.deadline_at):
                result = prepared.execute(request.ekey)
        except Exception as exc:  # noqa: BLE001 - failures propagate via futures
            cause = _failure_cause(exc)
            logger.warning(
                "query %s failed (%s): %s", _query_label(prepared), cause, exc
            )
            self._fail_request(request, exc, cause)
            return
        done = time.perf_counter()
        exec_seconds = done - request.started_at
        self.metrics.record(
            result.path,
            queue_seconds=request.started_at - request.submitted_at,
            exec_seconds=exec_seconds,
        )
        self._record_completed(request, result, done)
        # Only cold answers carry the sampled estimate of their base join.
        if self.calibration is not None and result.estimated_pairs is not None:
            self.calibration.observe(
                _query_name(prepared), result.estimated_pairs, result.n_pairs
            )
        # Telemetry is finalised before the future resolves: a caller ending
        # the enclosing request span right after .result() must find the
        # "query" span already ended.
        request.span.set(path=result.path)
        request.span.end()
        # A request arriving from now on executes afresh instead of sharing
        # this future, which is resolved below.
        with self._lock:
            self._retire_locked(request)
        request.future.set_result(result)

    def _retire_locked(self, request: _Request) -> None:
        """Drop a finished request from the single-flight table (caller holds
        the lock), unless a newer request of its key already replaced it."""
        if self._inflight.get(request.key) is request:
            del self._inflight[request.key]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is waiting or executing; return ``False``
        if ``timeout`` seconds pass first."""
        with self._lock:
            return self._changed.wait_for(lambda: not (self._queue or self._running), timeout)

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, drain in-flight requests, wait for the
        running ones.

        Shutdown is graceful: new admissions are blocked immediately, but
        waiting and executing requests get up to ``drain_timeout`` seconds
        to finish normally (waiting ones still take free slots).  Whatever
        still waits when the budget runs out fails with
        ``ServiceError("scheduler shut down")``.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            if wait and self.drain_timeout > 0:
                self._changed.wait_for(lambda: not self._inflight, self.drain_timeout)
            abandoned = list(self._queue)
            self._queue.clear()
            for request in abandoned:
                self._inflight.pop(request.key, None)
                request.span.set(error="scheduler shut down")
                request.span.end()
                request.future.set_exception(ServiceError("scheduler shut down"))
            self._changed.notify_all()  # abandoned requests stop waiting
            if wait:
                self._changed.wait_for(lambda: not self._running)

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"QueryScheduler(workers={self.max_workers}, max_pending={self.max_pending})"

