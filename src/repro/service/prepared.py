"""Prepared band-join queries with result caching and delta joins.

A :class:`PreparedQuery` binds a catalog relation pair to a band-condition
*template*: the join attributes are fixed at prepare time, the epsilon
widths are parameters supplied per execution.  Execution resolves through
the engine's :class:`~repro.engine.plan_cache.PlanCache` (so the expensive
RecPart optimization runs at most once per (base contents, epsilon)
combination, and only where a plan pays for itself) and through a per-query **result cache** of materialized pair sets keyed by
``(s version, t version, epsilons)`` — appending to either relation bumps
its version, which invalidates every affected result automatically.

The interesting path is the **delta join**.  Every cached result records
its *lineage*: the registrations and the row counts ``(s_rows, t_rows)`` it
answers.  Appends only ever add rows after those and compactions keep every
row at its index, so the newest cached result of the current registrations
is an *anchor* the new answer extends::

    J(S', T')  =  anchor  ∪  J(S'[s_rows:], T')  ∪  J(S'[:s_rows], T'[t_rows:])

Each query therefore joins only the rows appended since its anchor.  The
other side of each term is *probed*, not streamed: a sorted index of its
first join column (one for the base and one for the rows appended to it,
each memoized and extended by the rows added since it was built, so every
row is sorted once) yields the rows inside the new rows' ε-windows, only
those rows are gathered (touching only their pages on mmap storage), and the
two small matrices run as one local join on the calling thread, whose kernel
decides every pair.

The answer is O(delta) too.  A result holds its pairs as a chain of
segments: a delta answer reuses its anchor's segments and appends the new
pairs, merging the two newest segments while the older is at most twice the
newer (so a chain of n pairs has at most 1 + log₂ n segments and every pair
is copied O(log n) times over its lifetime).  Its content hash is the
anchor's plus :func:`~repro.obs.workload.recorder.pair_hash` of the new
pairs, so the workload capture's fingerprint costs O(delta) as well.  A
delta query thus costs O(new rows + new output), not a pass over either
relation or over the answer.  Without an anchor (first query of a
registration, eviction) the base join runs through the plan cache and is
extended the same way.  When a one-attribute base join runs inline it reads
both bases through the same sorted indexes, so each base column is sorted
once per registration, for the cold query and every delta probe after it.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import DEFAULT_RESULT_CACHE_SIZE, DEFAULT_WORKERS, MAX_WORKERS
from repro.core.partitioner import JoinPartitioning
from repro.distributed.stats import JobStats, WorkerStats, merge_job_stats
from repro.engine import backends, deadline
from repro.engine.backends import execute_task
from repro.engine.engine import ParallelJoinEngine
from repro.engine.plan_cache import plan_key
from repro.engine.routing import WorkerTask
from repro.engine.sources import StoreMatrixSource
from repro.exceptions import ServiceError
from repro.geometry.band import BandCondition
from repro.local_join.kernels import stable_argsort
from repro.obs import tracer
from repro.obs.workload.recorder import format_fingerprint, pair_hash
from repro.service.catalog import RelationCatalog, RelationSnapshot

__all__ = [
    "ColdDecision",
    "PriceList",
    "QueryResult",
    "PreparedQuery",
    "PreparedQueryStats",
    "ResultCacheStats",
    "gather_rows",
]

#: Execution paths a query can take, slowest to fastest.
PATH_COLD = "cold"                  # full join: one inline call, or optimize + plan
PATH_PLAN_CACHE = "plan_cache"      # cached plan + full join
PATH_DELTA = "delta"                # cached result + joins of the new rows
PATH_RESULT_CACHE = "result_cache"  # cached materialized result
PATH_STALE = "stale"                # version-stale cached result (degraded mode)


@dataclass(frozen=True)
class QueryResult:
    """Materialized outcome of one prepared-query execution.

    ``segments`` holds globally indexed ``(s_row, t_row)`` output pairs as a
    chain of ``(k, 2)`` arrays; row indices address the *full* relations
    (base rows first, appended rows after, in append order).  A delta answer
    shares its anchor's older segments (see the module doc); :attr:`pairs`
    concatenates the chain on demand, which nothing on the serving path
    needs.  Pair order is unspecified — it depends on the execution path;
    canonicalize with :func:`~repro.local_join.base.canonical_pair_order`
    when comparing.
    """

    segments: tuple[np.ndarray, ...]
    path: str
    s_name: str
    t_name: str
    s_version: int
    t_version: int
    seconds: float
    optimization_seconds: float = 0.0
    #: The base join run for this answer (``None`` on the delta path).
    base_job: JobStats | None = None
    #: The inline local join of the rows appended since (one worker).
    delta_job: JobStats | None = None
    #: Degraded-mode marker: the result answers *older* catalog versions
    #: than current; ``version_lag`` is the summed version distance.
    stale: bool = False
    version_lag: int = 0
    #: ``(s registration, t registration, s rows, t rows)`` the pairs answer;
    #: a later query of the same registrations extends them (see module doc).
    lineage: tuple | None = None
    #: :func:`~repro.obs.workload.recorder.pair_hash` of every pair (mod
    #: 2⁶⁴); a delta answer is built with its anchor's plus the new pairs'.
    pair_sum: int | None = None
    #: The base join ran as one inline kernel call, not under a plan
    #: (``base_job`` is then a one-worker job).
    inline: bool = False
    #: The sampled output estimate the cold decision priced this answer's
    #: base join with; ``None`` when no estimate decided it (delta, cached).
    estimated_pairs: float | None = None

    @property
    def pairs(self) -> np.ndarray:
        """Return every pair as one ``(n, 2)`` array (concatenated on demand)."""
        if len(self.segments) == 1:
            return self.segments[0]
        if not self.segments:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(self.segments)

    def hash_sum(self) -> int:
        """Return :attr:`pair_sum`, hashing the segments on first use."""
        if self.pair_sum is None:
            total = sum(pair_hash(segment) for segment in self.segments) % 2**64
            object.__setattr__(self, "pair_sum", total)
        return self.pair_sum

    def fingerprint(self) -> str:
        """Return :func:`~repro.obs.workload.recorder.pair_fingerprint` of
        the pairs, from the memoized hash sum: O(1) after the first call."""
        return format_fingerprint(self.n_pairs, self.hash_sum())

    @property
    def job(self) -> JobStats | None:
        """Return the accounting of everything this answer executed."""
        jobs = [job for job in (self.base_job, self.delta_job) if job is not None]
        return merge_job_stats(jobs) if jobs else None

    @property
    def n_pairs(self) -> int:
        """Return the number of output pairs."""
        return sum(len(segment) for segment in self.segments)

    def describe(self, sample: int = 0) -> dict:
        """Return a JSON-friendly summary (optionally with sample pairs)."""
        info = {
            "pairs": self.n_pairs,
            "path": self.path,
            "s": {"name": self.s_name, "version": self.s_version},
            "t": {"name": self.t_name, "version": self.t_version},
            "seconds": self.seconds,
            "optimization_seconds": self.optimization_seconds,
        }
        if self.stale:
            info["stale"] = True
            info["version_lag"] = self.version_lag
        if sample > 0:
            head = []
            for segment in self.segments:
                head.extend(segment[: sample - len(head)].tolist())
                if len(head) >= sample:
                    break
            info["sample"] = head
        return info


@dataclass
class PriceList:
    """The last measured prices a cold query is decided with.

    One list is shared by all prepared queries of a service.  It holds two
    kinds of number, each simply the last measurement:

    ``seconds_per_load`` (κ)
        Σ local-join seconds ÷ Σ load (β_in·input + β_out·output, the
        engine's :class:`~repro.config.LoadWeights`) over the tasks of the
        last cold execution, inline or planned.  Delta joins are too small
        to give a good rate and do not update it.
    ``plan_seconds`` (P)
        Optimization plus routing seconds of the last plan built per
        ``(partitioner.plan_cache_key(), workers, d)``.
    """

    seconds_per_load: float | None = None
    plan_seconds: dict = field(default_factory=dict)

    def record_rate(self, job: JobStats, weights) -> None:
        """Take κ from the tasks of one executed job (kept when it had no load)."""
        load = float(job.worker_loads(weights).sum())
        if load > 0:
            self.seconds_per_load = job.total_local_seconds / load


@dataclass(frozen=True)
class ColdDecision:
    """How the base join of a query without an anchor runs, and why.

    ``plan`` is the cached plan when there is one, which always runs.
    Otherwise the join goes ``inline`` (one kernel call on the calling
    thread) when ``parallelism`` p is 1, or when the plan's price
    κ·L/p + P is known and not below the inline price κ·L, where L is the
    load of both bases and ``estimated_pairs``, the sampled output estimate.
    The prices are ``None`` when a number they need was never measured.
    """

    inline: bool
    parallelism: int
    estimated_pairs: float
    inline_seconds: float | None = None
    plan_seconds: float | None = None
    plan: JoinPartitioning | None = None


@dataclass
class ResultCacheStats:
    """Accounting of one prepared query's materialized-result cache.

    ``hits``/``misses`` count execute-path lookups, ``stores`` inserts,
    ``evictions`` capacity drops, and ``invalidations`` entries dropped by
    :meth:`PreparedQuery.invalidate` or superseded by a store of the same
    epsilons at newer catalog versions.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class PreparedQueryStats:
    """Per-path execution counters of one prepared query."""

    executions: int = 0
    cold: int = 0
    plan_cached: int = 0
    delta: int = 0
    result_cached: int = 0

    def record(self, path: str) -> None:
        """Count one execution of the given path."""
        self.executions += 1
        if path == PATH_COLD:
            self.cold += 1
        elif path == PATH_PLAN_CACHE:
            self.plan_cached += 1
        elif path == PATH_DELTA:
            self.delta += 1
        elif path == PATH_RESULT_CACHE:
            self.result_cached += 1

    def as_dict(self) -> dict:
        return {
            "executions": self.executions,
            "cold": self.cold,
            "plan_cached": self.plan_cached,
            "delta": self.delta,
            "result_cached": self.result_cached,
        }


class PreparedQuery:
    """A parameterized band-join over two catalog relations.

    Parameters
    ----------
    catalog / engine:
        The shared relation catalog and execution engine (the engine's plan
        cache is the one amortizing optimization across queries).
    s_name / t_name:
        Catalog names of the S- and T-side relations.
    attributes:
        Join attributes (the band-condition template's dimensions).
    default_epsilons:
        Optional default band widths used when an execution passes none.
    workers:
        Partition-worker budget of the optimized plans.
    partitioner:
        Optimizer used when a cold query plans (RecPart by default).
    result_cache_size:
        LRU capacity of the materialized-result cache.
    prices:
        The :class:`PriceList` cold queries are decided with (a service
        shares one across its prepared queries); a fresh one when ``None``.
    """

    def __init__(
        self,
        catalog: RelationCatalog,
        engine: ParallelJoinEngine,
        s_name: str,
        t_name: str,
        attributes: Sequence[str],
        default_epsilons=None,
        workers: int = DEFAULT_WORKERS,
        partitioner=None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        prices: PriceList | None = None,
    ) -> None:
        if not attributes:
            raise ServiceError("a prepared query needs at least one join attribute")
        if not 1 <= workers <= MAX_WORKERS:
            raise ServiceError(f"workers must be between 1 and {MAX_WORKERS}")
        if result_cache_size < 1:
            raise ServiceError("result_cache_size must be at least 1")
        self.catalog = catalog
        self.engine = engine
        self.s_name = s_name
        self.t_name = t_name
        self.attributes = tuple(attributes)
        self.workers = int(workers)
        if partitioner is None:
            from repro.core.recpart import RecPartPartitioner

            partitioner = RecPartPartitioner(weights=engine.weights)
        self.partitioner = partitioner
        self.prices = prices if prices is not None else PriceList()
        self._plan_config = partitioner.plan_cache_key()
        #: Key of this query's plan price P in ``prices.plan_seconds``.
        self.price_key = (self._plan_config, self.workers, len(self.attributes))
        self.result_cache_size = result_cache_size
        self.default_epsilons = (
            None if default_epsilons is None else self._normalize(default_epsilons)
        )
        self.stats = PreparedQueryStats()
        self.result_cache_stats = ResultCacheStats()
        #: Stable identity used by the scheduler for single-flight dedup:
        #: equal keys answer from the same caches.
        self.key = (s_name, t_name, self.attributes, self.workers, partitioner.name)
        #: Service-registered query name (set by BandJoinService.prepare);
        #: the workload capture records it as the replayable query identity.
        self.name: str | None = None
        self._lock = threading.Lock()
        self._results: OrderedDict = OrderedDict()  # (sv, tv, ekey) -> QueryResult
        # relation -> (registration, base version, sorted values, row ids),
        # of the base and of the appended rows
        self._sorted_index: dict = {}
        self._delta_index: dict = {}
        self._sampled_estimates: OrderedDict = OrderedDict()  # (sv, tv, ekey, k) -> float
        # Validate the schema eagerly so prepare() fails fast.
        for name in (s_name, t_name):
            snapshot = catalog.get(name)
            missing = [a for a in self.attributes if a not in snapshot.base]
            if missing:
                raise ServiceError(
                    f"relation {name!r} is missing join attributes {missing}"
                )

    # ------------------------------------------------------------------ #
    # Epsilon template binding
    # ------------------------------------------------------------------ #
    def _normalize(self, epsilons) -> tuple[tuple[float, float], ...]:
        """Normalize an epsilon specification to per-attribute (left, right) pairs."""
        d = len(self.attributes)
        if isinstance(epsilons, Mapping):
            missing = [a for a in self.attributes if a not in epsilons]
            if missing:
                raise ServiceError(f"epsilons missing for attributes {missing}")
            values = [epsilons[a] for a in self.attributes]
        elif isinstance(epsilons, numbers.Real):
            values = [epsilons] * d
        elif isinstance(epsilons, (str, bytes)) or not isinstance(epsilons, Iterable):
            raise ServiceError(
                f"epsilons must be a number, a sequence or a mapping, got {epsilons!r}"
            )
        else:
            values = list(epsilons)
            if len(values) != d:
                raise ServiceError(
                    f"expected {d} epsilon values (one per attribute), got {len(values)}"
                )
        pairs: list[tuple[float, float]] = []
        for value in values:
            if isinstance(value, (tuple, list)):
                if len(value) != 2:
                    raise ServiceError("asymmetric epsilons must be (left, right) pairs")
                pairs.append((_epsilon(value[0]), _epsilon(value[1])))
            else:
                pairs.append((_epsilon(value), _epsilon(value)))
        return tuple(pairs)

    def resolve_epsilons(self, epsilons=None) -> tuple[tuple[float, float], ...]:
        """Return the normalized epsilons of one execution (defaults applied)."""
        if epsilons is None:
            if self.default_epsilons is None:
                raise ServiceError(
                    f"prepared query {self.key} has no default epsilons; pass some"
                )
            return self.default_epsilons
        return self._normalize(epsilons)

    def condition(self, epsilons=None) -> BandCondition:
        """Bind the template to a concrete band condition."""
        pairs = self.resolve_epsilons(epsilons)
        return BandCondition(
            {a: (left, right) for a, (left, right) in zip(self.attributes, pairs)}
        )

    def epsilon_key(self, epsilons=None) -> tuple:
        """Return the hashable cache-key form of one epsilon binding."""
        return self.resolve_epsilons(epsilons)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def snapshots(self) -> tuple[RelationSnapshot, RelationSnapshot]:
        """Return a consistent (S, T) snapshot pair for one execution."""
        return self.catalog.get(self.s_name), self.catalog.get(self.t_name)

    def current_versions(self) -> tuple[int, int]:
        """Return the catalog content versions the query would answer over.

        The scheduler folds these into its single-flight key so a request
        submitted *after* an acknowledged append never attaches to an
        in-flight execution over the pre-append data (read-your-writes).
        """
        return self.catalog.get(self.s_name).version, self.catalog.get(self.t_name).version

    def execute(self, epsilons=None) -> QueryResult:
        """Answer the query, taking the cheapest valid path.

        In order of preference: the materialized-result cache, the delta
        path (the newest cached result on the current base lineage extended
        by the rows appended since), and otherwise the base join under a
        cached plan or, on a plan-cache miss, the cold path (one inline
        kernel call or optimize-then-join, as :meth:`cold_decision`
        prices them), extended by the appended rows.
        """
        start = time.perf_counter()
        s_snap, t_snap = self.snapshots()
        ekey = self.epsilon_key(epsilons)
        full_key = (s_snap.version, t_snap.version, ekey)
        with self._lock:
            hit = self._results.get(full_key)
            if hit is not None:
                self._results.move_to_end(full_key)
                self.result_cache_stats.hits += 1
            else:
                self.result_cache_stats.misses += 1
                anchor = self._anchor(s_snap, t_snap, ekey)
        if hit is not None:
            self.stats.record(PATH_RESULT_CACHE)
            return replace(
                hit, path=PATH_RESULT_CACHE, seconds=time.perf_counter() - start,
                estimated_pairs=None,
            )

        condition = self.condition(ekey)
        if anchor is not None:
            path, optimization_seconds, base_job, decision = PATH_DELTA, 0.0, None, None
            segments, total, (s_rows, t_rows) = (
                anchor.segments, anchor.hash_sum(), anchor.lineage[2:]
            )
        else:
            path, optimization_seconds, pairs, base_job, decision = self._base_join(
                s_snap, t_snap, ekey, condition
            )
            segments, total = _chain((), pairs), pair_hash(pairs)
            s_rows, t_rows = len(s_snap.base), len(t_snap.base)
        chunks, delta_jobs = [], []
        # J(S'[s_rows:], T')  and  J(S'[:s_rows], T'[t_rows:]).
        for new, new_start, other, other_stop, probe_s in (
            (s_snap, s_rows, t_snap, t_snap.rows, True),
            (t_snap, t_rows, s_snap, s_rows, False),
        ):
            if new_start < new.rows:
                pairs, job = self._probe(new, new_start, other, other_stop, probe_s, condition)
                chunks.append(pairs)
                delta_jobs.append(job)
        if chunks:
            new = np.concatenate(chunks)
            segments, total = _chain(segments, new), (total + pair_hash(new)) % 2**64
        result = QueryResult(
            segments=segments,
            path=path,
            s_name=self.s_name,
            t_name=self.t_name,
            s_version=s_snap.version,
            t_version=t_snap.version,
            seconds=time.perf_counter() - start,
            optimization_seconds=optimization_seconds,
            base_job=base_job,
            delta_job=merge_job_stats(delta_jobs) if delta_jobs else None,
            lineage=(s_snap.registration, t_snap.registration, s_snap.rows, t_snap.rows),
            pair_sum=total,
            inline=decision is not None and decision.inline,
            estimated_pairs=None if decision is None else decision.estimated_pairs,
        )
        self.store_result(ekey, result)
        self.stats.record(result.path)
        return result

    def _base_join(self, s_snap, t_snap, ekey, condition) -> tuple:
        """Join the two bases; returns ``(path, optimization seconds, pairs,
        job, cold decision)``.  A cold execution leaves its measurements in
        the prices: κ always, P when it built a plan."""
        with tracer().span("decide", workers=self.workers) as span:
            decision = self.cold_decision(ekey, (s_snap, t_snap))
            span.set(inline=decision.inline, cached=decision.plan is not None)
        s, t = s_snap.base, t_snap.base
        weights = self.engine.weights
        if decision.plan is not None:
            base = self.engine.execute(s, t, condition, decision.plan, materialize=True)
            self.prices.record_rate(base.job, weights)
            return PATH_PLAN_CACHE, 0.0, base.pairs, base.job, decision
        if decision.inline:
            pairs, job = self._inline_base_join(s_snap, t_snap, condition)
            self.prices.record_rate(job, weights)
            return PATH_COLD, 0.0, pairs, job, decision
        base = self.engine.join(
            s, t, condition,
            workers=self.workers, partitioner=self.partitioner, materialize=True,
        )
        self.prices.record_rate(base.job, weights)
        if base.plan_from_cache:  # another thread built it meanwhile
            return PATH_PLAN_CACHE, 0.0, base.pairs, base.job, decision
        self.record_plan_seconds(base.optimization_seconds + base.routing_seconds)
        return PATH_COLD, base.optimization_seconds, base.pairs, base.job, decision

    def record_plan_seconds(self, seconds: float) -> None:
        """Keep the seconds a new plan of this query took to build as its P."""
        self.prices.plan_seconds[self.price_key] = seconds

    def _inline_base_join(self, s_snap, t_snap, condition) -> tuple[np.ndarray, JobStats]:
        """Join the two bases as one task on the calling thread.

        At d = 1 the task reads both bases in the order of their memoized
        sort indexes: the sorted values are the whole input, so no row is
        gathered and the kernel sorts neither side.  The same indexes then
        serve every delta probe of these registrations.
        """
        snaps = (s_snap, t_snap)
        if len(self.attributes) == 1:
            indexes = [self._sorted_first_column(snap) for snap in snaps]
            return self._inline_join(
                *(rows for _, rows in indexes), condition,
                gathered=tuple(values[:, None] for values, _ in indexes),
            )
        sides = [
            snap.base.join_matrix(self.attributes)
            if snap.base.storage == "memory"
            else StoreMatrixSource.from_relation(snap.base, self.attributes)
            for snap in snaps
        ]
        try:
            return self._inline_join(
                *(np.arange(side.shape[0]) for side in sides), condition, matrices=sides
            )
        finally:
            for side in sides:
                if isinstance(side, StoreMatrixSource):
                    side.release()

    def cold_decision(self, epsilons=None, snapshots=None) -> ColdDecision:
        """Decide how the base join of one epsilon binding runs when no
        cached result anchors it (see :class:`ColdDecision`).

        ``p`` is ``min(workers, pool size)``, the pool size being the
        backend's ``max_workers`` or else the CPUs available to the process.
        A plan-cache lookup is counted only when it hits.
        """
        ekey = self.epsilon_key(epsilons)
        snapshots = snapshots or self.snapshots()
        s_snap, t_snap = snapshots
        pool = getattr(self.engine.backend, "max_workers", None)
        p = min(self.workers, pool or backends._default_parallelism())
        estimate = self.sampled_estimate(ekey, snapshots=snapshots)
        kappa = self.prices.seconds_per_load
        inline_seconds = plan_seconds = None
        if kappa is not None:
            load = self.engine.weights.load(len(s_snap.base) + len(t_snap.base), estimate)
            inline_seconds = kappa * load
            known = self.prices.plan_seconds.get(self.price_key)
            if known is not None:
                plan_seconds = inline_seconds / p + known
        prices = dict(
            parallelism=p, estimated_pairs=estimate,
            inline_seconds=inline_seconds, plan_seconds=plan_seconds,
        )
        if p == 1:
            return ColdDecision(inline=True, **prices)
        key = plan_key(
            s_snap.base, t_snap.base, self.condition(ekey), self.workers,
            self.partitioner.name, extra=(self._plan_config, ()),
        )
        plan = self.engine.plan_cache.get(key, count_miss=False)
        inline = plan is None and plan_seconds is not None and inline_seconds <= plan_seconds
        return ColdDecision(inline=inline, plan=plan, **prices)

    def _anchor(self, s_snap, t_snap, ekey) -> QueryResult | None:
        """Return the newest cached result the snapshots extend (lock held):
        same epsilons, same registrations on both sides, no more rows."""
        best = None
        for (_, _, key), result in self._results.items():
            lineage = result.lineage
            if (
                key == ekey
                and lineage is not None
                and lineage[:2] == (s_snap.registration, t_snap.registration)
                and lineage[2] <= s_snap.rows
                and lineage[3] <= t_snap.rows
                and (best is None or sum(lineage[2:]) > sum(best.lineage[2:]))
            ):
                best = result
        return best

    def _probe(self, new, new_start, other, other_stop, probe_s, condition):
        """Join rows ``[new_start:]`` of ``new`` against rows ``[:other_stop]``
        of ``other`` (``probe_s``: ``new`` is the S side) in one local join on
        the calling thread; returns ``(global pairs, one-worker job)``.

        Only the other side's rows whose first join attribute lies in a new
        row's ε-window are gathered; the kernel decides every pair.  Either
        range may reach into the base, where a compaction moved appended rows.
        """
        attributes = self.attributes
        new_matrix = _join_rows(new, attributes, new_start, new.rows)
        lo, hi = condition.epsilon_range(new_matrix, around="s" if probe_s else "t")
        lo, hi = np.sort(lo[:, 0]), np.sort(hi[:, 0])
        # Widen every window by a few ulps of the largest magnitude involved:
        # the kernel may round ``x ± ε`` the other way, so the probe must
        # gather a superset and leave the edge decision to the kernel.
        pad = 4 * np.spacing(max(abs(lo[0]), abs(lo[-1]), abs(hi[0]), abs(hi[-1])))
        n_base = len(other.base)
        sources = [(other.base, 0, *self._sorted_first_column(other))]
        if other_stop > n_base:
            sources.append((other.delta, n_base, *self._sorted_delta_column(other, other_stop)))
        parts, ids = [], []
        for relation, offset, values, order in sources:
            rows = np.sort(order[_window_positions(values, lo - pad, hi + pad)])
            rows = rows[: np.searchsorted(rows, other_stop - offset)]
            parts.append(gather_rows(relation, attributes, rows))
            ids.append(offset + rows)
        sides = [
            (new_matrix, np.arange(new_start, new.rows)),
            (np.concatenate(parts), np.concatenate(ids)),
        ]
        (s_matrix, s_ids), (t_matrix, t_ids) = sides if probe_s else sides[::-1]
        return self._inline_join(s_ids, t_ids, condition, gathered=(s_matrix, t_matrix))

    def _inline_join(
        self, s_rows, t_rows, condition, matrices=(None, None), gathered=None
    ) -> tuple[np.ndarray, JobStats]:
        """Join rows ``s_rows`` of S with rows ``t_rows`` of T as one task on
        the calling thread; returns ``(pairs of those row ids, one-worker
        job)``.  The rows are read from ``matrices`` (arrays or out-of-core
        :class:`StoreMatrixSource` views of the whole relations), or were
        already ``gathered`` into one join matrix per side."""
        n_s, n_t = len(s_rows), len(t_rows)
        # One unit, labelled 0: the labels are grouped, so nothing is reordered.
        task = WorkerTask(0, 1, s_rows, np.zeros(n_s, np.int64), t_rows, np.zeros(n_t, np.int64))
        algorithm = self.engine.backend._budgeted(self.engine.algorithm, concurrency=1)
        deadline.check("inline join")
        with tracer().span("local_join", backend="inline", tasks=1) as span:
            outcome = execute_task(
                task, *matrices, condition, algorithm, True, span.context, gathered=gathered
            )
            tracer().attach(span.context, outcome.spans or [])
        worker = WorkerStats(0, n_s, n_t, outcome.output, 1, outcome.local_seconds)
        return outcome.pairs, JobStats(
            [worker], total_output=outcome.output, baseline_input=n_s + n_t
        )

    def _sorted_first_column(self, snap) -> tuple[np.ndarray, np.ndarray]:
        """Return the base's first join column sorted, with its row ids
        (memoized per relation and base version, built on first use).

        A compaction keeps every row at its index, so the index of an older
        base of the same registration covers a prefix of this one: only the
        rows merged in since are sorted into it.
        """
        entry = self._sorted_index.get(snap.name)
        if entry is None or entry[:2] != (snap.registration, snap.base_version):
            prefix = entry is not None and entry[0] == snap.registration
            if prefix and len(entry[3]) <= len(snap.base):
                values, rows = entry[2:]
            else:
                values, rows = np.empty(0), np.empty(0, dtype=np.intp)
            column = _join_rows(snap, self.attributes[:1], len(rows), len(snap.base))[:, 0]
            entry = (snap.registration, snap.base_version, *_extend_index(values, rows, column))
            # Rebinding, never mutating, keeps readers on other threads safe.
            self._sorted_index = {**self._sorted_index, snap.name: entry}
        return entry[2:]

    def _sorted_delta_column(self, snap, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the first join column of the appended rows sorted, with
        their row ids relative to the delta, covering at least rows
        ``[len(base), stop)`` (memoized per relation and base version).

        Appends only add rows after the memoized ones, so only those are
        sorted into the index.  It may cover rows past ``stop`` (a newer
        snapshot built it); the caller drops those.
        """
        n_base = len(snap.base)
        entry = self._delta_index.get(snap.name)
        if entry is None or entry[:2] != (snap.registration, snap.base_version):
            entry = (
                snap.registration, snap.base_version, np.empty(0), np.empty(0, dtype=np.intp)
            )
        if n_base + len(entry[3]) < stop:
            column = _join_rows(snap, self.attributes[:1], n_base + len(entry[3]), stop)[:, 0]
            entry = (*entry[:2], *_extend_index(*entry[2:], column))
            self._delta_index = {**self._delta_index, snap.name: entry}
        return entry[2:]

    def __call__(self, epsilons=None) -> QueryResult:
        return self.execute(epsilons)

    # ------------------------------------------------------------------ #
    # Cheap cardinality paths (admission control, capacity planning)
    # ------------------------------------------------------------------ #
    def estimate_pairs(self, epsilons=None, sample_size: int | None = None) -> float:
        """Cheaply estimate the output cardinality of one epsilon binding.

        A cached materialized result for the current catalog versions gives
        the exact count; otherwise the memoized sampled probe of
        :meth:`sampled_estimate` gives the order of magnitude without
        touching the engine.  The scheduler's admission control prices
        queries with this before enqueueing them.
        """
        s_snap, t_snap = self.snapshots()
        ekey = self.epsilon_key(epsilons)
        with self._lock:
            hit = self._results.get((s_snap.version, t_snap.version, ekey))
        if hit is not None:
            return float(hit.n_pairs)
        return self.sampled_estimate(ekey, sample_size)

    def sampled_estimate(
        self, epsilons=None, sample_size: int | None = None, snapshots=None
    ) -> float:
        """Return the purely sampled output-cardinality estimate.

        Unlike :meth:`estimate_pairs` this never consults the result cache —
        it is what the *planner believed* before execution: the cold decision
        prices with it, and EXPLAIN ANALYZE and the estimate-accuracy tracker
        compare actuals against it (otherwise an analyzed run whose result
        was just stored would report a tautological q-error of 1.0).

        The probe (a band-selectivity estimate over evenly spaced row samples
        — one ``searchsorted`` pair per dimension) is memoized per
        ``(s version, t version, epsilons, sample size)``, so repeated
        admission-control or explain calls against unchanged relations pay
        the sampling cost once.  ``snapshots`` is the ``(S, T)`` snapshot
        pair to estimate over instead of the current one.
        """
        from repro.sampling.selectivity import (
            DEFAULT_SELECTIVITY_SAMPLE,
            estimate_join_selectivity,
        )

        s_snap, t_snap = snapshots or self.snapshots()
        ekey = self.epsilon_key(epsilons)
        k = sample_size if sample_size is not None else DEFAULT_SELECTIVITY_SAMPLE
        memo_key = (s_snap.version, t_snap.version, ekey, k)
        with self._lock:
            cached = self._sampled_estimates.get(memo_key)
            if cached is not None:
                self._sampled_estimates.move_to_end(memo_key)
                return cached
        condition = self.condition(ekey)
        # Gather only the sampled rows — never the full (n, d) join matrices;
        # the probe must stay O(k log k) however large the relations grow.
        s_sample = sampled_join_matrix(s_snap, self.attributes, k)
        t_sample = sampled_join_matrix(t_snap, self.attributes, k)
        selectivity = estimate_join_selectivity(s_sample, t_sample, condition, k)
        estimate = selectivity * s_snap.rows * t_snap.rows
        # The estimate is a pair count; the divide-then-multiply round trip
        # through the selectivity leaves ulp-level noise on what is an exact
        # integer when the probe sampled the relations in full.  Snap it so
        # the deterministic case reports a q-error of exactly 1.0.
        nearest = round(estimate)
        if math.isclose(estimate, nearest, rel_tol=1e-12, abs_tol=0.0):
            estimate = float(nearest)
        with self._lock:
            self._sampled_estimates[memo_key] = estimate
            self._sampled_estimates.move_to_end(memo_key)
            while len(self._sampled_estimates) > self.result_cache_size:
                self._sampled_estimates.popitem(last=False)
        return estimate

    def explain(self, epsilons=None, analyze: bool = False, execute=None):
        """Return the :class:`~repro.obs.explain.report.QueryPlanReport`.

        Plain EXPLAIN plans without executing; ``analyze=True`` executes
        (through ``execute`` when given — the service passes a
        scheduler-routed closure so analyzed runs share admission control)
        and grafts measured actuals plus q-errors onto every estimate node.
        """
        from repro.obs.explain import build_report

        return build_report(self, epsilons, analyze=analyze, execute=execute)

    def stale_result(self, ekey: tuple) -> QueryResult | None:
        """Return the freshest cached result for ``ekey``, whatever its versions.

        The scheduler's degraded mode calls this under overload: serving a
        slightly version-stale answer (explicitly marked ``stale`` with its
        version lag) beats rejecting the request outright.  Returns ``None``
        when no execution of this epsilon binding was ever cached — staleness
        is bounded by what the cache holds, never fabricated.
        """
        try:
            cur_s, cur_t = self.current_versions()
        except ServiceError:
            return None
        with self._lock:
            candidates = [
                result
                for (sv, tv, key), result in self._results.items()
                if key == ekey
            ]
        if not candidates:
            return None
        hit = max(candidates, key=lambda r: (r.s_version + r.t_version))
        lag = max(0, cur_s - hit.s_version) + max(0, cur_t - hit.t_version)
        return replace(
            hit, path=PATH_STALE, stale=True, version_lag=lag, seconds=0.0,
            estimated_pairs=None,
        )

    # ------------------------------------------------------------------ #
    # Result-cache management
    # ------------------------------------------------------------------ #
    def store_result(self, ekey: tuple, result: QueryResult) -> None:
        """Insert a materialized result, lineage included, so repeats hit the
        result cache and later appends extend it.

        Catalog versions only grow, so an entry of the same epsilons at
        versions the new one dominates can never be served again, and the new
        one is the better anchor: it is dropped (counted as an invalidation)
        before the LRU bound applies.
        """
        key = (result.s_version, result.t_version, ekey)
        with self._lock:
            superseded = [
                old
                for old in self._results
                if old[2] == ekey and old[0] <= key[0] and old[1] <= key[1] and old != key
            ]
            for old in superseded:
                del self._results[old]
            self.result_cache_stats.invalidations += len(superseded)
            self._results[key] = result
            self._results.move_to_end(key)
            self.result_cache_stats.stores += 1
            while len(self._results) > self.result_cache_size:
                self._results.popitem(last=False)
                self.result_cache_stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every cached result."""
        with self._lock:
            self.result_cache_stats.invalidations += len(self._results)
            self._results.clear()

    def cached_results(self) -> int:
        """Return the number of materialized results currently cached."""
        with self._lock:
            return len(self._results)

    def describe(self) -> dict:
        """Return a JSON-friendly summary of the prepared query."""
        return {
            "s": self.s_name,
            "t": self.t_name,
            "attributes": list(self.attributes),
            "workers": self.workers,
            "partitioner": self.partitioner.name,
            "default_epsilons": (
                None
                if self.default_epsilons is None
                else [list(pair) for pair in self.default_epsilons]
            ),
            "cached_results": self.cached_results(),
            "stats": self.stats.as_dict(),
            "result_cache": self.result_cache_stats.as_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.s_name!r} ⋈ {self.t_name!r} on "
            f"{list(self.attributes)}, workers={self.workers})"
        )


def _epsilon(value) -> float:
    """Return one band width as a float; anything but a finite, non-negative
    number is a client error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ServiceError(f"epsilons must be numbers, got {value!r}")
    try:
        width = float(value)
    except OverflowError:
        width = math.inf
    if not math.isfinite(width) or width < 0:
        raise ServiceError(f"epsilons must be finite and non-negative, got {value!r}")
    return width


def gather_rows(relation, attributes, rows) -> np.ndarray:
    """Extract the join-attribute values of selected rows without
    materializing the full ``(n, d)`` join matrix of the relation."""
    store = getattr(relation, "store", None)
    if store is not None:
        # Gather through the column store: an mmap-backed relation reads
        # only the touched pages instead of materializing whole columns.
        idx = np.asarray(rows)
        return np.column_stack(
            [store.take(a, idx).astype(float, copy=False) for a in attributes]
        )
    return np.column_stack(
        [np.asarray(relation.column(a), dtype=float)[rows] for a in attributes]
    )


def _join_rows(snap, attributes, start: int, stop: int) -> np.ndarray:
    """Return the join matrix of rows ``[start, stop)`` of a snapshot, which
    may span its base and its delta."""
    n_base = len(snap.base)
    parts = [snap.base.join_matrix_slice(attributes, start, min(stop, n_base))]
    if stop > n_base:
        parts.append(snap.delta.join_matrix_slice(attributes, start - n_base, stop - n_base))
    return np.concatenate(parts)


def _extend_index(values: np.ndarray, rows: np.ndarray, column: np.ndarray):
    """Extend the sorted index ``(values, rows)`` of a column's prefix by the
    rest of the column, equal to a fresh ``argsort(kind="stable")`` of it all.

    Old entries precede new ones among equal values, as their row ids do;
    the merging stable sort is a timsort, which merges the two sorted runs in
    O(n).
    """
    order = stable_argsort(column)
    if values.size == 0:
        return column[order], order
    values = np.concatenate((values, column[order]))
    rows = np.concatenate((rows, len(rows) + order))
    merge = np.argsort(values, kind="stable")
    return values[merge], rows[merge]


def _chain(segments: tuple, new: np.ndarray) -> tuple:
    """Return ``segments`` followed by ``new``, merging the two newest
    segments while the older is at most twice the newer.

    Every segment then holds more than twice the pairs of the next one, so n
    pairs span at most 1 + log₂ n segments, and the segments left unmerged
    are the very arrays of ``segments``.
    """
    if not len(new):
        return segments
    chain = [*segments, new]
    while len(chain) > 1 and len(chain[-2]) <= 2 * len(chain[-1]):
        newer = chain.pop()
        chain[-1] = np.concatenate((chain[-1], newer))
    return tuple(chain)


def gather_snapshot_rows(snap, attributes, rows: np.ndarray) -> np.ndarray:
    """:func:`gather_rows` over a snapshot's base and delta for ascending
    ``rows``, without concatenating the two."""
    n_base = len(snap.base)
    split = int(np.searchsorted(rows, n_base)) if snap.delta is not None else len(rows)
    if split == len(rows):
        return gather_rows(snap.base, attributes, rows)
    return np.concatenate([
        gather_rows(snap.base, attributes, rows[:split]),
        gather_rows(snap.delta, attributes, rows[split:] - n_base),
    ])


def sampled_join_matrix(snap, attributes, sample_size: int) -> np.ndarray:
    """Return a ``(min(n, sample_size), d)`` evenly spaced row sample of the
    snapshot's join attributes, gathering only the sampled rows."""
    from repro.sampling.selectivity import evenly_spaced_indices

    rows = snap.rows
    idx = evenly_spaced_indices(rows, sample_size)
    return gather_snapshot_rows(snap, attributes, np.arange(rows) if idx is None else idx)


def _window_positions(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Return the positions of sorted ``values`` inside any window
    ``[lo[i], hi[i]]``, each once; ``lo`` and ``hi`` must be non-decreasing."""
    starts = np.searchsorted(values, lo, side="left")
    stops = np.searchsorted(values, hi, side="right")
    # Windows only move right, so each one adds what lies past its
    # predecessors' furthest stop.
    starts = np.maximum(starts, np.concatenate(([0], stops[:-1])))
    lengths = np.maximum(stops - starts, 0)
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(offsets.size)

