"""Partitioning plan cache.

Optimizing a partitioning (running RecPart or one of the baselines) is the
expensive part of answering a band-join: it samples both inputs, grows the
split tree and evaluates the cost model per candidate split.  Repeated
queries over the same data — the common case for a service answering many
band-joins against slowly changing relations — can skip that work entirely.

:class:`PlanCache` memoises :class:`~repro.core.partitioner.JoinPartitioning`
objects under a key derived from

* a content fingerprint of each input relation's join columns,
* the band condition (attributes and epsilon widths),
* the optimization budget (number of workers), and
* the partitioning method (partitioner name plus any extra knobs).

Because the key hashes the actual column bytes, any change to the data
invalidates the cached plan automatically — there is no explicit
invalidation API to misuse.  Entries are evicted LRU once ``max_entries``
is exceeded.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.partitioner import JoinPartitioning, Partitioner
from repro.data.relation import Relation, fingerprint_columns
from repro.geometry.band import BandCondition

#: Default maximum number of cached plans.
DEFAULT_PLAN_CACHE_SIZE = 32


def relation_fingerprint(relation, attributes: tuple[str, ...]) -> str:
    """Return a content hash of the relation's join columns.

    The fingerprint covers the column values, their order, dtype and length,
    so two relations fingerprint equally iff a partitioning computed for one
    routes the other identically.  Hashing is a single linear pass (blake2b
    over the raw column bytes) — orders of magnitude cheaper than any
    optimizer run it may save.

    :class:`~repro.data.relation.Relation` instances answer from their
    memoized :meth:`~repro.data.relation.Relation.fingerprint`; ad-hoc
    column mappings (``{name: array}``) are hashed on the spot.
    """
    if isinstance(relation, Relation):
        return relation.fingerprint(attributes)
    columns = [(a, np.asarray(relation[a])) for a in attributes]
    rows = int(columns[0][1].shape[0]) if columns else 0
    return fingerprint_columns(columns, rows)


def condition_key(condition: BandCondition) -> tuple:
    """Return a process-independent hashable key for a band condition."""
    return tuple(
        (p.attribute, float(p.eps_left), float(p.eps_right)) for p in condition.predicates
    )


def plan_key(
    s: Relation,
    t: Relation,
    condition: BandCondition,
    workers: int,
    method: str,
    extra: Hashable = (),
) -> tuple:
    """Build the full cache key of one (inputs, condition, budget, method) query."""
    attrs = condition.attributes
    return (
        relation_fingerprint(s, attrs),
        relation_fingerprint(t, attrs),
        condition_key(condition),
        int(workers),
        method,
        extra,
    )


@dataclass
class PlanCacheStats:
    """Hit/miss accounting of one plan cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Return the total number of cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Return the fraction of lookups served from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        """Return a JSON-friendly summary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class PlanCache:
    """Thread-safe LRU cache of computed join partitionings.

    All bookkeeping (the LRU ``OrderedDict`` plus the hit/miss counters) is
    guarded by one lock, so a single cache can be shared by concurrently
    served queries.  Optimizer runs happen outside that lock (lookups never
    wait for one) but one at a time per cache: planning is interpreter-bound,
    so two concurrent optimizer runs each take longer than both in turn, and
    threads missing on the same key build it once.

    Parameters
    ----------
    max_entries:
        Maximum number of cached plans; the least recently used entry is
        evicted when the cache grows past it.
    """

    max_entries: int = DEFAULT_PLAN_CACHE_SIZE
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _build_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, count_miss: bool = True) -> JoinPartitioning | None:
        """Return the cached plan for ``key`` (marking it recently used)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                if count_miss:
                    self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return plan

    def put(self, key: tuple, plan: JoinPartitioning) -> None:
        """Insert a plan, evicting the least recently used entry if full."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def get_or_build(
        self,
        partitioner: Partitioner,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int,
        rng: np.random.Generator | None = None,
        extra: Hashable = (),
    ) -> tuple[JoinPartitioning, bool]:
        """Return ``(plan, was_cached)`` for one query, optimizing on a miss.

        The partitioner's configuration fingerprint
        (:meth:`~repro.core.partitioner.Partitioner.plan_cache_key`) is part
        of the cache key, so two differently configured partitioners of the
        same class never share a plan; ``extra`` adds further caller-side
        discrimination when needed.  Note that an explicitly passed ``rng``
        only influences the outcome on a miss — cached plans are reused
        as-is.
        """
        key = plan_key(
            s,
            t,
            condition,
            workers,
            partitioner.name,
            extra=(partitioner.plan_cache_key(), extra),
        )
        cached = self.get(key, count_miss=False)
        if cached is not None:
            return cached, True
        with self._build_lock:
            # Another thread may have built this plan while we waited.
            cached = self.get(key)
            if cached is not None:
                return cached, True
            plan = partitioner.partition(s, t, condition, workers, rng=rng)
            self.put(key, plan)
            return plan, False
