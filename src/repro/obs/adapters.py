"""Registry adapters over the system's pre-existing stats objects.

Instead of rewriting every bespoke counter bundle, the adapters mirror them
into a :class:`~repro.obs.registry.MetricsRegistry` through **callback
gauges** evaluated at scrape time — zero writes on any hot path, and the
original objects (``PlanCacheStats``, the prepared-query cache accounting)
keep their direct APIs for existing callers and tests.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

__all__ = ["bind_plan_cache", "bind_prepared_query"]


def bind_plan_cache(registry: MetricsRegistry, cache) -> None:
    """Mirror a :class:`~repro.engine.plan_cache.PlanCache` into ``registry``."""
    registry.gauge(
        "repro_plan_cache_entries", "partitioning plans currently cached"
    ).set_function(lambda: len(cache))
    stats = cache.stats
    for field in ("hits", "misses", "evictions"):
        registry.gauge(
            f"repro_plan_cache_{field}", f"plan cache {field} since start"
        ).set_function(lambda field=field: getattr(stats, field))
    registry.gauge(
        "repro_plan_cache_hit_rate", "fraction of plan lookups served from cache"
    ).set_function(lambda: stats.hit_rate)


def bind_prepared_query(registry: MetricsRegistry, name: str, prepared) -> None:
    """Mirror one prepared query's result-cache accounting into ``registry``.

    Gauges are labeled ``query=<name>``; re-preparing under the same name
    rebinds the callbacks to the new object.
    """
    labels = {"query": name}
    registry.gauge(
        "repro_result_cache_entries", "materialized results currently cached"
    ).set_function(prepared.cached_results, **labels)
    for field in ("hits", "misses", "evictions", "invalidations", "stores"):
        registry.gauge(
            f"repro_result_cache_{field}", f"result cache {field} since prepare"
        ).set_function(
            lambda field=field, prepared=prepared: getattr(
                prepared.result_cache_stats, field
            ),
            **labels,
        )
    registry.gauge(
        "repro_query_executions", "executions of this prepared query"
    ).set_function(lambda: prepared.stats.executions, **labels)
