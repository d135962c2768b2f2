"""Online band-join serving layer.

Turns the one-shot band join into a long-running service for slowly
changing data, built on the engine subsystem's local join and tasks:

* :mod:`repro.service.catalog` — named, versioned relations with
  incremental **delta appends**: appended rows accumulate next to the
  base until a staleness threshold triggers compaction.
* :mod:`repro.service.prepared` — **prepared queries** binding a relation
  pair to a band-condition template with parameterizable epsilons,
  materialized-result caching, and the delta-join fast path (appended rows
  joined against the probed rows of the other side in one local join).
* :mod:`repro.service.scheduler` — a concurrent **query scheduler** with
  single-flight deduplication and admission control, running one
  execution per request and reporting per-path latency percentiles.
* :mod:`repro.service.service` — the synchronous :class:`BandJoinService`
  facade tying the pieces together.
* :mod:`repro.service.server` — the JSON-lines protocol behind
  ``repro-bandjoin serve`` (stdio or TCP).

Quickstart
----------
>>> from repro.service import BandJoinService
>>> service = BandJoinService()
>>> service.register("S", {"A1": s_values})
>>> service.register("T", {"A1": t_values})
>>> service.prepare("near", "S", "T", attributes=["A1"], epsilons=0.01)
>>> service.query("near").path      # 'cold' — joins inline, caches
>>> service.query("near").path      # 'result_cache'
>>> service.append("T", {"A1": more_values})
>>> service.query("near").path      # 'delta' — joins only the new rows
"""

from repro.service.catalog import RelationCatalog, RelationSnapshot
from repro.service.prepared import (
    PATH_COLD,
    PATH_DELTA,
    PATH_RESULT_CACHE,
    PreparedQuery,
    PreparedQueryStats,
    PriceList,
    QueryResult,
)
from repro.service.scheduler import QueryScheduler, SchedulerMetrics
from repro.service.server import LineProtocolServer, handle_request, serve_lines
from repro.service.service import BandJoinService

__all__ = [
    "BandJoinService",
    "RelationCatalog",
    "RelationSnapshot",
    "PreparedQuery",
    "PreparedQueryStats",
    "PriceList",
    "QueryResult",
    "QueryScheduler",
    "SchedulerMetrics",
    "LineProtocolServer",
    "handle_request",
    "serve_lines",
    "PATH_COLD",
    "PATH_DELTA",
    "PATH_RESULT_CACHE",
]
