"""Unified telemetry layer: metrics registry, tracing, profiling, logging.

One import surface for the whole system:

* :func:`registry` / :func:`tracer` — the process-wide default
  :class:`MetricsRegistry` and :class:`Tracer` (deep layers publish here;
  services keep an additional per-instance registry for their adapters).
* :func:`enable` / :func:`disable` / :func:`is_enabled` — the global switch
  gating implicit instrumentation (spans, kernel profiles).  Disabled by
  default; ``REPRO_TELEMETRY=1`` or the serving layer turn it on.
* :func:`percentile` — the shared exact-quantile helper every latency
  report uses, so quantiles are computed identically everywhere.
* :func:`setup_logging` / :func:`get_logger` — structured ``logging``
  wiring (``REPRO_LOG_LEVEL`` / ``--verbose``).
* :mod:`repro.obs.workload` — the workload observatory (traffic capture,
  :class:`Workload` snapshots, SLO monitoring, capture/replay); its main
  names are re-exported here.
* :mod:`repro.obs.explain` — EXPLAIN / EXPLAIN ANALYZE plan reports with
  estimate-vs-actual q-error accounting; its main names are re-exported
  here.
"""

from repro.obs._state import disable, enable, is_enabled
from repro.obs.adapters import bind_plan_cache, bind_prepared_query
from repro.obs.explain import (
    EstimateAccuracyTracker,
    QueryPlanReport,
    format_plan_tree,
    qerror,
)
from repro.obs.globals import registry, tracer
from repro.obs.logconf import get_logger, resolve_level, setup_logging
from repro.obs.process import (
    current_rss_bytes,
    peak_rss_bytes,
    reset_peak_rss,
    rss_supported,
)
from repro.obs.registry import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    percentile,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    format_trace_tree,
    new_span_id,
    span_record,
)

# Imported last: the workload modules use the submodules above.
from repro.obs.workload import (
    SLO,
    QueryLogRecorder,
    SLOMonitor,
    Workload,
    pair_fingerprint,
    replay_log,
    service_probes,
)

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "tracer",
    "percentile",
    "log_buckets",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "SpanContext",
    "NOOP_SPAN",
    "new_span_id",
    "span_record",
    "format_trace_tree",
    "get_logger",
    "setup_logging",
    "resolve_level",
    "current_rss_bytes",
    "peak_rss_bytes",
    "reset_peak_rss",
    "rss_supported",
    "bind_plan_cache",
    "bind_prepared_query",
    "QueryLogRecorder",
    "Workload",
    "SLO",
    "SLOMonitor",
    "service_probes",
    "pair_fingerprint",
    "replay_log",
    "EstimateAccuracyTracker",
    "QueryPlanReport",
    "format_plan_tree",
    "qerror",
]
