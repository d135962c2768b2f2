"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root carries the same workloads and
metrics in the fixed form the PR driver reads; ``tests/test_spec.py`` keeps
the two in step.  This file adds what that form has no field for: the layer
a metric belongs to and the end-to-end metric (and workload) it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "batch-d2-kernel": (
        "in-process cold joins, 100k x 100k Pareto-1.5, d=2, eps 0.01, 8 workers, "
        "1.2M pairs: the local-join kernel is ~70% of the op, planning ~15%"
    ),
    "batch-d3-plan": (
        "in-process cold joins, 100k x 100k Pareto-1.5, d=3, eps 0.005, 32 workers, "
        "~1.7k pairs: RecPart planning is ~70% of the op, the kernel ~15%"
    ),
    "serve-mix": (
        "repro serve over TCP, 2 closed-loop clients, 20k x 20k d=2 each; cold, "
        "result-cache, delta and plan-cache queries: pays parse, queue, JSON and socket"
    ),
    "serve-append-mmap": (
        "repro serve --storage mmap over TCP, 1 client, 100k x 100k d=1; append 2% then "
        "query, compaction every 13 appends: streamed execution and ingest beside reads"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None
    #: ``src/repro`` module the metric measures (per-layer metrics only).
    layer: str | None = None
    #: What it should move when the layer changes: end-to-end metric -> workload.
    moves: str = ""


#: Apply to all four workloads and are never zero; the PR driver bounds them.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("op_tail_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("cpu_s_per_op", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

#: Client-observed like the ones above, but each applies to some workloads
#: only.  The driver's file format wants every end-to-end metric on every
#: workload, so it lists these with the per-layer metrics (no bound there);
#: ``run.py`` prints them in the end-to-end table of the workloads they
#: apply to and checks them in ``--check-repeat``.
END_TO_END_PARTIAL = (
    Metric("dup_overhead", "ratio", "lower", 0.0, "core", "batch-*: (I - (|S|+|T|)) / (|S|+|T|), mean of 8 RecPart seeds"),
    Metric("load_overhead", "ratio", "lower", 0.0, "core", "batch-*: (L_m - L_0) / L_0, mean of 8 RecPart seeds"),
    Metric("cold_p50_s", "s", "lower", 0.25, "service.server", "serve-*: queries answering path cold"),
    Metric("plan_cache_p50_s", "s", "lower", 0.25, "service.server", "serve-mix"),
    Metric("delta_p50_s", "s", "lower", 0.25, "service.server", "serve-*"),
    Metric("result_cache_p50_s", "s", "lower", 0.25, "service.server", "serve-mix"),
    Metric("append_p50_s", "s", "lower", 0.25, "service.server", "serve-*: append round trip incl. client json.dumps"),
    Metric("ingest_rows_per_s", "rows/s", "higher", 0.25, "service.catalog", "serve-*: rows of register + append / time in those round trips"),
)

PER_LAYER = (
    Metric("core.partition_s", "s", "lower", None, "core", "op_p50_s -> batch-d3-plan; cold_p50_s -> serve-mix"),
    Metric("core.iterations", "count", "lower", None, "core", "core.partition_s"),
    Metric("core.units", "count", "lower", None, "core", "dup_overhead -> batch-*"),
    Metric("sampling.draw_s", "s", "lower", None, "sampling", "op_p50_s -> batch-d3-plan"),
    Metric("plan_cache.key_s", "s", "lower", None, "engine.plan_cache", "plan_cache_p50_s -> serve-mix"),
    Metric("plan_cache.hit_rate", "ratio", "higher", None, "engine.plan_cache", "plan_cache_p50_s -> serve-mix"),
    Metric("routing.route_s", "s", "lower", None, "engine.routing", "op_p50_s -> batch-d2-kernel"),
    Metric("routing.copies", "count", "lower", None, "engine.routing", "dup_overhead -> batch-*"),
    Metric("routing.stream_route_s", "s", "lower", None, "engine.routing", "delta_p50_s, cold_p50_s -> serve-append-mmap"),
    Metric("backends.gather_s", "s", "lower", None, "engine.backends", "op_p50_s -> batch-d2-kernel"),
    Metric("backends.run_s", "s", "lower", None, "engine.backends", "op_p50_s, ops_per_s -> batch-d2-kernel"),
    Metric("backends.overlap", "ratio", "higher", None, "engine.backends", "op_p50_s -> batch-d2-kernel"),
    Metric("backends.threads_speedup", "ratio", "higher", None, "engine.backends", "op_p50_s -> batch-d2-kernel"),
    Metric("backends.processes_speedup", "ratio", "higher", None, "engine.backends", "none today (no workload uses processes)"),
    Metric("kernels.join_s", "s", "lower", None, "local_join.kernels", "op_p50_s, cpu_s_per_op -> batch-d2-kernel; no change -> batch-d3-plan, serve-append-mmap"),
    Metric("kernels.candidates", "count", "lower", None, "local_join.kernels", "cpu_s_per_op, peak_rss_mb -> batch-d2-kernel"),
    Metric("kernels.pairs", "count", "higher", None, "local_join.kernels", "fixed by the workload"),
    Metric("kernels.candidates_per_pair", "ratio", "lower", None, "local_join.kernels", "kernels.join_s"),
    Metric("engine.merge_s", "s", "lower", None, "engine.engine", "op_p50_s -> batch-d2-kernel; cold_p50_s -> serve-mix"),
    Metric("engine.residual_s", "s", "lower", None, "engine.engine", "op_p50_s -> batch-*"),
    Metric("server.parse_s", "s", "lower", None, "service.server", "append_p50_s -> serve-append-mmap"),
    Metric("server.serialize_s", "s", "lower", None, "service.server", "result_cache_p50_s -> serve-mix"),
    Metric("server.wire_overhead_s", "s", "lower", None, "service.server", "result_cache_p50_s, op_p50_s -> serve-mix; append_p50_s -> serve-append-mmap"),
    Metric("scheduler.queue_s", "s", "lower", None, "service.scheduler", "op_tail_s -> serve-mix"),
    Metric("scheduler.rejected", "count", "lower", None, "service.scheduler", "failed -> serve-mix"),
    Metric("scheduler.deduplicated", "count", "lower", None, "service.scheduler", "none (each client has its own query)"),
    Metric("prepared.result_cache_hit_rate", "ratio", "higher", None, "service.prepared", "op_p50_s -> serve-mix"),
    Metric("prepared.delta_execute_s", "s", "lower", None, "service.prepared", "delta_p50_s -> serve-*"),
    Metric("catalog.register_s", "s", "lower", None, "service.catalog", "ingest_rows_per_s -> serve-*"),
    Metric("catalog.append_s", "s", "lower", None, "service.catalog", "append_p50_s, ingest_rows_per_s -> serve-append-mmap"),
    Metric("catalog.compact_wait_s", "s", "lower", None, "service.catalog", "op_tail_s -> serve-append-mmap"),
    Metric("catalog.compactions", "count", "higher", None, "service.catalog", "fixed by the workload"),
    Metric("storage.bytes_per_user_byte", "ratio", "lower", None, "data.storage", "ingest_rows_per_s -> serve-append-mmap"),
    Metric("storage.segments_max", "count", "lower", None, "data.storage", "delta_p50_s, peak_rss_mb -> serve-append-mmap"),
    Metric("obs.telemetry_overhead", "ratio", "lower", None, "obs", "op_p50_s, cpu_s_per_op -> serve-* (telemetry is on there)"),
    Metric("trace.coverage", "ratio", "higher", None, "harness", "sanity: layer self times / untraced op median"),
    Metric("trace.overhead", "ratio", "lower", None, "harness", "sanity: traced / untraced op median"),
)

#: Every metric a ``--trace 1`` run prints, in ``BENCHMARK.json`` order.
TRACE_METRICS = PER_LAYER + END_TO_END_PARTIAL


def benchmark_json(command, paths, run_seconds) -> dict:
    """Return the content ``BENCHMARK.json`` must have for this spec."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACE_METRICS
        ],
    }
