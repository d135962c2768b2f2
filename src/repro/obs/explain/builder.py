"""Builds :class:`~repro.obs.explain.report.QueryPlanReport` trees.

EXPLAIN first takes the prepared query's cold decision: an ``inline`` node
carries the parallelism p and the two prices that chose between one inline
kernel call and a plan.  When the base join would run under a plan, EXPLAIN
resolves the partitioning through the engine's plan cache (recording
whether it was cached or optimized on the spot) and routes a deterministic
row sample of both relations through it to estimate per-worker input; an
inline join builds no plan and is estimated as one worker holding
everything.  Either way it splits the sampled output estimate across
workers by their candidate share, prices the expected kernel chunking
against the byte budget (at least one chunk per unit with sampled rows on
both sides: each unit is a kernel call of its own), and reports the local
kernel beside the sampled per-dimension window fractions.  No engine
dispatch runs.

EXPLAIN ANALYZE additionally executes the query (through whatever callable
the caller supplies — the service routes it through the scheduler so
analyzed runs share single-flight and admission control) and grafts the
measured figures onto the same nodes: true pair counts, per-worker
input/output/wall-time from the base join's job statistics (the inline
node's seconds when it ran inline),
and kernel chunk / candidate totals diffed from the process-wide
kernel-profiling counters.  Every node with both figures then carries a
q-error.  The inline local join of appended rows gets a node of its own.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.local_join import kernels
from repro.obs.explain.report import PlanNode, QueryPlanReport

__all__ = ["build_report", "kernel_counter_totals"]

#: Execution paths that ran a join for the answer (not served from a cache).
_EXECUTED_PATHS = frozenset({"cold", "plan_cache", "delta"})

#: Per-side row-sample size of the routing-based per-worker estimates.
#: Larger than the selectivity probe's 512 — routing skew matters here —
#: but still far below any real dispatch.
ROUTING_SAMPLE: int = 2048

#: Kernel counters diffed around an analyzed execution (process registry).
#: Help strings mirror :mod:`repro.obs.kernelprof` so whichever side
#: registers first the exposition reads the same.
_KERNEL_COUNTERS = (
    ("chunks", "repro_kernel_chunks_total", "candidate chunks emitted by the kernels"),
    ("candidates", "repro_kernel_candidates_total", "candidate pairs expanded by the kernels"),
    ("pairs", "repro_kernel_pairs_total", "pairs surviving the residual masks"),
)


def kernel_counter_totals() -> dict:
    """Sum the kernel-profiling counters across labels (0 when never used)."""
    from repro.obs import registry

    reg = registry()
    totals = {}
    for key, metric, help_text in _KERNEL_COUNTERS:
        counter = reg.counter(metric, help_text)
        totals[key] = int(sum(count for _, count in counter.items()))
    return totals


def _sampled_matrix(snap, attributes) -> tuple[np.ndarray, float]:
    """Return (sample matrix, scale) where scale maps sample counts to full."""
    from repro.service.prepared import sampled_join_matrix

    sample = sampled_join_matrix(snap, attributes, ROUTING_SAMPLE)
    return sample, snap.rows / max(1, sample.shape[0])


def _relation_label(name: str, snap) -> str:
    """Render one side of the join root: identity, size and physical layout."""
    label = f"{name} v{snap.version} ({snap.rows:,} rows)"
    storage = getattr(snap, "storage", None)
    if storage is None:
        return label
    if storage == "mmap":
        segments = getattr(snap, "segment_count", 1)
        return f"{label} [mmap, {segments} segment{'s' if segments != 1 else ''}]"
    return f"{label} [{storage}]"


def _worker_counts(plan, matrix: np.ndarray, side: str, scale: float) -> np.ndarray:
    """Estimate per-worker routed input rows from a sample (full-size scale)."""
    _, workers = plan.route_to_workers(matrix, side)
    counts = np.bincount(workers, minlength=plan.workers).astype(float)
    return counts * scale


def _unit_calls(plan, s_sample: np.ndarray, t_sample: np.ndarray) -> np.ndarray:
    """Count, per worker, the units that received sampled rows of both sides:
    each is a kernel call of its own, so at least one chunk."""
    both = np.ones(plan.n_units, dtype=bool)
    for sample, side in ((s_sample, "S"), (t_sample, "T")):
        _, units = plan.route(sample, side)
        both &= np.bincount(units, minlength=plan.n_units) > 0
    return np.bincount(plan.unit_workers()[both], minlength=plan.workers)


def build_report(
    prepared,
    epsilons=None,
    analyze: bool = False,
    execute=None,
) -> QueryPlanReport:
    """Build the EXPLAIN (ANALYZE) report of one prepared-query binding.

    Parameters
    ----------
    prepared:
        The :class:`~repro.service.prepared.PreparedQuery` to introspect.
    epsilons:
        Epsilon binding (defaults apply as in ``execute``).
    analyze:
        Execute and graft actuals when ``True``.
    execute:
        Execution callable ``(ekey) -> QueryResult`` used under ``analyze``
        (defaults to ``prepared.execute``; the service passes a
        scheduler-routed closure).
    """
    from repro.sampling.selectivity import window_fractions

    started = time.perf_counter()
    ekey = prepared.resolve_epsilons(epsilons)
    condition = prepared.condition(ekey)
    s_snap, t_snap = prepared.snapshots()

    decision = prepared.cold_decision(ekey, (s_snap, t_snap))
    plan, plan_cached = decision.plan, decision.plan is not None
    if plan is None and not decision.inline:
        plan, plan_cached = prepared.engine.plan_cache.get_or_build(
            prepared.partitioner, s_snap.base, t_snap.base, condition, prepared.workers
        )
        if not plan_cached:
            prepared.record_plan_seconds(plan.stats.optimization_seconds)

    s_sample, s_scale = _sampled_matrix(s_snap, prepared.attributes)
    t_sample, t_scale = _sampled_matrix(t_snap, prepared.attributes)
    if plan is None:  # one inline task holds both relations
        s_counts = np.array([s_sample.shape[0] * s_scale])
        t_counts = np.array([t_sample.shape[0] * t_scale])
        unit_calls = np.ones(1, dtype=np.int64)
    else:
        s_counts = _worker_counts(plan, s_sample, "S", s_scale)
        t_counts = _worker_counts(plan, t_sample, "T", t_scale)
        unit_calls = _unit_calls(plan, s_sample, t_sample)
    n_workers = s_counts.size
    fractions = window_fractions(s_sample, t_sample, condition)
    best_fraction = float(fractions.min()) if fractions.size else 0.0

    est_pairs = float(prepared.estimate_pairs(ekey))
    est_output_total = float(prepared.sampled_estimate(ekey))
    # Split the output estimate across workers by candidate share: a worker
    # holding many rows of both sides produces proportionally more pairs.
    products = s_counts * t_counts
    product_total = float(products.sum())
    output_shares = (
        products / product_total
        if product_total > 0
        else np.full(n_workers, 1.0 / n_workers)
    )
    est_outputs = est_output_total * output_shares
    # The kernel expands the 1-D windows of its sweep dimension while that is
    # cheap; past ``plain_expansion_limit`` it buckets two more dimensions
    # into cells one band wide, where a probe reaches two cells (twice its
    # band) in each — so it expands 2 or 4 candidates per output pair, and
    # more only by what dimensions beyond those three filter out in the mask.
    windows = best_fraction * products
    plain_limit = np.array(
        [kernels.plain_expansion_limit(s, t) for s, t in zip(s_counts, t_counts)]
    )
    per_pair = 2.0 ** min(fractions.size - 1, 2) / max(
        float(np.prod(np.sort(fractions)[3:])), 1e-9
    )
    est_candidates = np.where(
        windows <= plain_limit, windows, np.minimum(windows, per_pair * est_outputs)
    )
    # Chunks at the budget the kernel runs with: an inline join has the
    # backend's whole budget, a planned query's p tasks a share each.
    kernel = prepared.engine.backend._budgeted(
        prepared.engine.algorithm, 1 if decision.inline else decision.parallelism
    )
    chunk_capacity = kernels.max_candidates(kernel.memory_budget)

    est_total_input = float(s_counts.sum() + t_counts.sum())
    est_max_input = float((s_counts + t_counts).max())

    root = PlanNode(
        "band_join",
        attrs={
            "query": getattr(prepared, "name", None)
            or f"{prepared.s_name}⋈{prepared.t_name}",
            "s": _relation_label(prepared.s_name, s_snap),
            "t": _relation_label(prepared.t_name, t_snap),
            "backend": prepared.engine.backend.name,
            "workers": prepared.workers,
        },
    ).estimate(pairs=est_pairs)

    plan_node = None
    if plan is not None:
        plan_node = root.child(
            "partitioning",
            method=plan.method,
            units=plan.n_units,
            plan_cached=plan_cached,
            optimization_seconds=round(plan.stats.optimization_seconds, 6),
        ).estimate(
            total_input=est_total_input,
            max_input=est_max_input,
            output=est_output_total,
        )
        stats = plan.stats
        if stats.estimated_total_input is not None or stats.estimated_output is not None:
            plan_node.child("optimizer", source="partitioning sample over base rows").estimate(
                total_input=stats.estimated_total_input,
                max_load=stats.estimated_max_load,
                output=stats.estimated_output,
            )
    # The prices of the cold decision: κ·L is the inline node's seconds
    # estimate (EXPLAIN ANALYZE grafts the measured ones when it ran inline).
    inline_node = root.child(
        "inline",
        chosen=decision.inline,
        parallelism=decision.parallelism,
        **({} if decision.plan_seconds is None else {"plan_seconds": decision.plan_seconds}),
    ).estimate(seconds=decision.inline_seconds)
    worker_nodes = []
    for w in range(n_workers):
        candidates = float(est_candidates[w])
        node = inline_node if plan_node is None else plan_node.child(f"worker {w}")
        worker_nodes.append(
            node.estimate(
                input=float(s_counts[w] + t_counts[w]),
                output=float(est_outputs[w]),
                candidates=candidates,
                kernel_chunks=float(
                    max(math.ceil(candidates / chunk_capacity), unit_calls[w])
                )
                if candidates > 0
                else 0.0,
            )
        )

    root.child(
        "selector",
        algorithm=prepared.engine.algorithm.name,
        window_fractions=[round(float(f), 6) for f in fractions],
    )

    report = QueryPlanReport(
        query=root.attrs["query"],
        s_name=prepared.s_name,
        t_name=prepared.t_name,
        epsilons=ekey,
        analyze=analyze,
        root=root,
    )
    if not analyze:
        report.seconds = time.perf_counter() - started
        return report

    # ---------------- EXPLAIN ANALYZE: execute and graft actuals ---------- #
    counters_before = kernel_counter_totals()
    result = (execute or prepared.execute)(ekey)
    counters_after = kernel_counter_totals()

    report.path = result.path
    root.actual(pairs=result.n_pairs, seconds=result.seconds)
    job = result.base_job
    weights = prepared.engine.weights
    if result.path not in _EXECUTED_PATHS or result.job is None:
        # Cache-served run: nothing dispatched *now*, so per-worker and
        # kernel actuals are structurally absent rather than zero (a cached
        # QueryResult still carries the job stats of the run that produced
        # it, which would misattribute that run's wall times to this one).
        root.attrs["served_from_cache"] = True
    elif job is not None and result.inline == (plan_node is None):
        # Per-worker actuals exist only when the base join ran the way
        # EXPLAIN decided: under the plan, or as the one inline task.
        if plan_node is not None:
            plan_node.actual(
                total_input=job.total_input,
                max_input=job.max_worker_input(weights),
                output=job.total_output,
            )
            for child in plan_node.children:
                if child.name == "optimizer":
                    child.actual(
                        total_input=job.total_input,
                        max_load=job.max_worker_load(weights),
                        output=job.total_output,
                    )
        by_id = {w.worker_id: w for w in job.workers}
        for w, node in enumerate(worker_nodes):
            actual = by_id.get(w)
            if actual is None:
                continue
            node.actual(
                input=actual.input_total,
                output=actual.output,
                seconds=actual.local_seconds,
            )
        deltas = {
            key: counters_after[key] - counters_before[key]
            for key in counters_after
        }
        if any(deltas.values()):
            kernel_node = root.child(
                "kernels", source="repro_kernel_* counter deltas"
            ).estimate(
                chunks=float(
                    sum(node.estimates.get("kernel_chunks", 0.0) for node in worker_nodes)
                ),
                candidates=float(est_candidates.sum()),
            )
            kernel_node.actual(
                chunks=deltas["chunks"],
                candidates=deltas["candidates"],
                pairs=deltas["pairs"],
            )
    delta = result.delta_job
    if result.path in _EXECUTED_PATHS and delta is not None:
        root.child("delta_join", source="inline local join of the appended rows").actual(
            input=delta.total_input,
            output=delta.total_output,
            seconds=delta.workers[0].local_seconds,
        )
    report.seconds = time.perf_counter() - started
    return report
