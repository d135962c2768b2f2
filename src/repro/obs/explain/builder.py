"""Builds :class:`~repro.obs.explain.report.QueryPlanReport` trees.

A served query's cold base join runs as one inline task on the calling
thread, so EXPLAIN estimates that one task: an ``inline`` node carries its
price κ·L (the service's measured kernel rate times the load of both bases
and the sampled output estimate; absent until κ was measured), its input,
output and candidate estimates and its kernel chunks against the byte
budget, beside a ``selector`` node naming the local kernel and the sampled
per-dimension window fractions.  No join runs and no plan is built.

EXPLAIN ANALYZE additionally executes the query (through whatever callable
the caller supplies — the service routes it through the scheduler so
analyzed runs share single-flight and admission control) and grafts the
measured figures onto the same nodes: the true pair count, the inline
task's input, output and seconds from the base join's job statistics, and
kernel chunk / candidate totals diffed from the process-wide
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
_EXECUTED_PATHS = frozenset({"cold", "delta"})

#: Per-side row-sample size of the window-fraction estimates.  Larger than
#: the selectivity probe's 512 but still far below a real join.
WINDOW_SAMPLE: int = 2048

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
    from repro.service.prepared import sampled_join_matrix

    started = time.perf_counter()
    ekey = prepared.resolve_epsilons(epsilons)
    condition = prepared.condition(ekey)
    s_snap, t_snap = prepared.snapshots()

    s_count, t_count = s_snap.rows, t_snap.rows
    samples = [
        sampled_join_matrix(snap, prepared.attributes, WINDOW_SAMPLE) for snap in (s_snap, t_snap)
    ]
    fractions = window_fractions(*samples, condition)
    best_fraction = float(fractions.min()) if fractions.size else 0.0

    est_pairs = float(prepared.estimate_pairs(ekey))
    est_output = float(prepared.sampled_estimate(ekey))
    # The kernel expands the 1-D windows of its sweep dimension while that is
    # cheap; past ``plain_expansion_limit`` it buckets two more dimensions
    # into cells one band wide, where a probe reaches two cells (twice its
    # band) in each — so it expands 2 or 4 candidates per output pair, and
    # more only by what dimensions beyond those three filter out in the mask.
    windows = best_fraction * s_count * t_count
    if windows > kernels.plain_expansion_limit(s_count, t_count):
        per_pair = 2.0 ** min(fractions.size - 1, 2) / max(
            float(np.prod(np.sort(fractions)[3:])), 1e-9
        )
        windows = min(windows, per_pair * est_output)
    # Chunks at the budget the inline task runs with: the backend's whole one.
    kernel = prepared.engine.backend._budgeted(prepared.engine.algorithm, 1)
    chunk_capacity = kernels.max_candidates(kernel.memory_budget)
    est_chunks = max(math.ceil(windows / chunk_capacity), 1) if windows > 0 else 0

    root = PlanNode(
        "band_join",
        attrs={
            "query": getattr(prepared, "name", None)
            or f"{prepared.s_name}⋈{prepared.t_name}",
            "s": _relation_label(prepared.s_name, s_snap),
            "t": _relation_label(prepared.t_name, t_snap),
        },
    ).estimate(pairs=est_pairs)
    # κ·L is the tree's one price in seconds.
    inline_node = root.child("inline", source="one task on the calling thread").estimate(
        seconds=prepared.prices.seconds(
            prepared.engine.weights, len(s_snap.base) + len(t_snap.base), est_output
        ),
        input=s_count + t_count,
        output=est_output,
        candidates=windows,
        kernel_chunks=float(est_chunks),
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
    if result.path not in _EXECUTED_PATHS or result.job is None:
        # Cache-served run: nothing executed *now*, so the inline and kernel
        # actuals are structurally absent rather than zero (a cached
        # QueryResult still carries the job stats of the run that produced
        # it, which would misattribute that run's wall times to this one).
        root.attrs["served_from_cache"] = True
    elif job is not None:
        worker = job.workers[0]
        inline_node.actual(
            input=worker.input_total, output=worker.output, seconds=worker.local_seconds
        )
        deltas = {
            key: counters_after[key] - counters_before[key]
            for key in counters_after
        }
        if any(deltas.values()):
            root.child("kernels", source="repro_kernel_* counter deltas").estimate(
                chunks=float(est_chunks), candidates=windows
            ).actual(
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
