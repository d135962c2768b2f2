"""EXPLAIN / EXPLAIN ANALYZE: plan introspection with estimate accounting.

The package answers *what a query's join is expected to cost and how wrong
those estimates were*:

* :func:`build_report` builds a :class:`QueryPlanReport` for one prepared
  query — the inline join's κ·L price and input, output, candidate and
  chunk estimates, and the kernel selector's decision; with
  ``analyze=True`` it executes and grafts measured actuals plus per-node
  q-errors onto the same tree.
* :class:`EstimateAccuracyTracker` is the always-on live half: the q-error
  of each cold answer's sampled estimate into the ``repro_estimate_qerror``
  histogram and the ``estimate_qerror`` SLO window.
"""

from repro.obs.explain.builder import build_report, kernel_counter_totals
from repro.obs.explain.report import (
    PlanNode,
    QueryPlanReport,
    format_plan_tree,
    qerror,
)
from repro.obs.explain.store import EstimateAccuracyTracker

__all__ = [
    "EstimateAccuracyTracker",
    "PlanNode",
    "QueryPlanReport",
    "build_report",
    "format_plan_tree",
    "kernel_counter_totals",
    "qerror",
]
