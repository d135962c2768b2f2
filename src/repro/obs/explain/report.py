"""Structured EXPLAIN / EXPLAIN ANALYZE plan reports.

A :class:`QueryPlanReport` is a tree of :class:`PlanNode` objects, one per
introspectable plan element (the join itself, its inline task, the kernel
selector).  Every node carries
two parallel dicts — ``estimates`` (what was believed before execution) and
``actuals`` (what execution measured) — and derives a per-key **q-error**
``max(estimate/actual, actual/estimate)`` for every key present in both.
Plain EXPLAIN leaves ``actuals`` empty; EXPLAIN ANALYZE grafts the measured
figures onto the same tree, so estimate accuracy is visible node by node.

The report is JSON-first (:meth:`QueryPlanReport.to_dict` is what the
``{"op": "explain"}`` protocol ships); :func:`format_plan_tree` renders the
serialized form for humans through the shared tree renderer of
:mod:`repro.obs.render` — the same machinery behind ``stats --trace``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

__all__ = ["PlanNode", "QueryPlanReport", "qerror", "format_plan_tree"]


def qerror(estimate: float, actual: float) -> float:
    """Return the q-error ``max(estimate/actual, actual/estimate)``.

    The symmetric multiplicative error standard in cardinality-estimation
    literature: 1.0 is a perfect estimate, 2.0 is off by 2x in either
    direction.  Conventions at the boundary: two zeros agree perfectly
    (1.0); a zero on exactly one side is an infinite multiplicative miss.
    """
    estimate = float(estimate)
    actual = float(actual)
    if estimate < 0 or actual < 0:
        raise ValueError("q-error inputs must be non-negative")
    if estimate == 0.0 and actual == 0.0:
        return 1.0
    if estimate == 0.0 or actual == 0.0:
        return math.inf
    return max(estimate / actual, actual / estimate)


@dataclass
class PlanNode:
    """One element of a plan report tree.

    ``attrs`` holds descriptive facts (method names, thresholds, cache
    provenance); ``estimates`` and ``actuals`` hold the numeric accounting
    that q-errors are derived from.  Keys shared by both dicts are the
    node's estimate-vs-actual pairs.
    """

    name: str
    attrs: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    actuals: dict = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)

    def child(self, name: str, **attrs) -> "PlanNode":
        """Append and return a new child node."""
        node = PlanNode(name=name, attrs=dict(attrs))
        self.children.append(node)
        return node

    def estimate(self, **values) -> "PlanNode":
        """Record estimate values (``None`` entries are skipped)."""
        self.estimates.update(
            {k: float(v) for k, v in values.items() if v is not None}
        )
        return self

    def actual(self, **values) -> "PlanNode":
        """Record actual (measured) values (``None`` entries are skipped)."""
        self.actuals.update(
            {k: float(v) for k, v in values.items() if v is not None}
        )
        return self

    def qerrors(self) -> dict:
        """Return the q-error of every key carrying both an estimate and an actual."""
        return {
            key: qerror(self.estimates[key], self.actuals[key])
            for key in self.estimates
            if key in self.actuals
        }

    def max_qerror(self) -> float | None:
        """Return the worst q-error in this subtree (``None`` when no pairs)."""
        worst = max(self.qerrors().values(), default=None)
        for child in self.children:
            child_worst = child.max_qerror()
            if child_worst is not None and (worst is None or child_worst > worst):
                worst = child_worst
        return worst

    def to_dict(self) -> dict:
        """Serialize the subtree (q-errors materialized; inf becomes ``"inf"``)."""
        info: dict = {"name": self.name}
        if self.attrs:
            info["attrs"] = dict(self.attrs)
        if self.estimates:
            info["estimates"] = dict(self.estimates)
        if self.actuals:
            info["actuals"] = dict(self.actuals)
            errors = self.qerrors()
            if errors:
                info["qerrors"] = {
                    k: ("inf" if math.isinf(v) else v) for k, v in errors.items()
                }
        if self.children:
            info["children"] = [child.to_dict() for child in self.children]
        return info


@dataclass
class QueryPlanReport:
    """The complete EXPLAIN (ANALYZE) outcome of one prepared-query binding."""

    query: str
    s_name: str
    t_name: str
    epsilons: tuple
    analyze: bool
    root: PlanNode
    #: Execution path actually taken (EXPLAIN ANALYZE only).
    path: str | None = None
    seconds: float = 0.0
    ts: float = field(default_factory=time.time)

    def max_qerror(self) -> float | None:
        """Return the worst q-error anywhere in the plan tree."""
        return self.root.max_qerror()

    def to_dict(self) -> dict:
        worst = self.max_qerror()
        return {
            "query": self.query,
            "s": self.s_name,
            "t": self.t_name,
            "epsilons": [list(pair) for pair in self.epsilons],
            "analyze": self.analyze,
            "path": self.path,
            "seconds": self.seconds,
            "ts": self.ts,
            "max_qerror": (
                None if worst is None else ("inf" if math.isinf(worst) else worst)
            ),
            "plan": self.root.to_dict(),
        }

    def render(self) -> str:
        """Pretty-print the report (delegates to :func:`format_plan_tree`)."""
        return format_plan_tree(self.to_dict())


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value):,}"
        return f"{value:.4g}"
    return str(value)


def _node_label(node: dict, depth: int) -> str:
    from repro.obs.render import format_attrs

    parts = [node["name"]]
    estimates = node.get("estimates") or {}
    actuals = node.get("actuals") or {}
    qerrors = node.get("qerrors") or {}
    measures = []
    for key in estimates:
        text = f"{key}={_format_value(estimates[key])}"
        if key in actuals:
            text += f" (actual {_format_value(actuals[key])}"
            if key in qerrors:
                q = qerrors[key]
                text += f", q={'inf' if q == 'inf' else format(float(q), '.3g')}"
            text += ")"
        measures.append(text)
    for key in actuals:
        if key not in estimates:
            measures.append(f"{key}={_format_value(actuals[key])} (actual)")
    if measures:
        parts.append(" ".join(measures))
    label = " ".join(parts)
    return label + format_attrs(node.get("attrs"))


def format_plan_tree(report: dict) -> str:
    """Render a serialized :class:`QueryPlanReport` dict as an indented tree."""
    from repro.obs.render import render_tree

    mode = "EXPLAIN ANALYZE" if report.get("analyze") else "EXPLAIN"
    epsilons = report.get("epsilons")
    header = (
        f"{mode} {report.get('query')} "
        f"({report.get('s')} ⋈ {report.get('t')}, epsilons={epsilons})"
    )
    if report.get("path"):
        header += f" path={report['path']}"
    worst = report.get("max_qerror")
    if worst is not None:
        header += f" max_qerror={'inf' if worst == 'inf' else format(float(worst), '.3g')}"
    lines = [header]
    plan = report.get("plan")
    if plan is not None:
        render_tree(plan, _node_label, lines=lines)
    return "\n".join(lines)
