"""Statistics the harness reports: medians, the tail rule, spreads, self time.

Everything here is pure (lists of numbers or span dicts in, numbers out) so
``tests/test_summary.py`` can pin the rules down without running a join.
"""

from __future__ import annotations

import statistics

#: A tail percentile needs this many samples beyond it to be worth reporting.
TAIL_SAMPLES_BEYOND = 10


def median(values) -> float:
    """Return the median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """Return ``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it.

    That is the 11th-largest sample, whatever the sample count, so the tail
    of a short run is a lower percentile and says so.  With fewer than 11
    samples no percentile qualifies and the median is returned as ``p50``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return median(ordered), 50.0
    index = n - TAIL_SAMPLES_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / n


def quartile_spread(values) -> float:
    """Return ``(Q3 - Q1) / median`` — the run-to-run spread the driver checks."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def self_times(spans) -> dict[int, float]:
    """Return each span's self time: the time it was the innermost running span.

    For spans that nest one inside another this is the span's duration minus
    its children's.  Siblings that run at the same time (pool threads under
    one ``backends.run``) share each instant equally, so the self times of an
    op always add up to the duration of its root span — the wall time — and
    never to the CPU time of its threads.
    """
    result = {span["id"]: 0.0 for span in spans}
    by_op: dict[int, list[dict]] = {}
    for span in spans:
        by_op.setdefault(span["op_id"], []).append(span)
    for group in by_op.values():
        edges = sorted({span["start"] for span in group} | {span["end"] for span in group})
        for left, right in zip(edges, edges[1:]):
            running = [s for s in group if s["start"] <= left and s["end"] >= right]
            parents = {s["parent"] for s in running}
            innermost = [s for s in running if s["id"] not in parents]
            for span in innermost:
                result[span["id"]] += (right - left) / len(innermost)
    return result


def layer_self_times(spans, layer_of) -> dict[str, dict[int, float]]:
    """Return ``{layer: {op_id: self seconds}}`` for spans grouped by layer.

    ``layer_of`` maps a span name to its layer; spans it maps to ``None``
    (the harness's own root spans) are left out.
    """
    own = self_times(spans)
    layers: dict[str, dict[int, float]] = {}
    for span in spans:
        layer = layer_of(span["name"])
        if layer is None:
            continue
        per_op = layers.setdefault(layer, {})
        per_op[span["op_id"]] = per_op.get(span["op_id"], 0.0) + own[span["id"]]
    return layers


def layer_medians(spans, layer_of) -> dict[str, float]:
    """Return each layer's self time per op, as the median over the ops."""
    return {
        layer: median(per_op.values())
        for layer, per_op in layer_self_times(spans, layer_of).items()
    }


def coverage(layer_medians, op_p50: float) -> float:
    """Return Σ per-layer self-time medians ÷ the untraced op median."""
    return sum(layer_medians) / op_p50
