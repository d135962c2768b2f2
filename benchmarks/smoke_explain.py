"""End-to-end EXPLAIN / EXPLAIN ANALYZE smoke check.

Drives the whole introspection surface in-process:

* EXPLAIN without execution — the plan tree carries the ``inline`` node of
  the one task a cold query runs and the local kernel with its sampled
  per-dimension window fractions, no partitioning node (serving never
  plans, so the plan cache stays empty), and the prepared query's
  execution counter stays untouched,
* EXPLAIN ANALYZE — every estimate node gains actuals with finite
  q-errors and the analyzed root pair count equals the executed result;
  the first executed query measured κ, so the next cold query's
  ``inline`` node carries κ·L as its seconds estimate beside the measured
  seconds,
* hot-path cost — the estimate-accuracy tracker is toggled on every other
  cached-path request and the interleaved medians must agree within a
  1% budget.

Writes the analyzed report to ``EXPLAIN_sample.json`` so CI can upload it
as an artifact, and prints the overhead figures.  Exits non-zero on any
violation.

Run with::

    PYTHONPATH=src python benchmarks/smoke_explain.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

SAMPLE_PATH = ROOT / "EXPLAIN_sample.json"

ROWS = 4000
DIMENSIONS = 2
EPSILONS = (0.004, 0.006, 0.008, 0.010, 0.012, 0.014)
OVERHEAD_BURST = 500
OVERHEAD_REPEAT = 9
OVERHEAD_BUDGET = 0.01


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def measure_tracker_overhead(service, repeat: int = OVERHEAD_REPEAT) -> dict:
    """Median cached-path latency with the accuracy tracker off vs on.

    The tracker is toggled on every other request so both configurations
    see identical machine load, and the median discards scheduler-jitter
    outliers.  A cached answer carries no estimate, so on the cached path
    the tracker's whole job is one ``None`` check; this bounds the cost
    EXPLAIN support adds to requests that never asked for it.
    """
    tracker = service.scheduler.calibration
    latencies: dict[bool, list[float]] = {False: [], True: []}
    try:
        for i in range(2 * OVERHEAD_BURST * max(1, repeat)):
            enabled = bool(i & 1)
            eps = EPSILONS[(i // 2) % len(EPSILONS)]
            service.scheduler.calibration = tracker if enabled else None
            start = time.perf_counter()
            service.query("bench", eps)
            latencies[enabled].append(time.perf_counter() - start)
    finally:
        service.scheduler.calibration = tracker
    disabled = sorted(latencies[False])[len(latencies[False]) // 2]
    enabled = sorted(latencies[True])[len(latencies[True]) // 2]
    return {
        "requests_per_config": OVERHEAD_BURST * max(1, repeat),
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_fraction": (enabled - disabled) / disabled if disabled else 0.0,
    }


def main() -> int:
    import numpy as np

    from repro.config import ServiceConfig
    from repro.data.generators import correlated_pair
    from repro.local_join import IntervalJoin
    from repro.service import BandJoinService

    s, t = correlated_pair(ROWS, ROWS, dimensions=DIMENSIONS, z=1.5, seed=0)
    attributes = [f"A{i + 1}" for i in range(DIMENSIONS)]
    config = ServiceConfig(backend="threads", workers=4, scheduler_workers=4)

    with BandJoinService(config) as service:
        service.register("S", s)
        service.register("T", t)
        prepared = service.prepare(
            "bench", "S", "T", attributes=attributes, epsilons=EPSILONS[0]
        )

        # ---- EXPLAIN: full plan tree, nothing executed ----------------- #
        plain = service.explain("bench").to_dict()
        check(plain["analyze"] is False and plain["path"] is None,
              "plain EXPLAIN must not carry an execution path")
        check(prepared.stats.executions == 0, "EXPLAIN executed the query")
        children = {c["name"] for c in plain["plan"]["children"]}
        for expected in ("inline", "selector"):
            check(expected in children, f"plan tree lost its {expected} node")
        check("partitioning" not in children, "served EXPLAIN has a partitioning node")
        selector = next(c for c in plain["plan"]["children"] if c["name"] == "selector")
        check(selector["attrs"].get("algorithm") == IntervalJoin.name,
              "selector node lost its kernel name")
        check(len(selector["attrs"].get("window_fractions", ())) == DIMENSIONS,
              "selector node lost its per-dimension window fractions")

        # ---- EXPLAIN ANALYZE: actuals and q-errors --------------------- #
        # The first analyzed run is the first cold query and measures κ; the
        # second, of a new epsilon, is priced at κ·L before it runs.
        first = service.explain("bench", analyze=True)
        kappa_l = service.prices.seconds(
            service.engine.weights, 2 * ROWS, prepared.sampled_estimate(EPSILONS[1])
        )
        analyzed = service.explain("bench", EPSILONS[1], analyze=True)
        for report, eps in ((first, EPSILONS[0]), (analyzed, EPSILONS[1])):
            check(report.path == "cold", f"analyzed run at {eps} took path {report.path}")
            exact = service.query("bench", eps).n_pairs
            check(report.root.actuals["pairs"] == float(exact),
                  "analyzed pair count does not match the executed result")
            worst = report.max_qerror()
            check(worst is not None and math.isfinite(worst),
                  f"analyzed q-error not finite: {worst}")
        inline = next(c for c in analyzed.root.children if c.name == "inline")
        check(kappa_l is not None and math.isclose(inline.estimates.get("seconds", -1), kappa_l),
              f"inline node's seconds {inline.estimates.get('seconds')} is not κ·L {kappa_l}")
        check("seconds" in inline.qerrors(), "inline node lost its measured seconds")
        rendered = analyzed.render()
        check("(actual" in rendered and "q=" in rendered,
              "rendered tree lost its actual/q-error annotations")
        check("repro_estimate_qerror" in service.prometheus(),
              "repro_estimate_qerror missing from the Prometheus exposition")
        check(len(service.engine.plan_cache) == 0
              and service.engine.plan_cache.stats.lookups == 0,
              "the served EXPLAIN and queries consulted the plan cache")
        print(rendered)

        SAMPLE_PATH.write_text(json.dumps(
            {"explain": plain, "explain_analyze": analyzed.to_dict(),
             "rendered": rendered.splitlines()},
            indent=2, sort_keys=True) + "\n")
        print(f"wrote {SAMPLE_PATH.name}")

        # ---- hot-path budget: tracker must cost < 1% ------------------- #
        overhead = measure_tracker_overhead(service)

    print(f"tracker overhead on the cached path: "
          f"{overhead['overhead_fraction'] * 100:+.2f}% "
          f"(median per-request {overhead['disabled_seconds'] * 1e6:.1f}us off vs "
          f"{overhead['enabled_seconds'] * 1e6:.1f}us on, interleaved over "
          f"{overhead['requests_per_config']} requests per configuration)")

    check(overhead["overhead_fraction"] < OVERHEAD_BUDGET,
          f"non-analyze explain overhead {overhead['overhead_fraction'] * 100:.2f}% "
          f"exceeds the {OVERHEAD_BUDGET * 100:.0f}% budget")
    print("explain smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
