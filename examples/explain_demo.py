"""EXPLAIN / EXPLAIN ANALYZE walkthrough: estimates, actuals, prices.

Runs a served band join and prints the introspection surfaces in the order
an operator would reach for them:

1. **EXPLAIN** — the plan the service *would* run: chosen partitioning with
   per-worker input/output estimates, and the local kernel with its
   sampled per-dimension window fractions.  Nothing executes.
2. **EXPLAIN ANALYZE** — the same tree after one real execution, every
   estimate annotated with its actual and q-error.
3. **Drift** — a batch of appends grows the S side by 30%; the sampled
   estimate tracks the new size, but the *partitioning* was optimized over
   the original base rows, so its per-worker q-errors visibly drift.
4. **Prices** — a cold query measures the kernel rate κ and the plan's
   cost P, so the ``inline`` node of a new epsilon prices one inline
   kernel call (κ·L) against a plan (κ·L/p + P) in seconds; the cheaper
   one is what the cold path runs.

Run with::

    PYTHONPATH=src python examples/explain_demo.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import ServiceConfig  # noqa: E402
from repro.data.generators import correlated_pair, pareto_relation  # noqa: E402
from repro.service import BandJoinService  # noqa: E402


def worker_qerrors(report) -> list[float]:
    plan = next(c for c in report.root.children if c.name == "partitioning")
    return [
        round(node.qerrors().get("input", 1.0), 3)
        for node in plan.children
        if node.name.startswith("worker")
    ]


def main() -> int:
    rows = 20_000
    s, t = correlated_pair(rows, rows, dimensions=2, z=1.5, seed=7)

    config = ServiceConfig(
        backend="threads",
        staleness_threshold=math.inf,  # keep appends un-compacted for the drift demo
    )
    with BandJoinService(config) as service:
        service.register("S", s)
        service.register("T", t)
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=0.01)

        print("=== 1. EXPLAIN (no execution) ===")
        print(service.explain("near").render())

        print("\n=== 2. EXPLAIN ANALYZE (executes once, grafts actuals) ===")
        analyzed = service.explain("near", analyze=True)
        print(analyzed.render())
        print(f"\nper-worker input q-errors: {worker_qerrors(analyzed)}")

        print("\n=== 3. estimate drift after appends ===")
        # Grow S by 30% in three deltas.  The partitioning plan was optimized
        # over the *base* rows, so the routed per-worker estimates and the
        # optimizer's own projections drift away from the measured actuals.
        for seed in (101, 102, 103):
            service.append(
                "S", pareto_relation("S", rows // 10, dimensions=2, z=1.5, seed=seed)
            )
        drifted = service.explain("near", analyze=True)
        print(drifted.render())
        print(f"\nper-worker input q-errors after append: {worker_qerrors(drifted)}")
        print(f"max q-error before {analyzed.max_qerror():.2f} "
              f"vs after {drifted.max_qerror():.2f}")

        print("\n=== 4. the cold decision's prices ===")
        # The plans so far were built by EXPLAIN, which measures nothing; a
        # cold query of a new epsilon measures κ and P.
        service.query("near", epsilons=0.0125)
        priced = service.explain("near", epsilons=0.0175)
        inline = next(c for c in priced.root.children if c.name == "inline")
        plan_seconds = inline.attrs.get("plan_seconds")
        print(f"one inline call {inline.estimates['seconds'] * 1e3:.2f} ms vs a plan "
              + ("(not priced yet)" if plan_seconds is None else f"{plan_seconds * 1e3:.2f} ms")
              + f" at p={inline.attrs['parallelism']} -> "
              + ("inline" if inline.attrs["chosen"] else "plan"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
