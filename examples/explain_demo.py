"""EXPLAIN / EXPLAIN ANALYZE walkthrough: estimates, actuals, calibration.

Runs a served band join and prints the introspection surfaces in the order
an operator would reach for them:

1. **EXPLAIN** — the plan the service *would* run: chosen partitioning with
   per-worker input/output estimates, the local kernel with its sampled
   per-dimension window fractions, and the cost-model pricing.  Nothing
   executes.
2. **EXPLAIN ANALYZE** — the same tree after one real execution, every
   estimate annotated with its actual and q-error.
3. **Drift** — a batch of appends grows the S side by 30%; the sampled
   estimate tracks the new size, but the *partitioning* was optimized over
   the original base rows, so its per-worker q-errors visibly drift.
4. **Calibration** — enough analyzed runs accumulate in the calibration
   store for ``calibrate()`` to refit the running-time betas, after which
   EXPLAIN prices plans in real seconds instead of abstract load units.

Run with::

    PYTHONPATH=src python examples/explain_demo.py
"""

from __future__ import annotations

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
        staleness_threshold=10.0,      # keep appends un-compacted for the drift demo
        compaction="off",
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

        print("\n=== 4. calibration after 20+ analyzed runs ===")
        for i in range(22):
            service.explain("near", epsilons=0.008 + 0.0004 * i, analyze=True)
        report = service.calibrate()
        betas = report.model.coefficients
        print(f"refit over {report.n_records} analyzed runs: "
              f"relative error {report.before_error:.3g} -> {report.after_error:.3g}")
        print(f"betas: beta0={betas.beta0:.3g} beta1={betas.beta1:.3g} "
              f"beta2={betas.beta2:.3g} beta3={betas.beta3:.3g}")
        print(f"mean output q-error of the window: {report.mean_output_qerror:.3f}")

        # EXPLAIN now auto-picks the calibrated model: the cost node prices
        # the plan in seconds, comparable against the measured wall time.
        # A fresh epsilon forces a real execution (a cache-served analyze
        # would have no wall time to price against).
        calibrated = service.explain("near", epsilons=0.0175, analyze=True)
        cost = next(c for c in calibrated.root.children if c.name == "cost_model")
        print(f"\ncalibrated cost node: predicted {cost.estimates['seconds'] * 1e3:.2f} ms, "
              f"measured {cost.actuals['seconds'] * 1e3:.2f} ms "
              f"(q={cost.qerrors()['seconds']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
