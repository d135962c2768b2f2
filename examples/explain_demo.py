"""EXPLAIN / EXPLAIN ANALYZE walkthrough: estimates, actuals, prices.

Runs a served band join and prints the introspection surfaces in the order
an operator would reach for them:

1. **EXPLAIN** — what the service *would* run: the one inline task a cold
   query joins its bases with (input, output, candidate and kernel-chunk
   estimates), and the local kernel with its sampled per-dimension window
   fractions.  Nothing executes and nothing is planned.
2. **EXPLAIN ANALYZE** — the same tree after one real execution, every
   estimate annotated with its actual and q-error.
3. **Appends** — a batch of appends grows the S side by 30%; the next
   answer extends the cached one, so the tree reports a ``delta_join`` of
   the appended rows and no base join.
4. **Prices** — the cold query measured the kernel rate κ, so the
   ``inline`` node of a new epsilon carries κ·L in seconds, and EXPLAIN
   ANALYZE of that epsilon sets the measured seconds beside it.

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


def node(report, name: str):
    return next(c for c in report.root.children if c.name == name)


def main() -> int:
    rows = 20_000
    s, t = correlated_pair(rows, rows, dimensions=2, z=1.5, seed=7)

    config = ServiceConfig(
        backend="threads",
        staleness_threshold=math.inf,  # keep appends un-compacted for the delta demo
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

        print("\n=== 3. appends: a delta answer ===")
        # Grow S by 30% in three deltas.  The cached answer is the anchor:
        # only the appended rows are joined, and no base join runs.
        for seed in (101, 102, 103):
            service.append(
                "S", pareto_relation("S", rows // 10, dimensions=2, z=1.5, seed=seed)
            )
        extended = service.explain("near", analyze=True)
        print(extended.render())
        delta = node(extended, "delta_join")
        print(f"\npath={extended.path}: {delta.actuals['input']:,.0f} rows joined "
              f"for {delta.actuals['output']:,.0f} new pairs")

        print("\n=== 4. the inline join's price ===")
        # The first cold query measured κ; a new epsilon is priced at κ·L.
        priced = service.explain("near", epsilons=0.0175, analyze=True)
        inline = node(priced, "inline")
        print(f"κ·L {inline.estimates['seconds'] * 1e3:.2f} ms vs measured "
              f"{inline.actuals['seconds'] * 1e3:.2f} ms "
              f"(q={inline.qerrors()['seconds']:.2f})")
        print(f"plans built: {len(service.engine.plan_cache)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
