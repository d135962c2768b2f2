"""Serving-layer walkthrough: catalog, prepared queries, appends, scheduler.

Builds a :class:`repro.service.BandJoinService`, registers a slowly
changing relation pair, and shows every execution path a served query can
take — cold (one inline join, never a plan), result-cached, delta (after an
append, also across a compaction) — plus a concurrent burst through the scheduler with
single-flight deduplication, checking that every burst answer equals the
answer its epsilon gets on its own.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.config import ServiceConfig  # noqa: E402
from repro.data.generators import correlated_pair, pareto_relation  # noqa: E402
from repro.local_join.base import canonical_pair_order  # noqa: E402
from repro.service import BandJoinService  # noqa: E402


def show(label: str, result) -> None:
    print(
        f"  {label:34s} path={result.path:12s} pairs={result.n_pairs:>9,} "
        f"latency={result.seconds * 1e3:8.2f} ms"
    )


def main() -> int:
    rows = 30_000
    s, t = correlated_pair(rows, rows, dimensions=2, z=1.5, seed=7)

    config = ServiceConfig(
        backend="threads",
        staleness_threshold=0.2,  # compact once deltas reach 20% of the base
        compaction="sync",        # deterministic for the demo; "background" in prod
    )
    with BandJoinService(config) as service:
        print(f"1. register the relation pair ({rows:,} rows each)")
        service.register("S", s)
        service.register("T", t)

        print("2. prepare a parameterized band join on (A1, A2)")
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=0.01)

        print("3. the three serving paths:")
        show("first query (inline join)", service.query("near"))
        show("repeat (materialized result)", service.query("near"))

        print("   ... append 1% fresh rows to S ...")
        service.append("S", pareto_relation("S", rows // 100, dimensions=2, z=1.5, seed=99))
        show("after append (delta join only)", service.query("near"))
        show("repeat (result re-cached)", service.query("near"))

        print("4. epsilon is a parameter — new widths reuse the machinery:")
        show("wider band, same prepared query", service.query("near", 0.02))
        show("asymmetric band per attribute", service.query("near", [(0.0, 0.02), (0.01, 0.01)]))

        print("5. concurrent burst through the scheduler:")
        before = service.scheduler.metrics.snapshot()
        burst = (0.01, 0.02, 0.005, 0.01, 0.02) * 4
        futures = [service.submit("near", eps) for eps in burst]
        answers = [future.result() for future in futures]
        metrics = service.scheduler.metrics.snapshot()
        # An answer never depends on what was queued with it: drop the cached
        # answers and recompute each epsilon on its own to compare.
        service.prepared("near").invalidate()
        alone = {eps: canonical_pair_order(service.query("near", eps).pairs) for eps in burst}
        for eps, answer in zip(burst, answers):
            assert np.array_equal(canonical_pair_order(answer.pairs), alone[eps]), eps
        print(
            f"  {len(futures)} requests -> "
            f"{metrics['submitted'] - before['submitted']} executions "
            f"({metrics['deduplicated'] - before['deduplicated']} deduplicated), "
            f"each answer equal to its epsilon queried alone"
        )

        print("6. a large append crosses the staleness threshold and compacts S:")
        service.append("S", pareto_relation("S", rows // 4, dimensions=2, z=1.5, seed=101))
        snapshot = service.catalog.get("S")
        assert snapshot.delta is None  # sync compaction ran inside the append
        print(
            f"  S compacted: base={len(snapshot.base):,} rows, "
            f"base_version={snapshot.base_version} (rows kept in place)"
        )
        after = service.query("near")
        show("after compaction (delta join)", after)
        # A compaction keeps every row where it was, so the cached answer
        # stays an anchor: only the appended rows are joined.
        assert after.path == "delta", after.path

        scheduler = service.stats()["scheduler"]
        print(
            f"\nscheduler totals: {scheduler['completed']} served, "
            f"p50={scheduler['latency']['p50'] * 1e3:.2f} ms, "
            f"p99={scheduler['latency']['p99'] * 1e3:.2f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
