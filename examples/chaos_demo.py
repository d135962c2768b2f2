"""Fault-tolerance walkthrough: a served workload and a planned join under
10% worker crashes.

Runs the same prepared band-join workload twice — once fault-free, once
with deterministic chaos injected (``worker_crash:0.1,task_slow:0.05``:
one worker death per ten pool tasks, one straggler per twenty tasks) — and
shows that the answers are bit-identical.  A served query joins inline on
its calling thread, so only stragglers reach it; the worker crashes hit a
planned join on the engine's thread pool, whose pairs stay identical while
the recovery telemetry records the crashes and retries.  Then demonstrates
the two other
robustness surfaces: torn segment writes on mmap storage (detected by
checksum, retried, never served), and overload degradation (a saturated
scheduler answering from a version-stale cached result, explicitly
marked, instead of erroring).

Run with::

    PYTHONPATH=src python examples/chaos_demo.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import faults  # noqa: E402
from repro.config import ServiceConfig  # noqa: E402
from repro.core.recpart import RecPartPartitioner  # noqa: E402
from repro.data.generators import correlated_pair  # noqa: E402
from repro.engine import ParallelJoinEngine, backends  # noqa: E402
from repro.geometry.band import BandCondition  # noqa: E402
from repro.local_join.base import canonical_pair_order  # noqa: E402
from repro.obs import registry  # noqa: E402
from repro.service import BandJoinService  # noqa: E402

FAULT_SPEC = "worker_crash:0.1,task_slow:0.05"
FAULT_SEED = 29
ROWS = 20_000

# Chaos needs a real pool to crash; don't let a single-CPU host quietly
# downgrade the thread backend to its serial shortcut.
backends._default_parallelism = lambda: max(2, os.cpu_count() or 1)


def run_workload(inject: str | None):
    """Serve the same query mix, optionally under fault injection."""
    s, t = correlated_pair(ROWS, ROWS, dimensions=2, z=1.5, seed=7)
    config = ServiceConfig(
        backend="threads", workers=4, compaction="sync", capture=False,
        inject_faults=inject, fault_seed=FAULT_SEED,
    )
    with BandJoinService(config) as service:
        service.register("S", s)
        service.register("T", t)
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=0.01)
        pairs = {
            eps: canonical_pair_order(service.query("near", eps).pairs)
            for eps in (0.005, 0.01, 0.02)
        }
        stats = service.stats()["scheduler"]
        health = service.health()
    return pairs, stats, health


def main() -> int:
    print(f"1. fault-free run ({ROWS:,} rows/side, 3 epsilons):")
    clean_pairs, clean_stats, _ = run_workload(None)
    for eps, pairs in clean_pairs.items():
        print(f"   eps={eps:<6} {len(pairs):>9,} pairs")

    print(f"\n2. same workload under {FAULT_SPEC!r} (seed {FAULT_SEED}):")
    chaos_pairs, chaos_stats, health = run_workload(FAULT_SPEC)
    for eps, pairs in chaos_pairs.items():
        identical = np.array_equal(pairs, clean_pairs[eps])
        print(f"   eps={eps:<6} {len(pairs):>9,} pairs  "
              f"{'IDENTICAL to fault-free' if identical else 'DIVERGED (bug!)'}")
        assert identical
    fired = health["fault_injection"]["fired"]
    print(f"   injector fired: {fired}")
    print(f"   p99 latency: {clean_stats['latency']['p99'] * 1e3:.1f} ms fault-free "
          f"-> {chaos_stats['latency']['p99'] * 1e3:.1f} ms under chaos "
          "(recovery costs time, never answers)")

    print("\n   a planned join on the engine's thread pool meets the worker crashes:")
    s, t = correlated_pair(ROWS, ROWS, dimensions=2, z=1.5, seed=7)
    condition = BandCondition.symmetric(["A1", "A2"], 0.01)
    plan = RecPartPartitioner().partition(s, t, condition, workers=32)
    clean = ParallelJoinEngine(backend="threads").execute(s, t, condition, plan, materialize=True)
    retries = registry().counter("repro_task_retries_total")
    before = sum(count for _, count in retries.items())
    faults.install(faults.FaultInjector(faults.parse_fault_spec(FAULT_SPEC), seed=FAULT_SEED))
    try:
        chaotic = ParallelJoinEngine(backend="threads").execute(
            s, t, condition, plan, materialize=True
        )
    finally:
        faults.uninstall()
    identical = np.array_equal(
        canonical_pair_order(chaotic.pairs), canonical_pair_order(clean.pairs)
    )
    print(f"   {len(chaotic.pairs):,} pairs over 32 tasks, "
          f"{'IDENTICAL to fault-free' if identical else 'DIVERGED (bug!)'}, "
          f"{sum(count for _, count in retries.items()) - before:.0f} task retries")
    assert identical

    print("\n3. torn segment writes on mmap storage (every spill torn once):")
    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory() as spill:
        config = ServiceConfig(
            backend="serial", compaction="sync", capture=False,
            storage="mmap", spill_dir=spill, spill_threshold_bytes=1,
            inject_faults="spill_torn:1", fault_seed=FAULT_SEED,
        )
        with BandJoinService(config) as service:
            service.register("S", {"A1": rng.normal(size=4000)})
            service.register("T", {"A1": rng.normal(size=4000)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            result = service.query("q")
            print(f"   every write checksum-failed and was retried into a fresh "
                  f"directory; query still answered {result.n_pairs:,} pairs")

    print("\n4. overload degradation: stale-but-marked beats an error:")
    config = ServiceConfig(
        backend="serial", compaction="sync", capture=False,
        scheduler_workers=1, max_pending=1, degraded_mode="stale",
    )
    with BandJoinService(config) as service:
        rng = np.random.default_rng(9)
        service.register("S", {"A1": rng.normal(size=4000)})
        service.register("T", {"A1": rng.normal(size=4000)})
        service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
        fresh = service.query("q")  # populates the result cache
        service.append("S", {"A1": rng.normal(size=400)})  # cache now stale

        # Saturate the single scheduler slot, then ask again: admission
        # control would reject, but a stale cached answer exists.
        blocker = service.submit("q", 0.02)  # holds the only slot
        stale = service.query("q")  # degraded: served from the stale cache
        blocker.result(timeout=60)
        print(f"   fresh answer: {fresh.n_pairs:,} pairs (path={fresh.path})")
        print(f"   under overload: {stale.n_pairs:,} pairs, path={stale.path}, "
              f"stale={stale.stale}, version_lag={stale.version_lag}")
        print(f"   degraded responses counted: "
              f"{service.scheduler.metrics.snapshot()['degraded']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
