"""End-to-end chaos smoke check: correctness is never sacrificed to faults.

Captures a mixed served workload fault-free, then replays the spooled log
into a fresh service with deterministic fault injection turned on
(``worker_crash:0.1,task_slow:0.05`` — one worker death per ten pool tasks
and one straggler per twenty tasks).  A served query joins inline on its
calling thread, where only stragglers reach it, so an engine leg runs the
crashes: a planned ``engine.execute`` on a thread pool under
``worker_crash:0.1``.  The acceptance bar:

* **100% of admitted queries succeed** under chaos — the replay report
  counts zero failures and zero overload rejections,
* **every answer is bit-identical**: all replayed fingerprints match the
  fault-free capture, and the engine leg's pairs equal a serial run of the
  same plan (crash recovery may cost retries and fallbacks, never pairs),
* injected **torn segment writes** on mmap storage are detected by
  checksum, retried into fresh directories, and still register — no
  silent corruption,
* recovery work is *visible*: the engine leg moved the retry/crash
  telemetry counters.

Also measures p99 latency inflation (chaos vs fault-free) over the same
direct query loop and writes ``BENCH_chaos.json`` with the success rate,
recovery counter deltas, fault firing statistics and the latency tax.
Exits non-zero on any violation.

Run with::

    PYTHONPATH=src python benchmarks/smoke_chaos.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

OUT_PATH = ROOT / "BENCH_chaos.json"

ROWS = 3000
EPSILONS = (0.005, 0.01, 0.02)
FAULT_SPEC = "worker_crash:0.1,task_slow:0.05"
# Fault keys are deterministic: a served query's inline task always draws
# the same ``task_slow`` key, so only its kernel chunks draw fresh ones.
# Seed 0 is the first from 0 up where one of the replay's 13 ``task_slow``
# points fires (a third of seeds do); at 0.1 on the engine leg's tasks a
# crash fires under almost any seed.
FAULT_SEED = 0
#: Tasks of the engine leg's plan: fault keys are (backend, task, attempt),
#: so at a 0.1 crash rate this many tasks make a crash all but certain.
ENGINE_WORKERS = 32
LATENCY_QUERIES = 24


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def force_real_pools() -> None:
    """Pin pool sizing above 1 so single-CPU runners still exercise the
    crash-recovery machinery instead of quietly taking the serial shortcut."""
    from repro.engine import backends

    width = max(2, os.cpu_count() or 1)
    backends._default_parallelism = lambda: width


def recovery_totals() -> dict[str, float]:
    """Sum the process-wide recovery counters across their label sets."""
    from repro.obs.globals import registry

    totals = {}
    for name in (
        "repro_task_retries_total",
        "repro_worker_crashes_total",
        "repro_backend_fallbacks_total",
        "repro_segment_recoveries_total",
    ):
        counter = registry().counter(name)
        totals[name] = sum(count for _, count in counter.items())
    return totals


def drive_capture(spool_path: str) -> int:
    """Capture the reference workload fault-free; returns the query count."""
    from repro.config import ServiceConfig
    from repro.data.generators import pareto_relation
    from repro.service import BandJoinService

    config = ServiceConfig(
        backend="threads", workers=4, scheduler_workers=2,
        compaction="sync", capture_log=spool_path,
    )
    with BandJoinService(config) as service:
        s = pareto_relation("S", ROWS, dimensions=2, z=1.5, seed=1)
        t = pareto_relation("T", ROWS, dimensions=2, z=1.5, seed=2)
        service.register("S", s)
        service.register("T", t)
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=EPSILONS[0])
        service.prepare("wide", "S", "T", attributes=["A1"], epsilons=0.03)
        queries = 0
        for eps in EPSILONS:
            service.query("near", eps)
            queries += 1
        service.query("wide")
        queries += 1
        delta = pareto_relation("S", ROWS // 20, dimensions=2, z=1.5, seed=3)
        service.append("S", delta)
        for eps in EPSILONS:
            service.query("near", eps)
            queries += 1
    return queries


def latency_p99(inject: str | None) -> float:
    """p99 of the same cache-miss query loop, with and without chaos."""
    from repro.config import ServiceConfig
    from repro.data.generators import pareto_relation
    from repro.service import BandJoinService

    config = ServiceConfig(
        backend="threads", workers=4, scheduler_workers=2,
        compaction="sync", capture=False,
        inject_faults=inject, fault_seed=FAULT_SEED,
    )
    with BandJoinService(config) as service:
        service.register("S", pareto_relation("S", ROWS, dimensions=2, z=1.5, seed=1))
        service.register("T", pareto_relation("T", ROWS, dimensions=2, z=1.5, seed=2))
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=0.01)
        # A distinct epsilon per query keeps every request a cache miss, so
        # the percentile measures execution (and its retries), not cache hits.
        for i in range(LATENCY_QUERIES):
            service.query("near", 0.004 + i * 0.0005)
        return service.stats()["scheduler"]["latency"]["p99"]


def engine_leg() -> tuple[int, dict[str, float]]:
    """Execute one RecPart plan on a thread pool under ``worker_crash:0.1``;
    its pairs must equal a serial run of the same plan.  Returns the pair
    count and the recovery counters it moved."""
    import numpy as np

    from repro import faults
    from repro.core.recpart import RecPartPartitioner
    from repro.data.generators import pareto_relation
    from repro.engine import ParallelJoinEngine
    from repro.geometry.band import BandCondition
    from repro.local_join.base import canonical_pair_order

    s = pareto_relation("S", ROWS, dimensions=2, z=1.5, seed=1)
    t = pareto_relation("T", ROWS, dimensions=2, z=1.5, seed=2)
    condition = BandCondition.symmetric(["A1", "A2"], 0.01)
    plan = RecPartPartitioner().partition(s, t, condition, workers=ENGINE_WORKERS)
    expected = ParallelJoinEngine(backend="serial").execute(
        s, t, condition, plan, materialize=True
    )
    before = recovery_totals()
    faults.install(faults.FaultInjector({"worker_crash": 0.1}, seed=FAULT_SEED))
    try:
        result = ParallelJoinEngine(backend="threads").execute(
            s, t, condition, plan, materialize=True
        )
    finally:
        faults.uninstall()
    after = recovery_totals()
    check(
        np.array_equal(canonical_pair_order(result.pairs), canonical_pair_order(expected.pairs)),
        "engine leg: pairs under worker crashes differ from the serial run",
    )
    return result.pairs.shape[0], {name: after[name] - before[name] for name in after}


def torn_storage_leg() -> int:
    """Register on mmap storage with every spill torn; must still succeed."""
    import numpy as np

    from repro.config import ServiceConfig
    from repro.service import BandJoinService

    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory() as spill:
        config = ServiceConfig(
            backend="serial", compaction="sync", capture=False,
            storage="mmap", spill_dir=spill, spill_threshold_bytes=1,
            inject_faults="spill_torn:1", fault_seed=FAULT_SEED,
        )
        with BandJoinService(config) as service:
            service.register("S", {"A1": rng.normal(size=2000)})
            service.register("T", {"A1": rng.normal(size=2000)})
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            result = service.query("q")
            check(result.n_pairs > 0, "torn-storage service produced no pairs")
            return result.n_pairs


def main() -> int:
    force_real_pools()
    from repro.config import ServiceConfig
    from repro.obs.workload import replay_log

    with tempfile.TemporaryDirectory() as tmp:
        spool = str(Path(tmp) / "capture.jsonl")
        captured = drive_capture(spool)
        print(f"captured {captured} fault-free queries to the spool")

        before = recovery_totals()
        chaos_config = ServiceConfig(
            backend="threads", workers=4, scheduler_workers=2,
            capture=False, compaction="sync", degraded_mode="reject",
            inject_faults=FAULT_SPEC, fault_seed=FAULT_SEED,
        )
        report = replay_log(spool, config=chaos_config, speed=None)
        after = recovery_totals()

    print(report.describe())
    check(report.ok, "chaos replay diverged from the fault-free capture")
    check(report.rejected == 0,
          f"{report.rejected} queries rejected under chaos; expected 0")
    check(report.verified == captured,
          f"verified {report.verified}/{captured} fingerprints under chaos")
    check(report.fault_stats is not None and report.fault_stats["fired"],
          f"fault injector never fired: {report.fault_stats}")

    replay_recovery = {name: after[name] - before[name] for name in after}
    print(f"served replay under {FAULT_SPEC!r}: {report.fault_stats}")

    engine_pairs, recovery = engine_leg()
    retries = recovery["repro_task_retries_total"]
    check(retries > 0, "no task retries recorded — chaos exercised nothing")
    print(f"engine leg under 'worker_crash:0.1' ({ENGINE_WORKERS} tasks, "
          f"{engine_pairs:,} pairs, identical to serial): "
          f"{retries:.0f} task retries, "
          f"{recovery['repro_worker_crashes_total']:.0f} worker crashes, "
          f"{recovery['repro_backend_fallbacks_total']:.0f} backend fallbacks")

    torn_pairs = torn_storage_leg()
    torn_recoveries = recovery_totals()["repro_segment_recoveries_total"]
    check(torn_recoveries > 0, "torn spills never tripped the checksum retry")
    print(f"torn-storage leg: {torn_pairs:,} pairs served, "
          f"{torn_recoveries:.0f} segment recoveries")

    baseline_p99 = latency_p99(None)
    chaos_p99 = latency_p99(FAULT_SPEC)
    inflation = chaos_p99 / baseline_p99 if baseline_p99 > 0 else float("inf")
    print(f"p99 latency: fault-free {baseline_p99 * 1e3:.2f} ms, "
          f"chaos {chaos_p99 * 1e3:.2f} ms ({inflation:.2f}x)")

    OUT_PATH.write_text(json.dumps({
        "fault_spec": FAULT_SPEC,
        "fault_seed": FAULT_SEED,
        "queries": captured,
        "verified": report.verified,
        "success_rate": 1.0,
        "mismatches": len(report.mismatches),
        "rejected": report.rejected,
        "fault_stats": report.fault_stats,
        "replay_recovery_counters": replay_recovery,
        "engine_leg_pairs": engine_pairs,
        "recovery_counters": recovery,
        "torn_segment_recoveries": torn_recoveries,
        "p99_seconds_baseline": baseline_p99,
        "p99_seconds_chaos": chaos_p99,
        "p99_inflation": inflation,
    }, indent=2) + "\n")
    print(f"wrote {OUT_PATH.name}")

    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
