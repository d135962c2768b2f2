"""End-to-end workload capture/replay smoke check.

Drives a live :class:`repro.service.BandJoinService` with capture spooling
enabled through a mixed workload (registrations, prepares, every query
path, a chain of delta appends crossing the compaction threshold), then
closes the loop the observatory promises:

* the SLO monitor — configured with generous objectives — reports the
  service healthy and records **zero breaches** over the run,
* the :class:`~repro.obs.workload.Workload` snapshot taken from the live
  ring agrees with the one rebuilt from the spooled log (drift score 0)
  and survives a JSON round-trip losslessly,
* replaying the spooled log into **fresh** services — once on the threads
  backend and once on the serial backend — reproduces every captured
  result fingerprint exactly (the determinism acceptance criterion).

Writes the live snapshot to ``WORKLOAD_snapshot.json`` so CI can upload it
as an artifact.  Exits non-zero on any violation.

Run with::

    PYTHONPATH=src python benchmarks/smoke_workload_replay.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

OUT_PATH = ROOT / "WORKLOAD_snapshot.json"

ROWS = 3000
DELTA_ROWS = 150
#: Appends to S (the fifth crosses the 25% staleness threshold, so the sync
#: compaction merges the delta into the base mid-chain), then one to T.
APPENDS = ("S",) * 6 + ("T",)
EPSILONS = (0.005, 0.01, 0.02)
#: Cold per epsilon, result-cache repeats, one "wide" query, then a delta
#: query per epsilon after every append.
QUERIES = 2 * len(EPSILONS) + 1 + len(APPENDS) * len(EPSILONS)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def drive_capture(spool_path: str):
    """Run the mixed workload under capture and return (snapshot, health)."""
    from repro.config import ServiceConfig
    from repro.data.generators import pareto_relation
    from repro.service import BandJoinService

    config = ServiceConfig(
        backend="threads",
        workers=4,
        scheduler_workers=2,
        compaction="sync",
        capture_log=spool_path,
        slo_p99_seconds=60.0,
        slo_error_rate=0.5,
        slo_cache_hit_floor=0.0,
        slo_queue_depth=1_000,
        slo_interval=0.0,  # evaluate on demand, not on a background cadence
    )
    with BandJoinService(config) as service:
        s = pareto_relation("S", ROWS, dimensions=2, z=1.5, seed=1)
        t = pareto_relation("T", ROWS, dimensions=2, z=1.5, seed=2)
        service.register("S", s)
        service.register("T", t)
        service.prepare("near", "S", "T", attributes=["A1", "A2"], epsilons=EPSILONS[0])
        service.prepare("wide", "S", "T", attributes=["A1"], epsilons=0.03)

        for eps in EPSILONS:  # cold per epsilon, then result-cache repeats
            service.query("near", eps)
        for eps in EPSILONS:
            service.query("near", eps)
        service.query("wide")

        # Each delta answer extends the previous one: its captured
        # fingerprint is a chained hash sum over merged pair segments, which
        # both replays below recompute from scratch.
        for seed, side in enumerate(APPENDS, start=3):
            delta = pareto_relation(side, DELTA_ROWS, dimensions=2, z=1.5, seed=seed)
            service.append(side, delta)
            for eps in EPSILONS:
                service.query("near", eps)

        health = service.health()
        snapshot = service.workload_snapshot()
    return snapshot, health


def main() -> int:
    from repro.obs.workload import Workload, replay_log

    with tempfile.TemporaryDirectory() as tmp:
        spool = str(Path(tmp) / "capture.jsonl")
        snapshot, health = drive_capture(spool)

        check(health["healthy"] is True, f"service unhealthy under smoke load: {health}")
        breaches = health["breaches_total"]
        check(breaches == 0, f"expected zero SLO breaches, saw {breaches}: {health}")
        print(f"health: OK ({len(health['objectives'])} objectives, 0 breaches)")

        queries = snapshot.total_arrivals
        check(queries == QUERIES, f"expected {QUERIES} captured query arrivals, saw {queries}")

        # The ring view and the spooled log must describe the same workload.
        from_log = Workload.from_log_file(spool)
        drift = snapshot.diff(from_log)["score"]
        check(drift == 0.0, f"ring vs spool snapshot drift {drift}")

        # JSON round-trip is lossless.
        roundtrip = Workload.from_json(snapshot.to_json())
        check(snapshot.diff(roundtrip)["score"] == 0.0, "snapshot JSON round-trip drifted")

        OUT_PATH.write_text(snapshot.to_json(indent=2) + "\n")
        print(f"wrote {OUT_PATH.name} ({queries} query arrivals, "
              f"drift vs spool {drift:.3f})")

        # Replay must reproduce every captured fingerprint, on both a
        # threaded and a serial stack (pair order differs; content must not).
        from repro.config import ServiceConfig

        for backend, workers in (("threads", 2), ("serial", 1)):
            config = ServiceConfig(
                backend=backend, scheduler_workers=workers,
                capture=False, compaction="sync",
            )
            report = replay_log(spool, config=config, speed=None)
            check(report.ok, f"replay on {backend} diverged:\n{report.describe()}")
            check(report.verified == QUERIES,
                  f"replay on {backend} verified {report.verified}/{QUERIES} fingerprints")
            print(f"replay[{backend}]: {report.events} events, "
                  f"{report.verified} fingerprints verified, 0 mismatches")

    print("workload replay smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
