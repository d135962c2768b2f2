"""Benchmark of the band-join serving layer.

Measures the four execution paths of :class:`repro.service.BandJoinService`
on the standard Table-2-style Pareto workload:

``cold``
    First query for an epsilon: a full join, either as one inline kernel
    call or after a RecPart optimization, whichever the service's measured
    prices say is cheaper (the first epsilon always plans: its plan price is
    not known yet).
``plan_cache``
    Result caches dropped, plans kept: full join under a cached plan (only
    the epsilons whose cold query planned have one).
``result_cache``
    Repeat query: answered from the materialized-result cache.
``delta``
    Query after appending a 1% delta: cached result plus one local join of
    only the appended rows against the probed rows of the other side.

Each path is sampled across several epsilon parameters of one prepared
query (and several repeats for the sub-millisecond paths), then a
concurrent section pushes a mixed epsilon workload through the scheduler
to measure sustained throughput with single-flight dedup (one execution
per distinct request).

The machine-readable record lands in ``BENCH_service.json`` at the
repository root (override with ``REPRO_BENCH_SERVICE_OUT``), including the
speedup of the result-cached and delta paths over cold — the serving
layer's reason to exist; both are expected to clear 10x on any machine.

Run standalone for the full-size measurement, or ``--smoke`` for the CI
end-to-end exercise::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke]
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from repro.config import ServiceConfig  # noqa: E402
from repro.data.generators import correlated_pair, pareto_relation  # noqa: E402
from repro.metrics.report import format_table  # noqa: E402
from repro.service import BandJoinService  # noqa: E402

#: Full-size workload shape (Table-2-style 2-d Pareto-1.5 band join).
FULL_ROWS_PER_INPUT = 50_000
SMOKE_ROWS_PER_INPUT = 4_000
DIMENSIONS = 2
SKEW = 1.5
WORKERS = 8
DELTA_FRACTION = 0.01
#: Epsilon parameters sampled per path (each is one prepared-query binding).
EPSILONS = (0.004, 0.006, 0.008, 0.010, 0.012, 0.014)
RESULT_CACHE_REPEATS = 5
CONCURRENT_REQUESTS = 60
CAPTURE_BURST = 500
CAPTURE_REPEAT = 9


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def pick(q: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

    return {
        "p50": pick(0.50),
        "p95": pick(0.95),
        "p99": pick(0.99),
        "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        "samples": len(ordered),
    }


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_service_benchmark(rows_per_input: int) -> dict:
    """Measure every serving path on one workload and return the perf record."""
    s, t = correlated_pair(
        rows_per_input, rows_per_input, dimensions=DIMENSIONS, z=SKEW, seed=0
    )
    attributes = [f"A{i + 1}" for i in range(DIMENSIONS)]
    delta_rows = max(1, int(rows_per_input * DELTA_FRACTION))
    config = ServiceConfig(
        backend="threads",
        workers=WORKERS,
        staleness_threshold=10.0,  # keep the deltas un-compacted while measuring
        compaction="off",
        scheduler_workers=4,
    )

    latencies: dict[str, list[float]] = {
        "cold": [],
        "plan_cache": [],
        "result_cache": [],
        "delta": [],
    }
    outputs: dict[float, int] = {}

    with BandJoinService(config) as service:
        service.register("S", s)
        service.register("T", t)
        prepared = service.prepare(
            "bench", "S", "T", attributes=attributes, epsilons=EPSILONS[0]
        )

        # Path 1: cold — every epsilon joins inline or optimizes and joins.
        planned: dict[float, bool] = {}
        for eps in EPSILONS:
            result = service.query("bench", eps)
            assert result.path == "cold", result.path
            latencies["cold"].append(result.seconds)
            outputs[eps] = result.n_pairs
            planned[eps] = not result.inline

        # Path 2: plan-cached — drop materialized results, keep the plans.
        # An epsilon whose cold query planned runs its cached plan; one that
        # joined inline built no plan and joins inline again.
        prepared.invalidate()
        for eps in EPSILONS:
            result = service.query("bench", eps)
            expected_path = "plan_cache" if planned[eps] else "cold"
            assert (result.path, result.inline) == (expected_path, not planned[eps]), (
                eps, result.path, result.inline,
            )
            assert result.n_pairs == outputs[eps]
            if planned[eps]:
                latencies["plan_cache"].append(result.seconds)

        # Path 3: result-cached — repeats answer from the result cache.
        for _ in range(RESULT_CACHE_REPEATS):
            for eps in EPSILONS:
                result = service.query("bench", eps)
                assert result.path == "result_cache", result.path
                latencies["result_cache"].append(result.seconds)
                assert result.n_pairs == outputs[eps]

        # Path 4: post-append delta — 1% of fresh rows on the S side.
        delta = pareto_relation("S", delta_rows, dimensions=DIMENSIONS, z=SKEW, seed=99)
        service.append("S", delta)
        for eps in EPSILONS:
            result = service.query("bench", eps)
            assert result.path == "delta", result.path
            latencies["delta"].append(result.seconds)
            assert result.n_pairs >= outputs[eps]

        # Concurrent section: mixed epsilons through the scheduler.
        throughput_start = time.perf_counter()
        futures = [
            service.submit("bench", EPSILONS[i % len(EPSILONS)])
            for i in range(CONCURRENT_REQUESTS)
        ]
        for future in futures:
            future.result(timeout=600)
        throughput_seconds = time.perf_counter() - throughput_start
        scheduler_snapshot = service.scheduler.metrics.snapshot()

        # Capture overhead: the workload recorder must cost < 5% on the
        # cached-path throughput (the path where fixed costs dominate).
        capture = measure_capture_overhead(service, repeat=CAPTURE_REPEAT)

    paths = {path: _percentiles(samples) for path, samples in latencies.items()}
    cold_p50 = paths["cold"]["p50"]
    record = {
        "benchmark": "service-paths",
        "workload": {
            "rows_per_input": rows_per_input,
            "dimensions": DIMENSIONS,
            "skew": SKEW,
            "workers": WORKERS,
            "epsilons": list(EPSILONS),
            "delta_rows": delta_rows,
            "delta_fraction": DELTA_FRACTION,
        },
        "machine": {
            "cpus": _cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "paths": paths,
        "speedup_vs_cold": {
            path: (cold_p50 / stats["p50"]) if stats["p50"] > 0 else float("inf")
            for path, stats in paths.items()
        },
        "concurrent": {
            "requests": CONCURRENT_REQUESTS,
            "wall_seconds": throughput_seconds,
            "throughput_qps": CONCURRENT_REQUESTS / throughput_seconds
            if throughput_seconds
            else float("inf"),
            "scheduler": scheduler_snapshot,
        },
        "cold_decisions": {
            "planned": sum(planned.values()),
            "inline": len(planned) - sum(planned.values()),
        },
        "output_pairs": {str(eps): count for eps, count in sorted(outputs.items())},
        "capture": capture,
    }
    record["result_cache_speedup_ok"] = record["speedup_vs_cold"]["result_cache"] >= 10.0
    record["delta_speedup_ok"] = record["speedup_vs_cold"]["delta"] >= 10.0
    record["capture_overhead_ok"] = capture["overhead_fraction"] < 0.05
    return record


def measure_capture_overhead(service: BandJoinService, repeat: int = CAPTURE_REPEAT) -> dict:
    """Time cached-path queries with the recorder detached vs attached.

    Every query answers from the materialized-result cache — the path where
    the per-request fixed costs (and therefore any capture overhead)
    dominate.  The recorder is toggled on **every other request** and the
    two per-request latency populations are compared by their medians:
    per-query interleaving exposes both configurations to the same machine
    load at the same time, and the median discards scheduler-jitter
    outliers, so a microsecond-level effect resolves cleanly where
    burst-vs-burst comparisons drown it in noise.  The ISSUE budget is
    < 5% overhead.
    """
    recorder = service.scheduler.recorder
    latencies: dict[bool, list[float]] = {False: [], True: []}
    try:
        for i in range(2 * CAPTURE_BURST * max(1, repeat)):
            enabled = bool(i & 1)
            # i // 2 keeps the epsilon sequence identical per configuration.
            eps = EPSILONS[(i // 2) % len(EPSILONS)]
            service.scheduler.recorder = recorder if enabled else None
            start = time.perf_counter()
            service.query("bench", eps)
            latencies[enabled].append(time.perf_counter() - start)
    finally:
        service.scheduler.recorder = recorder
    disabled = sorted(latencies[False])[len(latencies[False]) // 2]
    enabled = sorted(latencies[True])[len(latencies[True]) // 2]
    return {
        "requests_per_config": CAPTURE_BURST * max(1, repeat),
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_fraction": (enabled - disabled) / disabled if disabled else 0.0,
    }


def render(record: dict) -> str:
    """Render the perf record as an aligned table."""
    rows = [
        [
            path,
            stats["samples"],
            stats["p50"],
            stats["p95"],
            stats["p99"],
            record["speedup_vs_cold"][path],
        ]
        for path, stats in record["paths"].items()
    ]
    concurrent = record["concurrent"]
    title = (
        f"serving paths (|S|=|T|={record['workload']['rows_per_input']:,}, "
        f"w={record['workload']['workers']}, {record['machine']['cpus']} CPUs) — "
        f"concurrent: {concurrent['throughput_qps']:.0f} q/s over "
        f"{concurrent['requests']} mixed requests"
    )
    table = format_table(
        ["path", "n", "p50 [s]", "p95 [s]", "p99 [s]", "vs cold"], rows, title=title
    )
    capture = record.get("capture")
    if capture:
        table += (
            f"\nworkload capture overhead on the cached path: "
            f"{capture['overhead_fraction'] * 100:+.2f}% "
            f"(median per-request {capture['disabled_seconds'] * 1e6:.1f}us off vs "
            f"{capture['enabled_seconds'] * 1e6:.1f}us on, interleaved over "
            f"{capture['requests_per_config']} requests per configuration)"
        )
    return table


def record_path() -> Path:
    """Return the output path of the JSON perf record."""
    override = os.environ.get("REPRO_BENCH_SERVICE_OUT")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_service.json"


def write_record(record: dict) -> Path:
    """Write the JSON perf record and return its path."""
    path = record_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_service_paths_benchmark():
    """The fast paths clear 10x over cold; the record lands in BENCH_service.json."""
    from conftest import bench_scale, write_report

    rows = max(SMOKE_ROWS_PER_INPUT, int(FULL_ROWS_PER_INPUT * bench_scale()))
    record = run_service_benchmark(rows)
    assert record["result_cache_speedup_ok"]
    assert record["delta_speedup_ok"]
    path = write_record(record)
    write_report("service_paths", render(record) + f"\n[record written to {path}]")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        rows_arg = SMOKE_ROWS_PER_INPUT
    else:
        positional = [a for a in sys.argv[1:] if not a.startswith("-")]
        rows_arg = int(positional[0]) if positional else FULL_ROWS_PER_INPUT
    perf_record = run_service_benchmark(rows_arg)
    print(render(perf_record))
    print(f"\n[record written to {write_record(perf_record)}]")
    if not perf_record["capture_overhead_ok"]:
        print("WARNING: workload capture overhead exceeded the 5% budget")
    if not (perf_record["result_cache_speedup_ok"] and perf_record["delta_speedup_ok"]):
        print("WARNING: a fast path fell below the expected 10x speedup over cold")
        sys.exit(1)
