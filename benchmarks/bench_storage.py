"""Out-of-core storage benchmark: join a dataset ~10x a memory ceiling.

The proof obligation of the pluggable column-storage layer: generate two
wide relations directly into memory-mapped segments (they are never heap
resident), size the pair so the on-disk payload is **ten times** a
configured memory ceiling, and run a streamed band-join whose peak
resident-set growth must stay **under** that ceiling.  Three runs are
enforced — a zero-materialization count, a materialized run with a
narrow band, and the same materialized run with every worker task over
the task spill threshold — then a non-enforced phase re-joins the same
join-attribute values on the ordinary in-memory path and demands the
exact same pair set for both materialized runs.

The peak is measured with the kernel's own high-water mark
(``VmHWM`` from ``/proc/self/status``), reset at the start of each
enforced run via ``/proc/self/clear_refs``, so the number covers exactly
the streamed join: routing, spill-backed worker tasks, kernels and merge.
On platforms without a resettable high-water mark the run still verifies
correctness but records ``"enforced": false`` instead of failing.

Writes ``BENCH_storage.json`` at the repository root (override with
``REPRO_BENCH_STORAGE_OUT``) and exits nonzero on a ceiling breach or a
pair-set mismatch::

    PYTHONPATH=src python benchmarks/bench_storage.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core.recpart import RecPartPartitioner
from repro.geometry.band import BandCondition
from repro.data.relation import Relation
from repro.data.storage import MmapColumnStore
from repro.engine import backends
from repro.engine.engine import ParallelJoinEngine
from repro.obs.process import (
    current_rss_bytes,
    peak_rss_bytes,
    reset_peak_rss,
)

#: Dataset-to-ceiling ratio the benchmark certifies.
CEILING_RATIO = 10.0

FULL = dict(rows=500_000, payload_cols=39, epsilon=4e-7, chunk_bytes=1 << 20)
SMOKE = dict(rows=250_000, payload_cols=39, epsilon=8e-7, chunk_bytes=512 << 10)

#: Task spill threshold of the "spilled" run: far below a worker task here,
#: so every task gathers its rows, and its kernels sort, into scratch files.
#: Chunks are smaller than a unit, so the streamer regroups every task too.
SPILLED_TASK_BYTES = 64 << 10

#: Resident-page budget per mapped segment chain: pages read from the
#: segments are dropped (``madvise(MADV_DONTNEED)``) once a chain exceeds
#: this, so streaming over a 10x-RAM relation leaves no lasting footprint.
RECYCLE_BYTES = 8 << 20


def _generate_side(
    name: str, rows: int, payload_cols: int, seed: int, directory: str
) -> Relation:
    """Stream-generate one wide relation straight into mmap segments.

    The join attribute ``A1`` comes from its own generator stream so the
    verification phase can regenerate exactly those values without touching
    the payload; the payload columns only exist to make the dataset large.
    """
    gen_rows = 25_000
    rng_join = np.random.default_rng(seed)
    rng_payload = np.random.default_rng(seed + 1_000_003)

    def chunks():
        for start in range(0, rows, gen_rows):
            n = min(gen_rows, rows - start)
            chunk = {"A1": rng_join.random(n)}
            for j in range(payload_cols):
                chunk[f"P{j:02d}"] = rng_payload.random(n)
            yield chunk

    store = MmapColumnStore.write(directory, chunks(), recycle_bytes=RECYCLE_BYTES)
    return Relation.from_store(name, store)


def _join_values(rows: int, seed: int) -> np.ndarray:
    """Regenerate the ``A1`` stream of :func:`_generate_side`."""
    return np.random.default_rng(seed).random(rows)


def _canonical_pairs(pairs: np.ndarray | None) -> np.ndarray:
    if pairs is None or pairs.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.asarray(pairs, dtype=np.int64), axis=0)


def run_storage_benchmark(
    rows: int,
    payload_cols: int,
    epsilon: float,
    chunk_bytes: int,
    backend: str = "serial",
    workers: int = 4,
    spill_root: str | None = None,
) -> dict:
    """Run the full generate → enforce → verify cycle and return the record."""
    work_dir = tempfile.mkdtemp(prefix="bench-storage-", dir=spill_root)
    try:
        return _run(rows, payload_cols, epsilon, chunk_bytes, backend, workers, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(
    rows: int,
    payload_cols: int,
    epsilon: float,
    chunk_bytes: int,
    backend: str,
    workers: int,
    work_dir: str,
) -> dict:
    print(
        f"generating 2 x {rows:,} rows x {payload_cols + 1} columns "
        f"into mmap segments under {work_dir} ..."
    )
    generate_start = time.perf_counter()
    s = _generate_side("S", rows, payload_cols, seed=1, directory=os.path.join(work_dir, "S"))
    t = _generate_side("T", rows, payload_cols, seed=2, directory=os.path.join(work_dir, "T"))
    generate_seconds = time.perf_counter() - generate_start
    dataset_bytes = s.nbytes + t.nbytes
    ceiling_bytes = int(dataset_bytes / CEILING_RATIO)
    print(
        f"dataset: {dataset_bytes / 1e6:.1f} MB on disk "
        f"({s.segment_count + t.segment_count} segments), "
        f"ceiling: {ceiling_bytes / 1e6:.1f} MB "
        f"(ratio {dataset_bytes / ceiling_bytes:.1f}x), "
        f"generated in {generate_seconds:.1f}s"
    )

    condition = BandCondition.symmetric(["A1"], epsilon)
    engine = ParallelJoinEngine(
        backend=backend, spill_dir=work_dir, chunk_bytes=chunk_bytes
    )
    partitioning = RecPartPartitioner().partition(s, t, condition, workers=workers)

    record = {
        "workload": {
            "rows_per_input": rows,
            "columns_per_input": payload_cols + 1,
            "epsilon": epsilon,
            "workers": workers,
            "backend": backend,
            "chunk_bytes": chunk_bytes,
        },
        "dataset_bytes": dataset_bytes,
        "ceiling_bytes": ceiling_bytes,
        "ceiling_ratio": dataset_bytes / ceiling_bytes,
        "segments": {"s": s.segment_count, "t": t.segment_count},
        "generate_seconds": round(generate_seconds, 3),
        "machine": {"cpus": os.cpu_count(), "platform": sys.platform},
        "runs": {},
    }

    # Warm the streamed code paths (routing spill writers, kernels, merge)
    # on a tiny mmap join first: imports, bytecode and numpy's internal
    # buffers are one-time process growth, not part of the join's working
    # set, and must not be billed to the first enforced run.
    warm_s = _generate_side("WS", 10_000, 1, seed=31, directory=os.path.join(work_dir, "WS"))
    warm_t = _generate_side("WT", 10_000, 1, seed=32, directory=os.path.join(work_dir, "WT"))
    warm_plan = RecPartPartitioner().partition(warm_s, warm_t, condition, workers=workers)
    for warm_materialize in (False, True):
        engine.execute(warm_s, warm_t, condition, warm_plan, materialize=warm_materialize)

    enforced = reset_peak_rss()
    record["enforced"] = enforced
    if not enforced:
        print("warning: peak-RSS reset unsupported here; ceiling not enforced")

    pairs = {}
    default_spill_bytes = backends.TASK_SPILL_BYTES
    for label, materialize, spill_bytes in (
        ("count", False, default_spill_bytes),
        ("materialize", True, default_spill_bytes),
        ("spilled", True, SPILLED_TASK_BYTES),
    ):
        baseline = current_rss_bytes()
        reset_peak_rss()
        run_start = time.perf_counter()
        backends.TASK_SPILL_BYTES = spill_bytes
        try:
            result = engine.execute(s, t, condition, partitioning, materialize=materialize)
        finally:
            backends.TASK_SPILL_BYTES = default_spill_bytes
        run_seconds = time.perf_counter() - run_start
        peak_delta = max(0, peak_rss_bytes() - baseline)
        ok = (not enforced) or peak_delta <= ceiling_bytes
        record["runs"][label] = {
            "pairs": int(result.total_output),
            "seconds": round(run_seconds, 3),
            "baseline_rss_bytes": baseline,
            "peak_rss_delta_bytes": peak_delta,
            "under_ceiling": bool(ok),
        }
        print(
            f"{label:>11}: {result.total_output:,} pairs in {run_seconds:.1f}s, "
            f"peak RSS delta {peak_delta / 1e6:.1f} MB "
            f"({'OK' if ok else 'BREACH'} vs {ceiling_bytes / 1e6:.1f} MB ceiling)"
        )
        if materialize:
            pairs[label] = _canonical_pairs(result.pairs)

    # Verification phase (not ceiling-enforced): the same join-attribute
    # values on the all-heap path must produce the identical pair set.
    s_ref = Relation("S", {"A1": _join_values(rows, seed=1)})
    t_ref = Relation("T", {"A1": _join_values(rows, seed=2)})
    ref_partitioning = RecPartPartitioner().partition(s_ref, t_ref, condition, workers=workers)
    ref = engine.execute(s_ref, t_ref, condition, ref_partitioning, materialize=True)
    ref_pairs = _canonical_pairs(ref.pairs)
    match = all(np.array_equal(streamed, ref_pairs) for streamed in pairs.values())
    record["verification"] = {
        "reference_pairs": int(ref_pairs.shape[0]),
        "streamed_pairs": {label: int(p.shape[0]) for label, p in pairs.items()},
        "pair_sets_match": match,
    }
    print(
        f"verification: streamed {record['verification']['streamed_pairs']} pairs "
        f"vs in-memory {ref_pairs.shape[0]:,} — "
        f"{'identical' if match else 'MISMATCH'}"
    )

    record["ok"] = bool(
        match and all(run["under_ceiling"] for run in record["runs"].values())
    )
    return record


def record_path() -> Path:
    override = os.environ.get("REPRO_BENCH_STORAGE_OUT")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_storage.json"


def write_record(record: dict) -> Path:
    path = record_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--rows", type=int, default=None, help="rows per input")
    parser.add_argument("--payload-cols", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--backend", type=str, default="serial")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--spill-root", type=str, default=None)
    args = parser.parse_args(argv)

    params = dict(SMOKE if args.smoke else FULL)
    if args.rows is not None:
        params["rows"] = args.rows
    if args.payload_cols is not None:
        params["payload_cols"] = args.payload_cols
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon

    record = run_storage_benchmark(
        backend=args.backend,
        workers=args.workers,
        spill_root=args.spill_root,
        **params,
    )
    path = write_record(record)
    print(f"[record written to {path}]")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
