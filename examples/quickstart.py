"""Quickstart: partition and execute one distributed band-join with RecPart.

Generates a skewed synthetic workload, runs RecPart's optimization phase,
executes the map-shuffle-reduce pipeline, verifies the result
against a single-machine join and prints the paper's success measures.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # 1. A band-join problem: two skewed (Pareto) relations joined on three
    #    attributes with a band width of 0.05 per attribute.
    s, t = repro.correlated_pair(40_000, 40_000, dimensions=3, z=1.5, seed=42)
    condition = repro.BandCondition.symmetric(["A1", "A2", "A3"], 0.05)
    workers = 8
    print(f"band-join: |S| = {len(s):,}, |T| = {len(t):,}, condition = {condition}, w = {workers}")

    # 2. Optimization phase: RecPart recursively partitions the join-attribute
    #    space using only an input and an output sample.
    partitioner = repro.RecPartPartitioner()
    partitioning = partitioner.partition(s, t, condition, workers=workers)
    print(
        f"RecPart finished in {partitioning.stats.optimization_seconds:.3f}s: "
        f"{partitioning.n_leaves} leaves, {partitioning.n_units} execution units, "
        f"{partitioning.stats.iterations} iterations"
    )

    # 3. Join phase: run every worker's local join and verify the output.
    engine = repro.ParallelJoinEngine(backend="serial")
    result = engine.execute(s, t, condition, partitioning, verify="count")
    print(f"join output: {result.total_output:,} pairs (verified against a single-machine join)")

    # 4. The paper's success measures: how close is the partitioning to the
    #    lower bounds on total input and max worker load?
    bounds = repro.compute_lower_bounds(
        s, t, condition, workers, output_size=result.total_output
    )
    print(f"total input (with duplicates): {result.total_input:,} "
          f"(lower bound {bounds.total_input:,.0f}, overhead "
          f"{bounds.input_overhead(result.total_input):.1%})")
    print(f"max worker load: {result.max_worker_load:,.0f} "
          f"(lower bound {bounds.max_worker_load:,.0f}, overhead "
          f"{bounds.load_overhead(result.max_worker_load):.1%})")
    print(f"most loaded worker: {result.max_worker_input:,} input tuples, "
          f"{result.max_worker_output:,} output pairs")


if __name__ == "__main__":
    main()
