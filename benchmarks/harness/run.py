#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One pass of one workload, as the PR driver calls it.  ``--trace 0`` is the
    untraced timed pass (end-to-end metrics), ``--trace 1`` the traced pass
    (per-layer metrics).  The last line printed is one JSON object with the
    keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``run.py [--seed N] [--workload NAME] [--seconds S] [--quick] [--check-repeat]``
    Both passes of every (or one) workload, a table of every metric with its
    unit and sample count, and a results file under ``out/``.  ``--quick``
    keeps the shapes and runs a tenth of the time; ``--check-repeat`` runs the
    set twice and fails if the two disagree by more than the benchmark's own
    bounds.

Every answer is checked against the harness's own oracle; a wrong, refused or
failed op counts in ``failed`` and makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
import spec  # noqa: E402
from summary import median  # noqa: E402

#: Full set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3


def make_workload(name: str, seed: int):
    if name.startswith("batch-"):
        from batch import BatchWorkload

        return BatchWorkload(name, seed)
    from serve import ServeWorkload

    return ServeWorkload(name, seed, root=ROOT, scratch=OUT)


def run_pass(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """Run one pass of one workload and return its outcome.

    The outcome has ``attempted``, ``failed``, ``metrics`` (name -> value,
    samples, ...) and ``info``; its ``machine`` entry times the reference
    loop before and after, so a box that drifted during the pass shows.
    """
    OUT.mkdir(exist_ok=True)
    workload = make_workload(name, seed)
    setup_seconds = []
    try:
        for _ in range(setups):
            workload.close()
            setup_seconds.append(workload.set_up())
        loop_before = machine.reference_loop_seconds()
        if trace:
            outcome = workload.traced(seconds, OUT / f"trace-{name}.json")
        else:
            outcome = workload.timed(seconds)
            outcome["metrics"]["setup_s"] = {"value": median(setup_seconds), "samples": setups}
        outcome["machine"] = {
            **workload.info(),
            "reference_loop_before_s": loop_before,
            "reference_loop_after_s": machine.reference_loop_seconds(),
        }
    finally:
        try:
            workload.close()
        finally:
            machine.stop_children()
    return outcome


# ---------------------------------------------------------------------- #
# Driver mode: one pass, one JSON line
# ---------------------------------------------------------------------- #
def driver_line(outcome: dict, trace: bool) -> dict:
    """Reduce an outcome to the object the driver reads.

    Every declared metric is present: one that does not apply to the
    workload reads 0 (the format has no other way to say so; the README
    lists which apply where).
    """
    declared = spec.TRACE_METRICS if trace else spec.END_TO_END
    metrics = {}
    for metric in declared:
        measured = outcome["metrics"].get(metric.name)
        value = measured["value"] if measured is not None else 0.0
        metrics[metric.name] = {"value": float(value), "unit": metric.unit}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- #
# Full mode: every workload, both passes, a table
# ---------------------------------------------------------------------- #
def isolated_pass(name: str, trace: bool, forwarded: list[str]) -> dict:
    """Run one pass in a process of its own and return its outcome.

    Exactly what the driver does, so both modes report the same numbers:
    memory a previous workload left behind would otherwise count in the next
    one's ``peak_rss_mb``, and only the first workload of a process would pay
    for imports in ``setup_s``.
    """
    command = [sys.executable, __file__, "--workload", name, "--trace", str(int(trace)), *forwarded]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name} (trace={int(trace)}) printed no result, exit code {done.returncode}")
    return json.loads(lines[-2])


def run_set(names, forwarded: list[str]) -> dict:
    """Run both passes of each workload; return ``{name: {"timed", "traced"}}``."""
    results = {}
    for name in names:
        print(f"== {name}: untraced pass", flush=True)
        timed = isolated_pass(name, False, forwarded)
        print(f"== {name}: traced pass", flush=True)
        traced = isolated_pass(name, True, forwarded)
        results[name] = {"timed": timed, "traced": traced}
        print_workload(name, timed, traced)
    return results


def _format(metric, measured) -> str:
    if measured is None:
        return f"  {metric.name:<34} {'n/a':>14}"
    extra = [f"[{metric.layer}]"] if metric.layer else []
    if "samples" in measured:
        extra.append(f"n={measured['samples']}")
    if "percentile" in measured:
        extra.append(f"p{measured['percentile']:.1f}")
    return f"  {metric.name:<34} {measured['value']:>14.6g} {metric.unit:<7} {' '.join(extra)}"


def print_workload(name: str, timed: dict, traced: dict) -> None:
    print(f"\n{name}  ({spec.WORKLOADS[name]})")
    print(f" machine: {json.dumps(timed['machine'])}")
    print(f" end to end (untraced): attempted={timed['attempted']} failed={timed['failed']}"
          f" failed_fraction={timed['failed'] / timed['attempted']:.4f}")
    for metric in spec.END_TO_END + spec.END_TO_END_PARTIAL:
        print(_format(metric, timed["metrics"].get(metric.name)))
    for key, value in timed["info"].items():
        print(f"  {key}: {value}")
    print(f" per layer (traced): attempted={traced['attempted']} failed={traced['failed']}")
    for metric in spec.PER_LAYER:
        print(_format(metric, traced["metrics"].get(metric.name)))
    for key, value in traced["info"].items():
        print(f"  {key}: {value}")
    print(flush=True)


def total_failed(results: dict) -> int:
    return sum(p["failed"] for passes in results.values() for p in passes.values())


def check_repeat(first: dict, second: dict) -> list[str]:
    """Return the end-to-end disagreements between two sets of results.

    Timings and rates may differ by their bound; quality measures (bound 0)
    and failure counts must match exactly.
    """
    problems = []
    for name in first:
        a, b = first[name]["timed"], second[name]["timed"]
        if a["failed"] or b["failed"]:
            problems.append(f"{name}: failed ops ({a['failed']}, {b['failed']})")
        for metric in spec.END_TO_END + spec.END_TO_END_PARTIAL:
            if metric.name not in a["metrics"]:
                continue
            x, y = a["metrics"][metric.name]["value"], b["metrics"][metric.name]["value"]
            smaller = min(abs(x), abs(y))
            off = 0.0 if x == y else abs(x - y) / smaller if smaller else float("inf")
            verdict = "ok" if off <= metric.bound else "DISAGREE"
            print(f"  {name:<18} {metric.name:<20} {x:>12.6g} {y:>12.6g}  {off:7.2%} (bound {metric.bound:.0%}) {verdict}")
            if off > metric.bound:
                problems.append(f"{name}: {metric.name} {x:.6g} vs {y:.6g}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the run time, one set-up, no bounds check")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice and compare the two")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"nothing to measure: {ROOT / 'src' / 'repro'} is not there")

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(definition["run_seconds"])
    if args.quick:
        seconds /= 10.0

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        # setup_s belongs to the untraced pass; the traced one sets up once.
        setups = 1 if args.quick or args.trace else SETUPS
        # A terminated run still unwinds, so run_pass stops what it started
        # (a forked pool worker inherits the handler and just leaves).
        owner = os.getpid()
        signal.signal(
            signal.SIGTERM, lambda *_: sys.exit(143) if os.getpid() == owner else os._exit(143)
        )
        outcome = run_pass(args.workload, args.seed, seconds, bool(args.trace), setups)
        print(json.dumps(outcome, default=str))  # everything measured, for the full mode
        line = driver_line(outcome, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    forwarded = ["--seed", str(args.seed)]
    if args.seconds is not None:
        forwarded += ["--seconds", str(args.seconds)]
    if args.quick:
        forwarded.append("--quick")
    block = machine.describe(ROOT)
    print(f"machine: {json.dumps(block)}")
    started = time.time()
    results = run_set(names, forwarded)
    # This benchmark measures; a change that claims a gain says so in its own issue.
    record = {"claim": None, "machine": block, "seed": args.seed, "seconds": seconds, "results": results}
    failed = total_failed(results)
    if args.check_repeat:
        second = run_set(names, forwarded)
        record["repeat"] = second
        failed += total_failed(second)
        print("check-repeat: first run, second run, relative difference")
        problems = check_repeat(results, second)
        for problem in problems:
            print(f"DISAGREE {problem}")
        failed += len(problems)
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"results written to {path.relative_to(ROOT)} ({time.time() - started:.0f} s)")
    print("failed ops or disagreements:", failed)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
