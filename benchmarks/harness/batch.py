"""The two in-process workloads: ``batch-d2-kernel`` and ``batch-d3-plan``.

One op is one ``ParallelJoinEngine.join`` on an empty plan cache — optimize,
route, join and merge, the paper's total running time — cycling through eight
RecPart seeds over fixed inputs.  The two shapes put the time in different
layers (kernel against optimizer), so a change to one shows on one workload
and must read "no change" on the other.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

import machine
import oracle
import repro.obs as obs
from layers import layer_of, replay_join, replay_metrics
from repro.core.recpart import RecPartPartitioner
from repro.cost.lower_bounds import compute_lower_bounds
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine, PlanCache, get_backend
from repro.engine.routing import build_worker_tasks, route_side, unit_offset_step
from repro.geometry.band import BandCondition
from spans import SpanRecorder
from summary import coverage, layer_medians, median, tail


@dataclass(frozen=True)
class BatchShape:
    dims: int
    eps: float
    rows: int
    workers: int


SHAPES = {
    "batch-d2-kernel": BatchShape(dims=2, eps=0.01, rows=100_000, workers=8),
    "batch-d3-plan": BatchShape(dims=3, eps=0.005, rows=100_000, workers=32),
}

#: Ops cycle through this many RecPart seeds; the quality measures are their mean.
RECPART_SEEDS = 8

#: Untimed ops before the first timed one (the first join of a process pays
#: for imports, pool threads and page faults that later ones do not).
WARMUPS = 2

PARETO_SHAPE = 1.5


def pareto_columns(rng: np.random.Generator, rows: int, dims: int) -> list[np.ndarray]:
    """Draw ``dims`` independent Pareto-1.5 columns on ``[1, inf)``."""
    return [np.power(1.0 - rng.random(rows), -1.0 / PARETO_SHAPE) for _ in range(dims)]


def relation(name: str, columns: list[np.ndarray]) -> Relation:
    return Relation(name, {f"A{k + 1}": column for k, column in enumerate(columns)})


class BatchWorkload:
    """One batch workload over inputs generated from ``seed``."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.threads = machine.available_cpus()

    # -- set-up --------------------------------------------------------- #
    def set_up(self) -> float:
        """Generate inputs, build the engine, run the warm-up ops; return seconds."""
        start = time.perf_counter()
        shape = self.shape
        self.reference: oracle.PairSetReference | None = None
        rng = np.random.default_rng([self.seed, 0])
        s_columns = pareto_columns(rng, shape.rows, shape.dims)
        t_columns = pareto_columns(rng, shape.rows, shape.dims)
        self.s_matrix = np.column_stack(s_columns)
        self.t_matrix = np.column_stack(t_columns)
        self.s = relation("S", s_columns)
        self.t = relation("T", t_columns)
        attributes = [f"A{k + 1}" for k in range(shape.dims)]
        self.condition = BandCondition.symmetric(attributes, [shape.eps] * shape.dims)
        self.engine = ParallelJoinEngine(backend="threads", max_parallelism=self.threads)
        self.recpart_seeds = [
            int(word) for word in np.random.SeedSequence([self.seed, 1]).generate_state(RECPART_SEEDS)
        ]
        for index in range(WARMUPS):
            self.join(index)
        return time.perf_counter() - start

    def close(self) -> None:
        """Nothing outlives an op: the engine's pools live for one ``run``."""

    def info(self) -> dict:
        return {"threads": self.threads, "clients": 1, "loop": "closed"}

    # -- one op --------------------------------------------------------- #
    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(self.recpart_seeds[index % RECPART_SEEDS])

    def join(self, index: int):
        """One op: a cold join (empty plan cache) with RecPart seed ``index``."""
        self.engine.plan_cache = PlanCache()
        return self.engine.join(
            self.s, self.t, self.condition,
            workers=self.shape.workers, materialize=True, rng=self.rng(index),
        )

    def build_reference(self) -> None:
        """Join the inputs with the harness's own oracle (once per set-up)."""
        if self.reference is None:
            self.reference = oracle.PairSetReference.build(
                self.s_matrix, self.t_matrix, [self.shape.eps] * self.shape.dims
            )

    def correct(self, pairs: np.ndarray, reported: int) -> bool:
        """Check one op's answer against the reference (and say so if wrong)."""
        good = reported == pairs.shape[0] and self.reference.accepts(pairs)
        if not good:
            print(
                f"{self.name}: wrong answer: {pairs.shape[0]} pairs materialised, {reported} "
                f"reported, {self.reference.count} expected", file=sys.stderr,
            )
        return good

    def _quality(self, results: dict) -> tuple[float, float]:
        """Return mean (dup_overhead, load_overhead) over the eight RecPart
        seeds, running untimed the ones the timed ops did not reach."""
        for index in range(RECPART_SEEDS):
            if index not in results:
                results[index] = _quality_of(self.join(index))
        bounds = compute_lower_bounds(
            self.s, self.t, self.condition, self.shape.workers,
            self.engine.weights, output_size=self.reference.count,
        )
        dup = sum(dup for dup, _ in results.values())
        load = sum(bounds.load_overhead(max_load) for _, max_load in results.values())
        return dup / RECPART_SEEDS, load / RECPART_SEEDS

    # -- untraced pass -------------------------------------------------- #
    def timed(self, seconds: float) -> dict:
        """Run ops until ``seconds`` of op time have passed; every result is
        checked between ops, outside the clock."""
        durations, cpu, failed, by_seed = [], [], 0, {}
        self.build_reference()
        peak = machine.PeakRss()
        while sum(durations) < seconds:
            index = len(durations)
            cpu_start, start = time.process_time(), time.perf_counter()
            result = self.join(index)
            durations.append(time.perf_counter() - start)
            cpu.append(time.process_time() - cpu_start)
            peak.read()
            failed += not self.correct(result.pairs, result.total_output)
            by_seed.setdefault(index % RECPART_SEEDS, _quality_of(result))
        dup, load = self._quality(by_seed)
        tail_value, tail_percentile = tail(durations)
        n = len(durations)
        return {
            "attempted": n,
            "failed": failed,
            "metrics": {
                "op_p50_s": {"value": median(durations), "samples": n},
                "op_tail_s": {"value": tail_value, "samples": n, "percentile": tail_percentile},
                # One caller in a closed loop: the typical rate is the
                # reciprocal of the typical op, and a stall moves neither.
                "ops_per_s": {"value": 1.0 / median(durations), "samples": n},
                "cpu_s_per_op": {"value": median(cpu), "samples": n},
                "peak_rss_mb": peak.metric(),
                "dup_overhead": {"value": dup, "samples": RECPART_SEEDS},
                "load_overhead": {"value": load, "samples": RECPART_SEEDS},
            },
            "info": {"pairs_per_op": self.reference.count},
        }

    # -- traced pass ---------------------------------------------------- #
    def traced(self, seconds: float, trace_path) -> dict:
        """Alternate a traced replay with the real op it replays for half the
        budget, then measure what a replay cannot: backend scaling, telemetry
        cost and the kernel's counters."""
        recorder = SpanRecorder()
        replays, reals, executes, by_seed = [], [], [], {}
        failed = 0
        self.build_reference()
        spent = 0.0
        while spent < 0.5 * seconds:
            index = recorder.op_id = len(replays)
            with recorder.span("op"):
                replay = replay_join(
                    recorder, self.engine, self.s, self.t, self.condition,
                    self.shape.workers, self.rng(index),
                )
            replays.append(replay)
            failed += not self.correct(replay.pairs, replay.job.total_output)
            replay.pairs = None  # checked; ten of these would pin 200 MB
            start = time.perf_counter()
            result = self.join(index)
            reals.append(time.perf_counter() - start)
            executes.append(result.wall_seconds)
            failed += not self.correct(result.pairs, result.total_output)
            by_seed.setdefault(index % RECPART_SEEDS, _quality_of(result))
            spent += replay.seconds + reals[-1]
        recorder.write(trace_path)
        n = len(replays)

        metrics = replay_metrics(recorder, replays)
        self_s = layer_medians(recorder.spans, layer_of)
        replayed = sum(metrics[name]["value"] for name in ("routing.route_s", "backends.run_s", "engine.merge_s"))
        dup, load = self._quality(by_seed)
        metrics.update({
            "plan_cache.hit_rate": {"value": 0.0, "samples": n},  # every op starts on an empty cache
            "engine.residual_s": {"value": median(executes) - replayed, "samples": n},
            "trace.coverage": {"value": coverage(self_s.values(), median(reals)), "samples": n},
            "trace.overhead": {"value": median([r.seconds for r in replays]) / median(reals), "samples": n},
            "dup_overhead": {"value": dup, "samples": RECPART_SEEDS},
            "load_overhead": {"value": load, "samples": RECPART_SEEDS},
            **self._backend_speedups(0.25 * seconds),
            **self._telemetry(0.25 * seconds),
        })
        return {
            "attempted": 2 * n,
            "failed": failed,
            "metrics": {name: value for name, value in metrics.items() if value is not None},
            "info": {"layer_self_s": self_s, "untraced_op_p50_s": median(reals)},
        }

    def _backend_speedups(self, budget: float) -> dict:
        """Time ``backend.run`` on one fixed task set: serial, threads, processes."""
        partitioning = RecPartPartitioner(weights=self.engine.weights).partition(
            self.s, self.t, self.condition, self.shape.workers, rng=self.rng(0)
        )
        s_routed = route_side(partitioning, self.s_matrix, "S")
        t_routed = route_side(partitioning, self.t_matrix, "T")
        step = unit_offset_step(self.s_matrix, self.t_matrix, self.condition)
        tasks = build_worker_tasks(partitioning, s_routed, t_routed, step)
        backends = {
            name: get_backend(name, max_workers=self.threads)
            for name in ("serial", "threads", "processes")
        }
        seconds = {name: [] for name in backends}
        spent = 0.0
        while spent < budget:
            for name, backend in backends.items():
                start = time.perf_counter()
                backend.run(
                    tasks, self.s_matrix, self.t_matrix, self.condition,
                    self.engine.algorithm, True,
                )
                seconds[name].append(time.perf_counter() - start)
                spent += seconds[name][-1]
        serial = median(seconds["serial"])
        n = len(seconds["serial"])
        return {
            "backends.threads_speedup": {"value": serial / median(seconds["threads"]), "samples": n},
            "backends.processes_speedup": {"value": serial / median(seconds["processes"]), "samples": n},
        }

    def _telemetry(self, budget: float) -> dict:
        """Interleave ops with telemetry on and off; read the kernel's own
        candidate and pair counters from the first telemetry-on op."""
        on, off, counters = [], [], None
        spent = 0.0
        try:
            while spent < budget:
                for enabled in (True, False) if len(on) % 2 == 0 else (False, True):
                    (obs.enable if enabled else obs.disable)()
                    before = _kernel_counters()
                    start = time.perf_counter()
                    self.join(0)
                    elapsed = time.perf_counter() - start
                    (on if enabled else off).append(elapsed)
                    spent += elapsed
                    if enabled and counters is None:
                        after = _kernel_counters()
                        counters = {key: after[key] - before[key] for key in after}
        finally:
            obs.disable()
        n = len(on)
        return {
            "obs.telemetry_overhead": {"value": median(on) / median(off), "samples": n},
            "kernels.candidates": {"value": counters["candidates"], "samples": 1},
            "kernels.pairs": {"value": counters["pairs"], "samples": 1},
            "kernels.candidates_per_pair": {
                "value": counters["candidates"] / max(1, counters["pairs"]), "samples": 1,
            },
        }


def _quality_of(result) -> tuple[float, float]:
    """Return the two numbers of an ``EngineResult`` the quality measures need
    (holding the result itself would pin its 20 MB pair array)."""
    return result.duplication_ratio, result.max_worker_load


def _kernel_counters() -> dict:
    """Return the process-wide kernel candidate / pair counters (all kinds)."""
    snapshot = obs.registry().snapshot()
    totals = {}
    for key in ("candidates", "pairs"):
        metric = snapshot.get(f"repro_kernel_{key}_total", {"values": []})
        totals[key] = int(sum(series["value"] for series in metric["values"]))
    return totals
