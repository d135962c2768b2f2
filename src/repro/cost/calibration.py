"""Cost-model calibration from in-process micro-benchmarks.

The paper calibrates its running-time model by running a benchmark of ~100
training queries on the target cluster and fitting the beta coefficients with
linear regression.  The same procedure is reproduced here against the only
"hardware" available — this process — by timing real local band-joins of
varying input and output size and regressing the measured wall-clock times.

The resulting coefficients capture the actual relative cost of shuffling an
input tuple (array copying / partition bookkeeping) versus probing it in the
local join versus producing an output tuple on this machine, which is exactly
the information RecPart's applied termination condition and the Grid*
baseline need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cost.model import RunningTimeModel
from repro.data.generators import uniform_relation
from repro.exceptions import CostModelError
from repro.geometry.band import BandCondition
from repro.local_join.base import LocalJoinAlgorithm


@dataclass
class CalibrationObservation:
    """One training point: partitioning characteristics plus the measured time."""

    total_input: float
    max_input: float
    max_output: float
    seconds: float


@dataclass
class CalibrationResult:
    """Outcome of a calibration run."""

    model: RunningTimeModel
    observations: list[CalibrationObservation] = field(default_factory=list)
    shuffle_cost_per_tuple: float = 0.0

    @property
    def n_observations(self) -> int:
        """Return the number of training observations used."""
        return len(self.observations)

    def mean_relative_error(self) -> float:
        """Return the mean absolute relative error of the fitted model on its training data."""
        if not self.observations:
            return 0.0
        errors = []
        for obs in self.observations:
            if obs.seconds <= 0:
                continue
            predicted = self.model.predict(obs.total_input, obs.max_input, obs.max_output)
            errors.append(abs(predicted - obs.seconds) / obs.seconds)
        return float(np.mean(errors)) if errors else 0.0


def _time_local_join(
    algorithm: LocalJoinAlgorithm,
    n_s: int,
    n_t: int,
    band_width: float,
    rng: np.random.Generator,
    repeats: int = 1,
) -> tuple[float, int]:
    """Time a local band-join of two uniform inputs; returns (seconds, output size)."""
    s = uniform_relation("cal_s", n_s, dimensions=1, low=0.0, high=1.0, seed=rng)
    t = uniform_relation("cal_t", n_t, dimensions=1, low=0.0, high=1.0, seed=rng)
    condition = BandCondition({"A1": band_width})
    s_matrix = s.join_matrix(condition.attributes)
    t_matrix = t.join_matrix(condition.attributes)
    best = np.inf
    output = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        output = algorithm.count(s_matrix, t_matrix, condition)
        best = min(best, time.perf_counter() - start)
    return float(best), int(output)


def calibrate_running_time_model(
    n_queries: int = 24,
    base_input: int = 4000,
    algorithm: LocalJoinAlgorithm | None = None,
    seed: int = 7,
    shuffle_cost_per_tuple: float | None = None,
) -> CalibrationResult:
    """Calibrate a :class:`RunningTimeModel` by timing local band-joins in-process.

    Parameters
    ----------
    n_queries:
        Number of training queries (the paper uses 100; two dozen varied
        sizes are plenty for a 4-coefficient linear model).
    base_input:
        Baseline per-side input size of the training joins; sizes are swept
        between 0.5x and 4x of this value.
    algorithm:
        Local join algorithm to profile (defaults to the paper's
        index-nested-loop join).
    shuffle_cost_per_tuple:
        Per-tuple shuffle cost in seconds.  ``None`` measures a proxy
        (partition-and-copy over a numpy array); pass an explicit value to
        model faster or slower networks (Table 8 explores this knob).

    Returns
    -------
    CalibrationResult with the fitted model and the raw observations.
    """
    if n_queries < 3:
        raise CostModelError("need at least 3 calibration queries")
    if base_input < 10:
        raise CostModelError("base_input is too small to produce meaningful timings")
    if algorithm is None:
        # Imported here: local_join.kernels -> obs -> cost is an import cycle.
        from repro.local_join.interval import IntervalJoin

        algorithm = IntervalJoin()
    rng = np.random.default_rng(seed)

    if shuffle_cost_per_tuple is None:
        shuffle_cost_per_tuple = _measure_shuffle_cost(base_input * 4, rng)

    observations: list[CalibrationObservation] = []
    size_factors = np.linspace(0.5, 4.0, n_queries)
    for factor in size_factors:
        n_s = max(10, int(base_input * factor))
        n_t = max(10, int(base_input * factor))
        # Vary band width so output/input ratios span selective to heavy joins.
        band_width = float(rng.uniform(0.2, 3.0)) / n_s
        seconds, output = _time_local_join(algorithm, n_s, n_t, band_width, rng)
        total_input = float(n_s + n_t)
        # The training joins run on a single "worker", so the max worker's
        # input/output equal the totals; the shuffle term is added from the
        # per-tuple shuffle cost.
        observations.append(
            CalibrationObservation(
                total_input=total_input,
                max_input=total_input,
                max_output=float(output),
                seconds=seconds + shuffle_cost_per_tuple * total_input,
            )
        )

    model = RunningTimeModel.fit(
        np.array([o.total_input for o in observations]),
        np.array([o.max_input for o in observations]),
        np.array([o.max_output for o in observations]),
        np.array([o.seconds for o in observations]),
    )
    return CalibrationResult(
        model=model,
        observations=observations,
        shuffle_cost_per_tuple=float(shuffle_cost_per_tuple),
    )


def _measure_shuffle_cost(n_tuples: int, rng: np.random.Generator) -> float:
    """Measure a per-tuple proxy for shuffle cost: hash-partitioning and copying rows."""
    values = rng.random(n_tuples)
    start = time.perf_counter()
    partitions = (values * 16).astype(np.int64)
    order = np.argsort(partitions, kind="stable")
    _ = values[order].copy()
    elapsed = time.perf_counter() - start
    return max(elapsed / n_tuples, 1e-9)
