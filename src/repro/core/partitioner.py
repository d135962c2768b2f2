"""Common interfaces for join partitioners.

A *partitioner* is the optimization-phase component: given the two input
relations, the band condition and the number of workers it produces a
:class:`JoinPartitioning` — an object that can route any S- or T-tuple to the
set of partition *units* that must receive it (Definition 1 in the paper).

A partition **unit** is the smallest granule of work whose local join is
self-contained: a RecPart regular leaf, one (row, column) cell of a small
leaf's internal 1-Bucket grid, one Grid-epsilon cell, one CSIO covering
rectangle, one 1-Bucket matrix cell, or one IEJoin block pair.  Each unit is
owned by exactly one worker; a worker may own many units.  Correctness
(each output pair produced exactly once) is guaranteed per unit, which is why
the engine (:mod:`repro.engine.backends`) runs one local join per unit rather
than one per worker.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_SEED, LoadWeights
from repro.data.relation import Relation
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition

#: Identifier of the S relation side in routing calls.
SIDE_S = "S"
#: Identifier of the T relation side in routing calls.
SIDE_T = "T"


def _config_token(value, depth: int = 0):
    """Reduce a configuration attribute to a stable hashable token.

    Primitives pass through, (frozen) dataclasses contribute their repr, and
    other objects are descended one level (covering e.g. a cost model whose
    state is a coefficients dataclass) before falling back to the type name.
    """
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_config_token(item, depth + 1) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return repr(value)
    if depth < 1:
        try:
            attrs = vars(value)
        except TypeError:
            return type(value).__name__
        return (type(value).__name__,) + tuple(
            (name, _config_token(item, depth + 1)) for name, item in sorted(attrs.items())
        )
    return type(value).__name__


def validate_side(side: str) -> str:
    """Normalise and validate a relation-side identifier."""
    normalised = side.upper()
    if normalised not in (SIDE_S, SIDE_T):
        raise PartitioningError(f"side must be 'S' or 'T', got {side!r}")
    return normalised


@dataclass
class PartitioningStats:
    """Optimizer-side statistics attached to every partitioning.

    Attributes
    ----------
    optimization_seconds:
        Wall-clock time of the optimization phase (paper: "optimization time").
    iterations:
        Number of optimizer iterations (RecPart repeat-loop executions,
        CSIO covering refinements, Grid* grid sizes tried, ...).
    estimated_total_input:
        Optimizer's own estimate of total input including duplicates.
    estimated_max_load:
        Optimizer's own estimate of the max worker load.
    estimated_output:
        Optimizer's estimate of the total join output.
    extra:
        Free-form per-method diagnostics.
    """

    optimization_seconds: float = 0.0
    iterations: int = 0
    estimated_total_input: float | None = None
    estimated_max_load: float | None = None
    estimated_output: float | None = None
    extra: dict = field(default_factory=dict)


class JoinPartitioning(abc.ABC):
    """A concrete assignment of input tuples to partition units and workers."""

    def __init__(
        self,
        method: str,
        workers: int,
        n_units: int,
        stats: PartitioningStats | None = None,
    ) -> None:
        if workers < 1:
            raise PartitioningError("a partitioning needs at least one worker")
        if n_units < 1:
            raise PartitioningError("a partitioning needs at least one unit")
        self.method = method
        self.workers = workers
        self.n_units = n_units
        self.stats = stats if stats is not None else PartitioningStats()

    # ------------------------------------------------------------------ #
    # Abstract routing API
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def route(self, values: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Route join-attribute rows of one relation side to partition units.

        Parameters
        ----------
        values:
            ``(n, d)`` matrix of join-attribute values (band-condition
            attribute order) of the tuples to route.
        side:
            ``"S"`` or ``"T"``.

        Returns
        -------
        (row_indices, unit_ids):
            Parallel integer arrays; a row index appears once per unit that
            must receive the tuple (so duplicated tuples appear multiple
            times).  Every input row must appear at least once.
        """

    @abc.abstractmethod
    def unit_workers(self) -> np.ndarray:
        """Return the owning worker of every unit as an ``(n_units,)`` int array."""

    # ------------------------------------------------------------------ #
    # Convenience helpers shared by all partitionings
    # ------------------------------------------------------------------ #
    def replication_counts(self, values: np.ndarray, side: str) -> np.ndarray:
        """Return, per input row, the number of units that receive it."""
        rows, _ = self.route(values, side)
        counts = np.bincount(rows, minlength=values.shape[0] if values.ndim == 2 else len(values))
        return counts

    def check_coverage(self, values: np.ndarray, side: str) -> None:
        """Raise :class:`PartitioningError` if any input row is routed nowhere."""
        counts = self.replication_counts(values, side)
        if counts.size and counts.min() < 1:
            missing = int(np.count_nonzero(counts == 0))
            raise PartitioningError(
                f"{missing} {side}-tuples were not assigned to any partition unit "
                f"by method {self.method!r}"
            )

    def describe(self) -> dict:
        """Return a JSON-friendly summary of the partitioning."""
        return {
            "method": self.method,
            "workers": self.workers,
            "units": self.n_units,
            "optimization_seconds": self.stats.optimization_seconds,
            "iterations": self.stats.iterations,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(method={self.method!r}, workers={self.workers}, "
            f"units={self.n_units})"
        )


class Partitioner(abc.ABC):
    """Interface of the optimization phase of a distributed band-join method."""

    #: Human-readable method name used in experiment reports.
    name: str = "partitioner"

    def __init__(self, weights: LoadWeights | None = None, seed: int = DEFAULT_SEED) -> None:
        self.weights = weights if weights is not None else LoadWeights()
        self.seed = seed

    @abc.abstractmethod
    def partition(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int,
        rng: np.random.Generator | None = None,
    ) -> JoinPartitioning:
        """Compute a join partitioning of ``s`` and ``t`` for ``workers`` workers."""

    def _rng(self, rng: np.random.Generator | None) -> np.random.Generator:
        """Return the generator to use (a fresh seeded one when none is given)."""
        return rng if rng is not None else np.random.default_rng(self.seed)

    def plan_cache_key(self) -> tuple:
        """Return a stable fingerprint of this partitioner's configuration.

        Two partitioners with equal keys must produce the same partitioning
        on the same inputs, so the plan cache can safely share plans between
        them.  The fingerprint walks the instance attributes (seed, weights,
        config dataclasses, cost-model coefficients, ...); objects it cannot
        serialise contribute their type name, which errs towards sharing —
        subclasses carrying richer unhashable state should override this.
        """
        return (type(self).__name__,) + tuple(
            (name, _config_token(value)) for name, value in sorted(vars(self).items())
        )

    @staticmethod
    def _validate_inputs(
        s: Relation, t: Relation, condition: BandCondition, workers: int
    ) -> None:
        if workers < 1:
            raise PartitioningError("number of workers must be at least 1")
        condition.validate_against(s.column_names)
        condition.validate_against(t.column_names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
