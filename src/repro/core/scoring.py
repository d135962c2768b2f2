"""Split scoring: load variance and input duplication.

The paper's key insight (Section 4.2) is the split-scoring measure

    score(x) = (load-variance reduction of split x) / (input-duplication increase of x)

where load variance models the per-worker load when every leaf (or 1-Bucket
sub-partition of a small leaf) is assigned to a uniformly random worker:

    V[P] = (w - 1) / w^2 * sum over leaves p of l_p^2 ,   l_p = beta2*I_p + beta3*O_p.

This module provides the numerical pieces of that score:

* :func:`duplication_interval` — which duplicated-side values straddle a
  split boundary and therefore must be copied to both children,
* :func:`variance_of_leaves` / :func:`sum_squared_loads` — the variance sum,
* :class:`SplitScore` — a totally ordered score that implements the paper's
  tie-breaking rule (zero-duplication splits always win; among them the one
  with the largest variance reduction wins).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.partition import LeafStats, OptimizationContext
from repro.geometry.band import BandPredicate

#: Score rank for a split with positive variance reduction (value is the ratio).
RANK_RATIO = 1
#: Score rank for a useless split (no variance reduction).
RANK_USELESS = 0

#: Floor applied to the duplication increase when forming the ratio.  The
#: paper's score ``dVar / dDup`` is infinite for duplication-free splits; a
#: floor of one (estimated) tuple keeps the ratio finite and totally ordered
#: while still strongly preferring duplication-free splits, and — crucially —
#: lets a split of a heavily loaded dense region (large variance reduction,
#: some duplication) win over a negligible duplication-free split of a sparse
#: region.  Among duplication-free splits the ordering degenerates to "largest
#: variance reduction first", exactly the paper's tie-break rule.
MIN_DUPLICATION_FLOOR: float = 1.0


@dataclass(frozen=True, order=True)
class SplitScore:
    """Totally ordered split score (lexicographic on ``(rank, value)``).

    ``value`` is the ratio of load-variance reduction to duplication increase
    (with the duplication floored at one tuple, see
    :data:`MIN_DUPLICATION_FLOOR`); ``rank`` only separates useful splits
    (positive variance reduction) from useless ones.
    """

    rank: int
    value: float

    @property
    def is_useful(self) -> bool:
        """Return ``True`` when applying the split can improve the partitioning."""
        return self.rank == RANK_RATIO and self.value > 0

    @classmethod
    def from_deltas(cls, variance_reduction: float, duplication_increase: float) -> "SplitScore":
        """Build a score from the two deltas (variance reduction, duplication increase)."""
        ratio = variance_reduction / max(duplication_increase, MIN_DUPLICATION_FLOOR)
        if variance_reduction > 0:
            return cls(RANK_RATIO, float(ratio))
        return cls(RANK_USELESS, float(ratio))

    @classmethod
    def worst(cls) -> "SplitScore":
        """Return a score smaller than any score produced by real splits."""
        return cls(RANK_USELESS, -np.inf)


def duplication_interval(
    predicate: BandPredicate, split_value: float, duplicated_side: str
) -> tuple[float, float]:
    """Return the half-open value interval ``[low, high)`` of duplicated-side tuples
    that must be copied to both children of a split at ``split_value``.

    For a **T-split** (T duplicated) the matching S-values of a T-tuple ``t``
    lie in ``[t - eps_right, t + eps_left]``; the tuple reaches the left child
    iff ``t - eps_right < x`` and the right child iff ``t + eps_left >= x``,
    so it is duplicated iff ``x - eps_left <= t < x + eps_right``.

    For an **S-split** (S duplicated) the roles of the asymmetric widths swap.
    """
    if duplicated_side == "T":
        return split_value - predicate.eps_left, split_value + predicate.eps_right
    return split_value - predicate.eps_right, split_value + predicate.eps_left


def sum_squared_loads(leaves: Iterable[LeafStats], ctx: OptimizationContext) -> float:
    """Return ``sum over execution units of load^2`` across all given leaves."""
    return float(sum(leaf.sum_squared_unit_loads(ctx) for leaf in leaves))


def variance_of_leaves(leaves: Iterable[LeafStats], ctx: OptimizationContext) -> float:
    """Return the load variance ``V[P]`` of the partitioning defined by ``leaves``."""
    return ctx.variance_factor * sum_squared_loads(leaves, ctx)


def grid_cell_load(
    est_s: float, est_t: float, est_out: float, rows: int, cols: int, ctx: OptimizationContext
) -> float:
    """Return the per-cell load of an ``rows x cols`` internal 1-Bucket grid."""
    unit_input = est_s / rows + est_t / cols
    unit_output = est_out / (rows * cols)
    return ctx.weights.load(unit_input, unit_output)


def grid_sum_squared(
    est_s: float, est_t: float, est_out: float, rows: int, cols: int, ctx: OptimizationContext
) -> float:
    """Return ``sum over cells of load^2`` of an internal 1-Bucket grid."""
    cell = grid_cell_load(est_s, est_t, est_out, rows, cols, ctx)
    return rows * cols * cell * cell


def grid_total_input(est_s: float, est_t: float, rows: int, cols: int) -> float:
    """Return the total input (incl. replication) of an internal 1-Bucket grid."""
    return cols * est_s + rows * est_t
