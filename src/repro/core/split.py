"""Split enumeration and selection (paper Algorithm 2, ``best_split``).

For a *regular* leaf the best split is searched over every splittable
dimension and every candidate boundary (mid-points between consecutive
sampled values), separately for T-splits (S partitioned, T duplicated) and —
when symmetric partitioning is enabled — S-splits.  For a *small* leaf the
only options are incrementing the row or column count of its internal
1-Bucket grid.

All candidate evaluation is vectorised: every candidate of a leaf — over
all dimensions and both split kinds — is scored in one array pass over the
leaf's sorted sample values.  :func:`split_score_bound` bounds a leaf's best
score from its load alone, so the optimizer searches a leaf only when that
bound reaches the top of its queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import LeafStats, OptimizationContext
from repro.core.scoring import (
    MIN_DUPLICATION_FLOOR,
    RANK_RATIO,
    SplitScore,
    grid_sum_squared,
    grid_total_input,
)

#: Split kinds.
KIND_REGULAR = "regular"
KIND_GRID = "grid"


@dataclass(frozen=True)
class SplitDecision:
    """The outcome of ``best_split`` for one leaf.

    For ``kind == "regular"`` the split is the predicate
    ``A_dimension < value`` with ``duplicated_side`` indicating which input
    is copied across the boundary ("T" = T-split, "S" = S-split).
    For ``kind == "grid"`` the split increments the internal 1-Bucket grid of
    a small leaf (``grid_increment`` is ``"row"`` or ``"col"``).
    """

    kind: str
    score: SplitScore
    variance_reduction: float
    duplication_increase: float
    dimension: int | None = None
    value: float | None = None
    duplicated_side: str | None = None
    grid_increment: str | None = None

    def describe(self) -> str:
        """Return a short human-readable description of the split."""
        if self.kind == KIND_GRID:
            return f"grid +{self.grid_increment}"
        side = "T-split" if self.duplicated_side == "T" else "S-split"
        return f"{side} A{self.dimension + 1} < {self.value:g}"


def best_regular_split(leaf: LeafStats, ctx: OptimizationContext) -> SplitDecision | None:
    """Return the best recursive split of a regular leaf, or ``None`` if none is useful.

    Candidates are the mid-points between consecutive distinct sampled values
    (S and T combined) strictly inside the leaf's region, thinned to at most
    ``ctx.max_split_candidates`` evenly spaced choices per dimension.  Every
    (splittable dimension x duplicated side x boundary) candidate is scored in
    one array pass over the leaf's once-sorted S, T and output-owner columns.
    Ties go to the earlier dimension, then to T-splits over S-splits, then to
    the last boundary among equal scores.
    """
    sample, out = ctx.input_sample, ctx.output_sample
    s_vals = sample.s_values.take(leaf.s_rows, axis=0)
    t_vals = sample.t_values.take(leaf.t_rows, axis=0)
    n_s, n_t, n_out = s_vals.shape[0], t_vals.shape[0], leaf.out_rows.size

    # Candidate boundaries of every dimension, flattened dimension-major.
    merged = np.sort(np.concatenate([s_vals, t_vals]), axis=0).T
    lower, upper = leaf.region.lower, leaf.region.upper
    eps_left, eps_right = ctx.condition.eps_arrays()
    small_extent = ctx.small_partition_factor * np.maximum(eps_left, eps_right)
    cap = ctx.max_split_candidates
    per_dim = []
    for dim, values in enumerate(merged):
        if upper[dim] - lower[dim] <= small_extent[dim]:
            per_dim.append(values[:0])  # Too small to split in this dimension.
            continue
        mids = 0.5 * (values[:-1] + values[1:])
        distinct = values[1:] != values[:-1]
        rows = np.flatnonzero(distinct & (mids > lower[dim]) & (mids < upper[dim]))
        if rows.size > cap:
            rows = rows[np.round(np.linspace(0, rows.size - 1, cap)).astype(int)]
        per_dim.append(mids[rows])
    sizes = [candidates.size for candidates in per_dim]
    bounds = np.concatenate(per_dim)
    if bounds.size == 0:
        return None
    dims = np.repeat(np.arange(ctx.dimensionality), sizes)

    # below[f]: S (f=0) / T (f=1) values under x, under the upper end and
    # under the lower end of the duplication interval when that side is the
    # duplicated one (see duplication_interval); owned[f]: output pairs whose
    # S / T tuple lies under x.  One searchsorted per sorted column.
    zero = np.zeros_like(eps_left)
    shifts = np.array([[zero, eps_left, -eps_right], [zero, eps_right, -eps_left]])
    queries = bounds + shifts[:, :, dims]
    columns = [np.sort(v, axis=0) for v in (s_vals, t_vals)]
    owners = [np.sort(c.take(leaf.out_rows, axis=0), axis=0) for c in (out.s_coords, out.t_coords)]
    below = np.empty(queries.shape, dtype=np.int64)
    owned = np.empty((2, bounds.size), dtype=np.int64)
    hi = 0
    for dim, size in enumerate(sizes):
        lo, hi = hi, hi + size
        if size == 0:
            continue
        for f in (0, 1):
            below[f, :, lo:hi] = columns[f][:, dim].searchsorted(queries[f, :, lo:hi])
            owned[f, lo:hi] = owners[f][:, dim].searchsorted(bounds[lo:hi])

    # Row 0 scores T-splits (S partitioned, T duplicated), row 1 S-splits.
    sides = 2 if ctx.symmetric else 1
    part_left, dup_left, dup_below = below[[[0, 1], [1, 0], [1, 0]], [[0], [1], [2]]][:, :sides]
    out_left = owned[:sides]
    n_part = np.array([[n_s], [n_t]])[:sides]
    n_dup = np.array([[n_t], [n_s]])[:sides]
    part_scale = np.array([[ctx.s_scale], [ctx.t_scale]])[:sides]
    dup_scale = np.array([[ctx.t_scale], [ctx.s_scale]])[:sides]
    dup_right = n_dup - dup_below

    # Child loads (estimated full-relation cardinalities).
    left_input = part_left * part_scale + dup_left * dup_scale
    right_input = (n_part - part_left) * part_scale + dup_right * dup_scale
    left_load = ctx.weights.load(left_input, out_left * ctx.output_scale)
    right_load = ctx.weights.load(right_input, (n_out - out_left) * ctx.output_scale)

    parent_sum_sq = leaf.sum_squared_unit_loads(ctx)
    children_sum_sq = left_load * left_load + right_load * right_load
    variance_reduction = ctx.variance_factor * (parent_sum_sq - children_sum_sq)
    duplication_increase = (dup_left + dup_right - n_dup) * dup_scale

    # The ratio of variance reduction to duplication increase, with the
    # duplication floored at one tuple (see MIN_DUPLICATION_FLOOR).  The
    # alternative modes are only used by the scoring-measure ablation;
    # "duplication" ranks the splits that reduce variance by least duplication.
    if ctx.scoring_mode == "variance":
        ratios = variance_reduction
    elif ctx.scoring_mode == "duplication":
        ratios = np.where(variance_reduction > 0, 1.0 / (1.0 + duplication_increase), 0.0)
    else:
        ratios = variance_reduction / np.maximum(duplication_increase, MIN_DUPLICATION_FLOOR)
    # A positive ratio implies a variance reduction, so the best positive
    # ratio is the best useful split.
    best_ratio = ratios.max()
    if not best_ratio > 0:
        return None
    side, j = np.divmod(np.flatnonzero(ratios == best_ratio), bounds.size)
    combination = 2 * dims[j] + side
    pick = np.flatnonzero(combination == combination.min())[-1]
    side, j = int(side[pick]), int(j[pick])
    return SplitDecision(
        kind=KIND_REGULAR,
        score=SplitScore(RANK_RATIO, float(best_ratio)),
        variance_reduction=float(variance_reduction[side, j]),
        duplication_increase=float(duplication_increase[side, j]),
        dimension=int(dims[j]),
        value=float(bounds[j]),
        duplicated_side="TS"[side],
    )


def best_grid_split(leaf: LeafStats, ctx: OptimizationContext) -> SplitDecision | None:
    """Return the best internal 1-Bucket refinement of a small leaf, or ``None``.

    The two options are incrementing the number of row sub-partitions
    (duplicates every T-tuple of the leaf once more) or the number of column
    sub-partitions (duplicates every S-tuple once more); the one with the
    better variance-reduction / duplication ratio wins (Algorithm 2, lines 8-13).
    """
    est_s = leaf.estimated_s(ctx)
    est_t = leaf.estimated_t(ctx)
    est_out = leaf.estimated_output(ctx)
    r, c = leaf.grid_rows, leaf.grid_cols
    current_sum_sq = grid_sum_squared(est_s, est_t, est_out, r, c, ctx)
    current_input = grid_total_input(est_s, est_t, r, c)

    options: list[SplitDecision] = []
    for increment, (new_r, new_c) in (("row", (r + 1, c)), ("col", (r, c + 1))):
        new_sum_sq = grid_sum_squared(est_s, est_t, est_out, new_r, new_c, ctx)
        new_input = grid_total_input(est_s, est_t, new_r, new_c)
        variance_reduction = ctx.variance_factor * (current_sum_sq - new_sum_sq)
        duplication_increase = new_input - current_input
        score = SplitScore.from_deltas(variance_reduction, duplication_increase)
        options.append(
            SplitDecision(
                kind=KIND_GRID,
                score=score,
                variance_reduction=float(variance_reduction),
                duplication_increase=float(duplication_increase),
                grid_increment=increment,
            )
        )
    best = max(options, key=lambda d: d.score)
    if not best.score.is_useful:
        return None
    return best


#: Relative slack of :func:`split_score_bound` over the float rounding of the
#: scores it bounds.
BOUND_SLACK = 1e-9


def split_score_bound(leaf: LeafStats, ctx: OptimizationContext) -> float:
    """Return an upper bound on ``find_best_split(leaf, ctx).score.value``.

    A bound <= 0 means ``find_best_split`` returns ``None``.  The bound is
    cheap (no candidate is scored), so the optimizer can queue a leaf under it
    and search its splits only when the leaf reaches the top of the queue.

    * Small leaf: a grid refinement cannot lower the sum of squared unit
      loads below zero, and its ratio divides by at least one tuple, so the
      score is at most ``variance_factor * sum of unit loads^2``.
    * Regular leaf of load ``P``: both children together hold every tuple
      and output pair of the parent, so their loads ``L + R >= P`` and
      ``L^2 + R^2 >= P^2 / 2``; the variance reduction, and with it the
      "ratio" and "variance" scores, is at most ``variance_factor * P^2 / 2``.
      A "duplication" score ``1 / (1 + dup)`` is at most 1 whenever some
      split can reduce variance.
    """
    if leaf.s_rows.size == 0 and leaf.t_rows.size == 0:
        return 0.0
    if leaf.is_small(ctx):
        bound = ctx.variance_factor * leaf.sum_squared_unit_loads(ctx)
    else:
        bound = 0.5 * ctx.variance_factor * leaf.sum_squared_unit_loads(ctx)
        if ctx.scoring_mode == "duplication" and bound > 0:
            bound = 1.0
    return bound * (1.0 + BOUND_SLACK)


def find_best_split(leaf: LeafStats, ctx: OptimizationContext) -> SplitDecision | None:
    """Algorithm 2: return the best split of a leaf (regular or grid), or ``None``.

    A regular partition is searched for the best decision-tree-style split;
    a small partition (below twice the band width in every dimension)
    instead refines its internal 1-Bucket grid.
    """
    if leaf.s_rows.size == 0 and leaf.t_rows.size == 0:
        return None
    if leaf.is_small(ctx):
        return best_grid_split(leaf, ctx)
    return best_regular_split(leaf, ctx)
