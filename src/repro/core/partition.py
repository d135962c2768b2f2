"""Optimization-phase partition state.

During optimization RecPart works exclusively on samples: an input sample of
S and T plus an output sample of join pairs (paper Algorithm 1, lines 1-2).
Every split-tree leaf keeps the indices of the sample tuples that currently
fall into its region — including duplicates created by ancestor splits — so
that input, output and load of the corresponding partition can be estimated
by simple scaled counts.

:class:`OptimizationContext` bundles the immutable shared state (samples,
band condition, worker count, load weights); :class:`LeafStats` is the
mutable per-leaf payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import LoadWeights
from repro.exceptions import OptimizationError
from repro.geometry.band import BandCondition
from repro.geometry.region import Region
from repro.sampling.input_sampler import InputSample
from repro.sampling.output_sampler import OutputSample


@dataclass(frozen=True)
class OptimizationContext:
    """Immutable state shared by every leaf during RecPart optimization.

    Attributes
    ----------
    condition:
        The band-join condition.
    workers:
        Number of workers ``w`` (enters the load-variance formula).
    weights:
        Per-input / per-output load weights (beta2, beta3).
    input_sample / output_sample:
        The samples drawn by Algorithm 1.
    symmetric:
        Whether S-splits are allowed in addition to T-splits.
    small_partition_factor:
        Multiplier of the band width below which a dimension is "small".
    max_split_candidates:
        Cap on the number of candidate boundaries evaluated per leaf and
        dimension (quantile-thinned when the leaf sample is larger).
    scoring_mode:
        Split-scoring measure (``"ratio"``, ``"variance"`` or
        ``"duplication"``); only the ablation study deviates from the paper's
        default ratio.
    """

    condition: BandCondition
    workers: int
    weights: LoadWeights
    input_sample: InputSample
    output_sample: OutputSample
    symmetric: bool = True
    small_partition_factor: float = 2.0
    max_split_candidates: int = 128
    scoring_mode: str = "ratio"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise OptimizationError("workers must be at least 1")
        if self.max_split_candidates < 1:
            raise OptimizationError("max_split_candidates must be at least 1")
        if self.scoring_mode not in ("ratio", "variance", "duplication"):
            raise OptimizationError("scoring_mode must be 'ratio', 'variance' or 'duplication'")

    # ------------------------------------------------------------------ #
    # Derived constants
    # ------------------------------------------------------------------ #
    @property
    def dimensionality(self) -> int:
        """Return the number of join dimensions."""
        return self.condition.dimensionality

    @cached_property
    def epsilons(self) -> np.ndarray:
        """Return the symmetric band widths per dimension (built once per context)."""
        return self.condition.epsilons

    @property
    def variance_factor(self) -> float:
        """Return the ``(w - 1) / w^2`` factor of the load-variance formula."""
        w = self.workers
        return (w - 1) / (w * w) if w > 1 else 1.0

    @property
    def s_scale(self) -> float:
        """Return the S sample scale factor (sample count -> full count)."""
        return self.input_sample.s_scale

    @property
    def t_scale(self) -> float:
        """Return the T sample scale factor."""
        return self.input_sample.t_scale

    @property
    def output_scale(self) -> float:
        """Return the output sample scale factor (sample pairs -> full output)."""
        return self.output_sample.pair_scale

    def scale_for(self, side: str) -> float:
        """Return the scale factor of one relation side (``"S"`` or ``"T"``)."""
        return self.s_scale if side == "S" else self.t_scale

    def root_region(self) -> Region:
        """Return the root region: the data bounding box padded by one band width.

        The paper's root partition is the full attribute space; clipping it to
        the populated bounding box makes the "small partition" criterion
        meaningful at every level of the tree without changing which tuples
        fall where.
        """
        lower, upper = self.input_sample.data_bounds(padding=self.epsilons)
        return Region.from_bounds(lower, upper)


@dataclass
class LeafStats:
    """Mutable sample statistics of one split-tree leaf (a candidate partition).

    ``s_rows`` / ``t_rows`` index into the context's input-sample matrices,
    ``out_rows`` into the output-sample pair arrays.  A row index may appear
    in several leaves when the corresponding tuple was duplicated across an
    ancestor split boundary.

    ``grid_rows`` / ``grid_cols`` implement the paper's small-partition mode:
    a leaf whose region is small in every dimension is no longer split
    recursively; instead its interior is covered by a ``grid_rows x
    grid_cols`` 1-Bucket grid whose granularity the optimizer can increase.
    """

    node_id: int
    region: Region
    s_rows: np.ndarray
    t_rows: np.ndarray
    out_rows: np.ndarray
    grid_rows: int = 1
    grid_cols: int = 1
    version: int = 0
    small: bool | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Cardinality and load estimates
    # ------------------------------------------------------------------ #
    def estimated_s(self, ctx: OptimizationContext) -> float:
        """Return the estimated number of S-tuples (incl. duplicates) in the partition."""
        return self.s_rows.size * ctx.s_scale

    def estimated_t(self, ctx: OptimizationContext) -> float:
        """Return the estimated number of T-tuples (incl. duplicates) in the partition."""
        return self.t_rows.size * ctx.t_scale

    def estimated_output(self, ctx: OptimizationContext) -> float:
        """Return the estimated join output produced by the partition."""
        return self.out_rows.size * ctx.output_scale

    def estimated_input(self, ctx: OptimizationContext) -> float:
        """Return the estimated total input shipped to the partition.

        For a regular leaf this is simply S + T; for a small leaf in
        1-Bucket mode every S-tuple is replicated to ``grid_cols`` cells and
        every T-tuple to ``grid_rows`` cells.
        """
        return self.grid_cols * self.estimated_s(ctx) + self.grid_rows * self.estimated_t(ctx)

    def n_units(self) -> int:
        """Return the number of execution units the leaf expands to."""
        return self.grid_rows * self.grid_cols

    def unit_load(self, ctx: OptimizationContext) -> float:
        """Return the estimated load of one execution unit of this leaf."""
        r, c = self.grid_rows, self.grid_cols
        unit_input = self.estimated_s(ctx) / r + self.estimated_t(ctx) / c
        unit_output = self.estimated_output(ctx) / (r * c)
        return ctx.weights.load(unit_input, unit_output)

    def unit_input(self, ctx: OptimizationContext) -> float:
        """Return the estimated input of one execution unit of this leaf."""
        r, c = self.grid_rows, self.grid_cols
        return self.estimated_s(ctx) / r + self.estimated_t(ctx) / c

    def unit_output(self, ctx: OptimizationContext) -> float:
        """Return the estimated output of one execution unit of this leaf."""
        return self.estimated_output(ctx) / (self.grid_rows * self.grid_cols)

    def load(self, ctx: OptimizationContext) -> float:
        """Return the total estimated load induced by the partition (all units)."""
        return ctx.weights.load(self.estimated_input(ctx), self.estimated_output(ctx))

    def sum_squared_unit_loads(self, ctx: OptimizationContext) -> float:
        """Return ``sum over units of load^2`` — the leaf's contribution to load variance."""
        unit = self.unit_load(ctx)
        return self.n_units() * unit * unit

    # ------------------------------------------------------------------ #
    # Small-partition logic
    # ------------------------------------------------------------------ #
    def is_small(self, ctx: OptimizationContext) -> bool:
        """Return ``True`` when the leaf is small in every dimension (1-Bucket mode).

        Computed once: a leaf's region never changes, and a leaf belongs to
        the one context its tree was grown in.
        """
        if self.small is None:
            self.small = self.region.is_small(ctx.epsilons, ctx.small_partition_factor)
        return self.small

    def splittable_dimensions(self, ctx: OptimizationContext) -> list[int]:
        """Return the dimensions in which regular recursive splitting is still allowed."""
        dims = []
        for dim in range(ctx.dimensionality):
            if not self.region.is_small_in_dimension(
                dim, float(ctx.epsilons[dim]), ctx.small_partition_factor
            ):
                dims.append(dim)
        return dims

    # ------------------------------------------------------------------ #
    # Sample access helpers
    # ------------------------------------------------------------------ #
    def sample_values(self, ctx: OptimizationContext, side: str, dim: int) -> np.ndarray:
        """Return the leaf's sampled join-attribute values of one side in one dimension."""
        if side == "S":
            return ctx.input_sample.s_values[self.s_rows, dim]
        return ctx.input_sample.t_values[self.t_rows, dim]

    def output_owner_values(self, ctx: OptimizationContext, owner_side: str, dim: int) -> np.ndarray:
        """Return, per owned output pair, the coordinate of its ``owner_side`` tuple."""
        if owner_side == "S":
            return ctx.output_sample.s_coords[self.out_rows, dim]
        return ctx.output_sample.t_coords[self.out_rows, dim]

    def bump_version(self) -> None:
        """Invalidate any queued references to this leaf (lazy priority-queue deletion)."""
        self.version += 1

    def __repr__(self) -> str:
        return (
            f"LeafStats(node={self.node_id}, s={self.s_rows.size}, t={self.t_rows.size}, "
            f"out={self.out_rows.size}, grid={self.grid_rows}x{self.grid_cols})"
        )
