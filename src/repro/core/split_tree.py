"""The split tree: recursive partitioning state and tuple routing.

A split tree (paper Figures 3 and 7) is a binary tree over the
join-attribute space.  Each inner node carries a predicate ``A_dim < value``
plus the information which input relation is *duplicated* across that
boundary (a T-split duplicates T, an S-split duplicates S).  Each leaf is a
partition; "small" leaves additionally carry an internal 1-Bucket grid.

The module provides

* :class:`SplitTree` — the optimizer-side mutable structure (applies
  :class:`~repro.core.split.SplitDecision` objects, maintains per-leaf sample
  statistics),
* :class:`SplitTreePartitioning` — the frozen, executable partitioning
  (implements :class:`~repro.core.partitioner.JoinPartitioning` routing,
  paper Algorithm 3) built from a snapshot of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import lpt_assignment
from repro.core.partition import LeafStats, OptimizationContext
from repro.core.partitioner import JoinPartitioning, PartitioningStats, validate_side
from repro.core.scoring import duplication_interval, grid_cell_load
from repro.core.split import KIND_GRID, KIND_REGULAR, SplitDecision
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition
from repro.geometry.region import Region


@dataclass
class SplitNode:
    """One node of the split tree.

    A node is a leaf while ``split_dim is None``; applying a regular split
    turns it into an inner node with two children.  The ``leaf`` payload is
    kept even after the node becomes inner so that earlier snapshots of the
    tree (in which this node still was a leaf) remain fully evaluable.
    """

    node_id: int
    leaf: LeafStats
    split_dim: int | None = None
    split_value: float | None = None
    duplicated_side: str | None = None
    left: "SplitNode | None" = None
    right: "SplitNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Return ``True`` while the node has not been split."""
        return self.split_dim is None


#: Columns of :meth:`SplitTree.leaf_counts`.
COUNT_COLUMNS = ("n_s", "n_t", "n_out", "grid_rows", "grid_cols")


class SplitTree:
    """Mutable split tree grown by the RecPart optimizer.

    Besides the nodes, the tree keeps every node's sample counts and grid
    shape in one array indexed by node id, plus a mask of the current
    leaves, so that pricing the current partitioning (once per optimizer
    iteration) is array arithmetic rather than a walk over the leaves.
    """

    def __init__(self, ctx: OptimizationContext) -> None:
        self.ctx = ctx
        self._nodes: dict[int, SplitNode] = {}
        self._counts = np.zeros((16, len(COUNT_COLUMNS)), dtype=np.int64)
        self._alive = np.zeros(16, dtype=bool)
        self.root = self._add_leaf(
            ctx.root_region(),
            s_rows=np.arange(ctx.input_sample.s_values.shape[0]),
            t_rows=np.arange(ctx.input_sample.t_values.shape[0]),
            out_rows=np.arange(len(ctx.output_sample)),
        )

    def _add_leaf(
        self, region: Region, s_rows: np.ndarray, t_rows: np.ndarray, out_rows: np.ndarray
    ) -> SplitNode:
        """Create a leaf node under the next node id."""
        node_id = len(self._nodes)
        if node_id == self._alive.size:
            self._counts = np.concatenate([self._counts, np.zeros_like(self._counts)])
            self._alive = np.concatenate([self._alive, np.zeros_like(self._alive)])
        leaf = LeafStats(node_id, region, s_rows, t_rows, out_rows)
        node = SplitNode(node_id=node_id, leaf=leaf)
        self._nodes[node_id] = node
        self._counts[node_id] = (s_rows.size, t_rows.size, out_rows.size, 1, 1)
        self._alive[node_id] = True
        return node

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def node(self, node_id: int) -> SplitNode:
        """Return the node with the given id."""
        return self._nodes[node_id]

    def _leaf_ids(self) -> np.ndarray:
        """Return the node ids of the current leaves, ascending."""
        return np.flatnonzero(self._alive)

    def leaves(self) -> list[LeafStats]:
        """Return the payloads of all current leaves (ascending node id)."""
        return [self._nodes[i].leaf for i in self._leaf_ids().tolist()]

    @property
    def n_leaves(self) -> int:
        """Return the current number of leaves."""
        return int(np.count_nonzero(self._alive))

    def leaf_counts(self) -> np.ndarray:
        """Return a ``(5, leaves)`` array of the current leaves' sample counts
        and grid shapes (rows :data:`COUNT_COLUMNS`), in ascending node id."""
        return self._counts[self._alive].T

    def snapshot(self) -> dict[int, tuple[int, int]]:
        """Return the current partitioning as ``{leaf node id: (grid rows, grid cols)}``."""
        return {
            node_id: (self._nodes[node_id].leaf.grid_rows, self._nodes[node_id].leaf.grid_cols)
            for node_id in self._leaf_ids().tolist()
        }

    # ------------------------------------------------------------------ #
    # Split application
    # ------------------------------------------------------------------ #
    def apply_split(self, node_id: int, decision: SplitDecision) -> list[LeafStats]:
        """Apply a split decision to a leaf and return the new/updated leaf payloads."""
        node = self._nodes[node_id]
        if not node.is_leaf:
            raise PartitioningError(f"node {node_id} is not a leaf")
        if decision.kind == KIND_GRID:
            return self._apply_grid_split(node, decision)
        return self._apply_regular_split(node, decision)

    def _apply_grid_split(self, node: SplitNode, decision: SplitDecision) -> list[LeafStats]:
        leaf = node.leaf
        if decision.grid_increment == "row":
            leaf.grid_rows += 1
        elif decision.grid_increment == "col":
            leaf.grid_cols += 1
        else:
            raise PartitioningError(f"unknown grid increment {decision.grid_increment!r}")
        self._counts[node.node_id, 3:] = (leaf.grid_rows, leaf.grid_cols)
        leaf.bump_version()
        return [leaf]

    def _apply_regular_split(self, node: SplitNode, decision: SplitDecision) -> list[LeafStats]:
        ctx = self.ctx
        leaf = node.leaf
        dim = decision.dimension
        value = decision.value
        duplicated_side = decision.duplicated_side
        if dim is None or value is None or duplicated_side not in ("S", "T"):
            raise PartitioningError(f"malformed regular split decision: {decision}")
        predicate = ctx.condition.predicates[dim]
        partitioned_side = "S" if duplicated_side == "T" else "T"

        left_region, right_region = leaf.region.split(dim, value)

        # Partitioned side: disjoint assignment by the split predicate.
        part_rows = leaf.s_rows if partitioned_side == "S" else leaf.t_rows
        part_values = leaf.sample_values(ctx, partitioned_side, dim)
        part_left_mask = part_values < value

        # Duplicated side: copied to every child whose region intersects the
        # tuple's epsilon-range.
        dup_rows = leaf.s_rows if duplicated_side == "S" else leaf.t_rows
        dup_values = leaf.sample_values(ctx, duplicated_side, dim)
        low, high = duplication_interval(predicate, value, duplicated_side)
        dup_left_mask = dup_values < high
        dup_right_mask = dup_values >= low

        # Output ownership follows the partitioned side.
        out_values = leaf.output_owner_values(ctx, partitioned_side, dim)
        out_left_mask = out_values < value

        def side_rows(side: str, left: bool) -> np.ndarray:
            if side == partitioned_side:
                mask = part_left_mask if left else ~part_left_mask
                return np.compress(mask, part_rows)
            mask = dup_left_mask if left else dup_right_mask
            return np.compress(mask, dup_rows)

        left_node = self._add_leaf(
            left_region,
            s_rows=side_rows("S", left=True),
            t_rows=side_rows("T", left=True),
            out_rows=np.compress(out_left_mask, leaf.out_rows),
        )
        right_node = self._add_leaf(
            right_region,
            s_rows=side_rows("S", left=False),
            t_rows=side_rows("T", left=False),
            out_rows=np.compress(~out_left_mask, leaf.out_rows),
        )

        node.split_dim = dim
        node.split_value = value
        node.duplicated_side = duplicated_side
        node.left = left_node
        node.right = right_node
        leaf.bump_version()
        self._alive[node.node_id] = False
        return [left_node.leaf, right_node.leaf]

    # ------------------------------------------------------------------ #
    # Freezing into an executable partitioning
    # ------------------------------------------------------------------ #
    def build_partitioning(
        self,
        snapshot: dict[int, tuple[int, int]],
        workers: int,
        method: str,
        stats: PartitioningStats | None = None,
        seed: int = 0,
    ) -> "SplitTreePartitioning":
        """Freeze a snapshot of the tree into an executable partitioning."""
        return SplitTreePartitioning(
            tree=self,
            snapshot=snapshot,
            workers=workers,
            method=method,
            stats=stats,
            seed=seed,
        )


@dataclass(frozen=True)
class _LeafUnits:
    """Routing metadata of one snapshot leaf: its unit-id range and grid shape."""

    first_unit: int
    grid_rows: int
    grid_cols: int

    @property
    def n_units(self) -> int:
        return self.grid_rows * self.grid_cols


class SplitTreePartitioning(JoinPartitioning):
    """Executable partitioning defined by a snapshot of a split tree.

    Routing follows paper Algorithm 3: at an inner node, tuples of the
    duplicated side are sent to every child whose region intersects their
    epsilon-range, tuples of the other side follow the split predicate.  In a
    small leaf the internal 1-Bucket grid assigns S-tuples to a random grid
    row (replicated across its columns) and T-tuples to a random grid column
    (replicated across its rows).
    """

    def __init__(
        self,
        tree: SplitTree,
        snapshot: dict[int, tuple[int, int]],
        workers: int,
        method: str = "RecPart",
        stats: PartitioningStats | None = None,
        seed: int = 0,
    ) -> None:
        if not snapshot:
            raise PartitioningError("cannot build a partitioning from an empty snapshot")
        self._tree = tree
        self._snapshot = dict(snapshot)
        self._seed = seed
        self._condition = tree.ctx.condition

        self._leaf_units: dict[int, _LeafUnits] = {}
        unit_loads: list[float] = []
        next_unit = 0
        for node_id in sorted(self._snapshot):
            rows, cols = self._snapshot[node_id]
            leaf = tree.node(node_id).leaf
            self._leaf_units[node_id] = _LeafUnits(next_unit, rows, cols)
            cell_load = grid_cell_load(
                leaf.estimated_s(tree.ctx),
                leaf.estimated_t(tree.ctx),
                leaf.estimated_output(tree.ctx),
                rows,
                cols,
                tree.ctx,
            )
            unit_loads.extend([cell_load] * (rows * cols))
            next_unit += rows * cols

        super().__init__(method=method, workers=workers, n_units=next_unit, stats=stats)
        self._unit_workers = lpt_assignment(np.asarray(unit_loads), workers)
        self._unit_loads = np.asarray(unit_loads, dtype=float)

    # ------------------------------------------------------------------ #
    # JoinPartitioning API
    # ------------------------------------------------------------------ #
    def unit_workers(self) -> np.ndarray:
        return self._unit_workers

    def route(self, values: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        side = validate_side(side)
        matrix = np.atleast_2d(np.asarray(values, dtype=float))
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if matrix.shape[1] != self._condition.dimensionality:
            raise PartitioningError(
                f"expected {self._condition.dimensionality} join-attribute columns, "
                f"got {matrix.shape[1]}"
            )
        columns = [np.ascontiguousarray(matrix[:, k]) for k in range(matrix.shape[1])]
        rows_chunks: list[np.ndarray] = []
        unit_chunks: list[np.ndarray] = []
        stack: list[tuple[SplitNode, np.ndarray]] = [
            (self._tree.root, np.arange(matrix.shape[0], dtype=np.int64))
        ]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.node_id in self._snapshot:
                rows, units = self._route_leaf(node, idx, side)
                rows_chunks.append(rows)
                unit_chunks.append(units)
                continue
            if node.left is None or node.right is None:
                raise PartitioningError(
                    f"node {node.node_id} is neither a snapshot leaf nor an inner node"
                )
            dim = node.split_dim
            split_value = node.split_value
            dim_values = columns[dim].take(idx)
            if side == node.duplicated_side:
                predicate = self._condition.predicates[dim]
                low, high = duplication_interval(predicate, split_value, side)
                left_mask = dim_values < high
                right_mask = dim_values >= low
            else:
                left_mask = dim_values < split_value
                right_mask = ~left_mask
            stack.append((node.left, np.compress(left_mask, idx)))
            stack.append((node.right, np.compress(right_mask, idx)))

        if not rows_chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(rows_chunks), np.concatenate(unit_chunks)

    def _route_leaf(
        self, node: SplitNode, idx: np.ndarray, side: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route tuples that reached a snapshot leaf to that leaf's execution units."""
        units = self._leaf_units[node.node_id]
        first = units.first_unit
        rows, cols = units.grid_rows, units.grid_cols
        if rows == 1 and cols == 1:
            return idx, np.full(idx.size, first, dtype=np.int64)
        rng = np.random.default_rng(
            (self._seed, node.node_id, 0 if side == "S" else 1)
        )
        if side == "S":
            row_assign = rng.integers(0, rows, idx.size)
            unit_ids = first + (row_assign[:, None] * cols + np.arange(cols)[None, :])
            return np.repeat(idx, cols), unit_ids.ravel().astype(np.int64)
        col_assign = rng.integers(0, cols, idx.size)
        unit_ids = first + (np.arange(rows)[None, :] * cols + col_assign[:, None])
        return np.repeat(idx, rows), unit_ids.ravel().astype(np.int64)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def n_leaves(self) -> int:
        """Return the number of snapshot leaves (before 1-Bucket expansion)."""
        return len(self._snapshot)

    def leaf_regions(self) -> list:
        """Return the regions of the snapshot leaves (for inspection and plotting)."""
        return [self._tree.node(node_id).leaf.region for node_id in sorted(self._snapshot)]

    def estimated_unit_loads(self) -> np.ndarray:
        """Return the optimizer's per-unit load estimates."""
        return self._unit_loads

    def describe(self) -> dict:
        info = super().describe()
        info["leaves"] = self.n_leaves
        grid_leaves = sum(1 for r, c in self._snapshot.values() if r * c > 1)
        info["small_leaves_in_grid_mode"] = grid_leaves
        return info
