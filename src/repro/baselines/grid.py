"""Grid-epsilon: attribute-space grid partitioning.

The classic band-join partitioning (Soloviev's truncating hash, DeWitt et
al.'s partitioned band-join, generalised to multiple dimensions in the
paper's Figure 6): lay a regular grid with cell side length equal to the band
width over the join-attribute space.  Every S-tuple belongs to exactly one
cell; every T-tuple is copied to every cell its epsilon-range intersects —
up to 3 cells per dimension, hence up to ``3^d`` copies in ``d`` dimensions.

Optimization cost is near zero, but the method inherits the two weaknesses
the paper proves and measures: unavoidable duplication that grows
exponentially with dimensionality, and a load floor set by the densest
epsilon-range (Lemma 2).

The implementation supports an arbitrary cell-size multiplier so that the
same machinery powers the Grid* search (:mod:`repro.baselines.grid_star`)
and the grid-size sweep of paper Table 5.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import DEFAULT_SEED, LoadWeights
from repro.core.assignment import lpt_assignment
from repro.core.partitioner import (
    JoinPartitioning,
    Partitioner,
    PartitioningStats,
    validate_side,
)
from repro.data.relation import Relation
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition

#: Safety valve: refuse to materialise more than this many replicated copies.
#: (The paper's Grid-eps similarly "failed ... due to a memory exception" on
#: its largest workload; the guard makes that failure mode explicit.)
DEFAULT_MAX_COPIES: int = 30_000_000


def grid_cell_sizes(condition: BandCondition, multiplier: float) -> np.ndarray:
    """Return the per-dimension grid cell sizes ``multiplier * eps_i``.

    Grid partitioning is undefined for zero band widths (an equi-join
    dimension would need infinitely many cells), mirroring the paper's note
    that Grid-eps is not defined for band width zero.
    """
    if multiplier <= 0:
        raise PartitioningError("grid multiplier must be positive")
    epsilons = condition.epsilons
    if np.any(epsilons <= 0):
        raise PartitioningError(
            "Grid partitioning is not defined for zero band widths "
            "(at least one dimension has eps = 0)"
        )
    return epsilons * multiplier


class GridPartitioning(JoinPartitioning):
    """Concrete grid partitioning: one unit per non-empty grid cell."""

    def __init__(
        self,
        condition: BandCondition,
        cell_sizes: np.ndarray,
        cell_keys: np.ndarray,
        key_minimums: np.ndarray,
        key_strides: np.ndarray,
        unit_worker_ids: np.ndarray,
        workers: int,
        method: str = "Grid-eps",
        stats: PartitioningStats | None = None,
    ) -> None:
        if cell_keys.size == 0:
            raise PartitioningError("grid partitioning needs at least one populated cell")
        super().__init__(method, workers, int(cell_keys.size), stats)
        self._condition = condition
        self._cell_sizes = np.asarray(cell_sizes, dtype=float)
        self._cell_keys = np.asarray(cell_keys, dtype=np.int64)  # sorted unique keys
        self._key_minimums = np.asarray(key_minimums, dtype=np.int64)
        self._key_strides = np.asarray(key_strides, dtype=np.int64)
        self._unit_worker_ids = np.asarray(unit_worker_ids, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Cell arithmetic (shared with the partitioner)
    # ------------------------------------------------------------------ #
    @staticmethod
    def cell_indices(values: np.ndarray, cell_sizes: np.ndarray) -> np.ndarray:
        """Return the per-dimension integer cell indices of each row."""
        return np.floor(np.asarray(values, dtype=float) / cell_sizes).astype(np.int64)

    def _encode(self, indices: np.ndarray) -> np.ndarray:
        """Flatten per-dimension cell indices into a single int64 key."""
        shifted = indices - self._key_minimums
        return (shifted * self._key_strides).sum(axis=1)

    def _lookup_units(self, keys: np.ndarray) -> tuple[np.ndarray, bool]:
        """Map flattened cell keys to unit ids (hash-fallback for unseen cells).

        Also returns whether every key was a cell the optimizer saw.
        """
        positions = np.searchsorted(self._cell_keys, keys)
        positions = np.clip(positions, 0, self._cell_keys.size - 1)
        known = self._cell_keys[positions] == keys
        all_known = bool(np.all(known))
        if not all_known:
            # Cells never seen at optimization time (possible when routing data
            # the optimizer did not observe): fall back to hashing the key.
            positions = positions.copy()
            positions[~known] = np.abs(keys[~known]) % self._cell_keys.size
        return positions.astype(np.int64), all_known

    def _leaves_key_box(self, t_matrix: np.ndarray) -> bool:
        """Return whether some T-range reaches a cell outside the optimizer's
        index box on a dimension past the first, where flat keys alias."""
        if t_matrix.shape[1] < 2:
            return False
        lower, upper = self._condition.epsilon_range(t_matrix, around="t")
        low = np.floor(lower.min(axis=0) / self._cell_sizes).astype(np.int64)
        high = np.floor(upper.max(axis=0) / self._cell_sizes).astype(np.int64)
        extents = self._key_strides[:-1] // self._key_strides[1:]
        return bool(
            np.any(low[1:] < self._key_minimums[1:])
            or np.any(high[1:] >= self._key_minimums[1:] + extents)
        )

    # ------------------------------------------------------------------ #
    # JoinPartitioning API
    # ------------------------------------------------------------------ #
    def unit_workers(self) -> np.ndarray:
        return self._unit_worker_ids

    def route(self, values: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        side = validate_side(side)
        matrix = np.atleast_2d(np.asarray(values, dtype=float))
        n = matrix.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if side == "S":
            indices = self.cell_indices(matrix, self._cell_sizes)
            units, _ = self._lookup_units(self._encode(indices))
            return np.arange(n, dtype=np.int64), units
        rows, keys = expand_epsilon_cells(
            matrix, self._condition, self._cell_sizes, self._key_minimums, self._key_strides
        )
        units, all_known = self._lookup_units(keys)
        if not all_known or self._leaves_key_box(matrix):
            # Hashed or aliased cells can put two cells of one tuple in the
            # same unit; one copy per (row, unit) keeps every pair unique.
            copies = np.unique(rows * self.n_units + units)
            rows, units = copies // self.n_units, copies % self.n_units
        return rows, units

    def describe(self) -> dict:
        info = super().describe()
        info["cell_sizes"] = self._cell_sizes.tolist()
        return info


def expand_epsilon_cells(
    t_matrix: np.ndarray,
    condition: BandCondition,
    cell_sizes: np.ndarray,
    key_minimums: np.ndarray,
    key_strides: np.ndarray,
    max_copies: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand every T-tuple to the flattened keys of all cells its epsilon-range touches.

    Returns parallel arrays ``(row_indices, cell_keys)``; a row appears once
    per touched cell.  Raises :class:`PartitioningError` when the expansion
    would exceed ``max_copies`` (the library's stand-in for the out-of-memory
    failure the paper observed for Grid-eps on its largest workload).
    """
    lower, upper = condition.epsilon_range(t_matrix, around="t")
    low_idx = np.floor(lower / cell_sizes).astype(np.int64)
    high_idx = np.floor(upper / cell_sizes).astype(np.int64)
    counts = high_idx - low_idx + 1
    copies_per_row = counts.prod(axis=1)
    total_copies = int(copies_per_row.sum())
    if max_copies is not None and total_copies > max_copies:
        raise PartitioningError(
            f"grid replication would materialise {total_copies:,} copies "
            f"(limit {max_copies:,}); the grid is too fine for this workload"
        )

    n, d = t_matrix.shape
    # Expand dimension by dimension: each pass multiplies out the cells touched
    # in that dimension while accumulating the flattened key.
    current_rows = np.arange(n, dtype=np.int64)
    current_keys = np.zeros(n, dtype=np.int64)
    for dim in range(d):
        dim_counts = counts[current_rows, dim]
        total = int(dim_counts.sum())
        base = current_keys + (low_idx[current_rows, dim] - key_minimums[dim]) * key_strides[dim]
        offsets = np.repeat(np.cumsum(dim_counts) - dim_counts, dim_counts)
        within = (np.arange(total, dtype=np.int64) - offsets).astype(np.int64)
        current_keys = np.repeat(base, dim_counts) + within * key_strides[dim]
        current_rows = np.repeat(current_rows, dim_counts)
    return current_rows, current_keys


def replication_counts(
    t_matrix: np.ndarray, condition: BandCondition, cell_sizes: np.ndarray
) -> np.ndarray:
    """Return, per T-tuple, the number of grid cells its epsilon-range touches
    (without materialising the copies)."""
    lower, upper = condition.epsilon_range(t_matrix, around="t")
    low_idx = np.floor(lower / cell_sizes).astype(np.int64)
    high_idx = np.floor(upper / cell_sizes).astype(np.int64)
    return (high_idx - low_idx + 1).prod(axis=1)


class GridEpsilonPartitioner(Partitioner):
    """Grid-eps optimizer: build the populated-cell table and place cells on workers.

    Parameters
    ----------
    multiplier:
        Grid cell size as a multiple of the band width (1.0 = the paper's
        default Grid-eps; larger values give the coarser grids of Table 5).
    assignment:
        ``"lpt"`` (greedy placement by per-cell input counts, default) or
        ``"hash"`` (random placement as a plain Hadoop partitioner would do).
    max_copies:
        Upper limit on materialised T-copies before the partitioner refuses
        (simulating the memory failure of an overly fine grid).
    """

    name = "Grid-eps"

    def __init__(
        self,
        multiplier: float = 1.0,
        assignment: str = "lpt",
        weights: LoadWeights | None = None,
        seed: int = DEFAULT_SEED,
        max_copies: int = DEFAULT_MAX_COPIES,
    ) -> None:
        super().__init__(weights=weights, seed=seed)
        if assignment not in ("lpt", "hash"):
            raise PartitioningError("assignment must be 'lpt' or 'hash'")
        self.multiplier = multiplier
        self.assignment = assignment
        self.max_copies = max_copies

    def partition(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int,
        rng: np.random.Generator | None = None,
    ) -> GridPartitioning:
        self._validate_inputs(s, t, condition, workers)
        rng = self._rng(rng)
        start = time.perf_counter()
        cell_sizes = grid_cell_sizes(condition, self.multiplier)
        attrs = condition.attributes
        s_matrix = s.join_matrix(attrs)
        t_matrix = t.join_matrix(attrs)

        s_idx = GridPartitioning.cell_indices(s_matrix, cell_sizes)
        lower, upper = condition.epsilon_range(t_matrix, around="t")
        t_low = np.floor(lower / cell_sizes).astype(np.int64)
        t_high = np.floor(upper / cell_sizes).astype(np.int64)

        minimums, strides = self._key_geometry(s_idx, t_low, t_high)
        t_rows, t_keys = expand_epsilon_cells(
            t_matrix, condition, cell_sizes, minimums, strides, max_copies=self.max_copies
        )
        s_keys = ((s_idx - minimums) * strides).sum(axis=1)

        cell_keys, inverse_counts = np.unique(
            np.concatenate([s_keys, t_keys]), return_counts=True
        )
        unit_loads = inverse_counts.astype(float)
        if self.assignment == "lpt":
            unit_worker_ids = lpt_assignment(unit_loads, workers)
        else:
            unit_worker_ids = rng.integers(0, workers, size=cell_keys.size, dtype=np.int64)

        stats = PartitioningStats(
            optimization_seconds=time.perf_counter() - start,
            iterations=1,
            estimated_total_input=float(s_keys.size + t_keys.size),
            extra={
                "cells": int(cell_keys.size),
                "multiplier": self.multiplier,
                "t_replication": float(t_keys.size / max(1, len(t))),
            },
        )
        return GridPartitioning(
            condition=condition,
            cell_sizes=cell_sizes,
            cell_keys=cell_keys,
            key_minimums=minimums,
            key_strides=strides,
            unit_worker_ids=unit_worker_ids,
            workers=workers,
            method=self.name if self.multiplier == 1.0 else f"Grid(x{self.multiplier:g})",
            stats=stats,
        )

    @staticmethod
    def _key_geometry(
        s_idx: np.ndarray, t_low: np.ndarray, t_high: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute per-dimension index minimums and mixed-radix strides for flat keys
        (an empty side spans no cells)."""
        lows = [idx.min(axis=0) for idx in (s_idx, t_low) if len(idx)]
        highs = [idx.max(axis=0) for idx in (s_idx, t_high) if len(idx)]
        if not lows:
            lows = highs = [np.zeros(s_idx.shape[1], dtype=np.int64)]
        stacked_min = np.min(lows, axis=0)
        stacked_max = np.max(highs, axis=0)
        extents = (stacked_max - stacked_min + 1).astype(np.int64)
        # The flat cell key is a mixed-radix number over the per-dimension cell
        # counts; refuse grids whose key space does not fit in an int64 (this
        # only happens for very fine grids in many dimensions, where the
        # replication explosion makes the grid unusable anyway).
        if float(np.prod(extents.astype(float))) >= 2.0**62:
            raise PartitioningError(
                "grid has too many cells to index: "
                f"per-dimension cell counts {extents.tolist()} overflow the flat cell key; "
                "use a coarser grid"
            )
        strides = np.ones_like(extents)
        for dim in range(extents.size - 2, -1, -1):
            strides[dim] = strides[dim + 1] * extents[dim + 1]
        return stacked_min, strides
