"""The routing contract every partitioner keeps on data it never saw.

The serving layer's delta path routes appended rows, and the other side's
rows in their ε-windows, through a partitioning optimized on the base
relations.  So for every partitioner, routing values outside (and between)
what the optimizer observed must still send each tuple at most once to a
unit, and the engine must still produce exactly the single-machine join.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    CSIOPartitioner,
    GridEpsilonPartitioner,
    GridStarPartitioner,
    IEJoinPartitioner,
    OneBucketPartitioner,
)
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition

PARTITIONERS = {
    "RecPart": lambda: RecPartPartitioner(),
    "RecPart-S": lambda: RecPartSPartitioner(),
    "1-Bucket": lambda: OneBucketPartitioner(),
    "Grid-eps": lambda: GridEpsilonPartitioner(),
    "Grid*": lambda: GridStarPartitioner(sample_size=200),
    "CSIO": lambda: CSIOPartitioner(sample_size=200),
    "IEJoin": lambda: IEJoinPartitioner(size_per_block=50),
}


def _relation(name: str, matrix: np.ndarray) -> Relation:
    return Relation.from_rows(name, matrix, [f"A{k + 1}" for k in range(matrix.shape[1])])


def _dyadic(rng: np.random.Generator, n: int, d: int, low: float, high: float) -> np.ndarray:
    """Multiples of 1/8 in ``[low, high]``: band edges compare exactly."""
    return rng.integers(int(low * 8), int(high * 8) + 1, size=(n, d)) / 8.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_unseen_data_routes_each_tuple_once_per_unit(name, d):
    rng = np.random.default_rng(d)
    attributes = [f"A{k + 1}" for k in range(d)]
    condition = BandCondition({a: (0.25, 0.5) for a in attributes})
    seen_s = _relation("S", _dyadic(rng, 300, d, 0.0, 2.0))
    seen_t = _relation("T", _dyadic(rng, 300, d, 0.0, 2.0))
    partitioning = PARTITIONERS[name]().partition(seen_s, seen_t, condition, 6)

    # Mostly outside the observed box, some inside it.
    unseen_s = _dyadic(rng, 400, d, -6.0, 9.0)
    unseen_t = _dyadic(rng, 400, d, -6.0, 9.0)
    for side, matrix in (("S", unseen_s), ("T", unseen_t)):
        rows, units = partitioning.route(matrix, side)
        assert np.bincount(rows, minlength=len(matrix)).min() >= 1
        copies = rows * partitioning.n_units + units
        assert np.unique(copies).size == copies.size, f"{side} copy routed twice"

    ParallelJoinEngine(backend="serial").execute(
        _relation("S", unseen_s), _relation("T", unseen_t), condition, partitioning,
        verify="pairs",
    )


def test_grid_cells_aliasing_outside_the_key_box_route_once():
    """Every cell the optimizer saw on the second dimension is within one
    cell of 0, so a T-range spanning three cells there wraps into the next
    first-dimension row of flat keys: known keys, but two cells per unit."""
    attributes = ["A1", "A2"]
    condition = BandCondition({a: (0.25, 0.5) for a in attributes})
    grid = np.arange(0, 17) / 8.0
    seen = np.column_stack([grid, np.zeros_like(grid)])
    partitioning = GridEpsilonPartitioner().partition(
        _relation("S", seen), _relation("T", seen), condition, 4
    )
    probe = np.array([[0.875, 0.875], [1.0, 0.875]])
    rows, units = partitioning.route(probe, "T")
    copies = rows * partitioning.n_units + units
    assert np.unique(copies).size == copies.size
