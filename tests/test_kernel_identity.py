"""Identity guard: the join's outputs, pair order included, pinned by digest.

The output sampler subsamples pairs by index, so the order in which the
interval kernel emits pairs feeds every RecPart plan.  A rewrite of the
kernel's window search or of its gathers must therefore reproduce every
output array exactly, not just the same pair set.  These digests were
recorded from the kernel before such a rewrite (x86-64, numpy 2.x); a
mismatch means an output array or a plan changed.

Inputs are built from integers and correctly rounded ``math.pow`` so that no
vectorized transcendental (whose last bit may depend on the CPU's SIMD
level) reaches a digest.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.split_tree import SplitTreePartitioning
from repro.data.relation import Relation
from repro.data.storage import SpillArena, madvise_dontneed
from repro.engine import ParallelJoinEngine, PlanCache
from repro.geometry.band import BandCondition
from repro.local_join import kernels


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _grid_inputs(d: int) -> tuple[np.ndarray, np.ndarray, BandCondition]:
    """Eighths in [-1.5, 1.5): negative values and many duplicates."""
    rng = np.random.default_rng([2020, d])
    s = rng.integers(-12, 12, size=(300, d)) / 8.0
    t = rng.integers(-12, 12, size=(340, d)) / 8.0
    widths = {f"A{i}": ((i % 3 + 1) * 0.25, ((i + 1) % 2 + 1) * 0.125) for i in range(d)}
    return s, t, BandCondition(widths)


def _pareto(rng: np.random.Generator, rows: int, dims: int) -> np.ndarray:
    """Pareto-1.5 values on a 2**-30 grid of uniforms (the batch shape)."""
    uniforms = rng.integers(1, 1 << 30, size=rows * dims) / float(1 << 30)
    return np.array([math.pow(u, -1.0 / 1.5) for u in uniforms]).reshape(rows, dims)


#: Budget whose candidate cap (97) splits the grid's windows into many chunks.
SMALL_BUDGET = 97 * kernels.CANDIDATE_BYTES

GRID_DIGESTS = {
    (2, "plain", "default"): "b1c5dc1e582e2fd783dbbf031d5a7331c88f189ff2e878151ed1b6acdc587992",
    (2, "plain", "small"): "b1c5dc1e582e2fd783dbbf031d5a7331c88f189ff2e878151ed1b6acdc587992",
    (2, "cells", "default"): "91073e4fdefa227ad0290f83c524c6b323e7adba6f723c4735d06b2fa42acdcc",
    (2, "cells", "small"): "91073e4fdefa227ad0290f83c524c6b323e7adba6f723c4735d06b2fa42acdcc",
    (3, "plain", "default"): "ffbf1a8dbb895c5913073086ba2bb42376a7a2cdf3f29f0a38c855821678d9d9",
    (3, "plain", "small"): "ffbf1a8dbb895c5913073086ba2bb42376a7a2cdf3f29f0a38c855821678d9d9",
    (3, "cells", "default"): "6d3b761419dc4f63911b48338690bcd2cd7afb120c43834f8afd85ba3ce34646",
    (3, "cells", "small"): "6d3b761419dc4f63911b48338690bcd2cd7afb120c43834f8afd85ba3ce34646",
    (4, "plain", "default"): "7cdcf6b610adc9d6e091d7f95ed22ee544a6ccc65a5dbaa0d49150d74ef279a1",
    (4, "plain", "small"): "7cdcf6b610adc9d6e091d7f95ed22ee544a6ccc65a5dbaa0d49150d74ef279a1",
    (4, "cells", "default"): "08abb9eca0a1e28d29e5b0615eef3ab29ecfbf94a68590d4a297003ab99e1953",
    (4, "cells", "small"): "08abb9eca0a1e28d29e5b0615eef3ab29ecfbf94a68590d4a297003ab99e1953",
}


@pytest.fixture
def force_cells(monkeypatch):
    def force(plan: str) -> None:
        if plan == "cells":
            monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)

    return force


@pytest.mark.parametrize("key", sorted(GRID_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_kernel_grid(key, force_cells):
    """Every sweep dimension and both probe sides, joined and counted."""
    d, plan, budget = key
    force_cells(plan)
    memory_budget = SMALL_BUDGET if budget == "small" else kernels.DEFAULT_MEMORY_BUDGET
    s, t, condition = _grid_inputs(d)
    outputs = []
    for dim in range(d):
        for probe_is_s in (True, False):
            pairs = kernels.interval_join(s, t, condition, dim, probe_is_s, memory_budget)
            count = kernels.interval_count(s, t, condition, dim, probe_is_s, memory_budget)
            assert count == pairs.shape[0] > 0
            outputs.append(pairs)
    assert _digest(*outputs) == GRID_DIGESTS[key]


SPECIAL_DIGESTS = {
    "zero-eps-duplicates": "b978348aaaadb415810479c17b5c13d41fffb70a48a0865034f21b9c6450804d",
    "pareto-natural-cells": "e61b3451b7185212ef5a4b2834f37a2d006ba875e69688f45159ab4f9654097c",
    "scratch-spill": "391d161e849cf433e7d52786bd41677649d6efa6fb9a480c8e17014b9ceaa7b9",
    "mmap-input": "391d161e849cf433e7d52786bd41677649d6efa6fb9a480c8e17014b9ceaa7b9",
}


def _special_inputs(case: str):
    rng = np.random.default_rng([2020, 99])
    if case == "zero-eps-duplicates":
        s = rng.integers(-3, 4, size=(250, 3)).astype(float)
        t = rng.integers(-3, 4, size=(260, 3)).astype(float)
        return s, t, BandCondition({"A1": 0.0, "A2": (0.0, 1.0), "A3": 0.0})
    if case == "pareto-natural-cells":
        s, t = _pareto(rng, 3000, 2), _pareto(rng, 3000, 2)
        return s, t, BandCondition.symmetric(["A1", "A2"], 0.05)
    s, t = _pareto(rng, 1500, 3), _pareto(rng, 1600, 3)
    return s, t, BandCondition({"A1": 0.1, "A2": (0.05, 0.1), "A3": 0.08})


@pytest.mark.parametrize("case", sorted(SPECIAL_DIGESTS))
def test_kernel_special_cases(case, tmp_path, monkeypatch):
    """ε = 0 with duplicates, a cell plan the kernel picks itself, and
    memory-mapped sides with and without scratch spilling."""
    s, t, condition = _special_inputs(case)
    if case in ("scratch-spill", "mmap-input"):
        monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
        mapped = np.lib.format.open_memmap(tmp_path / "s.npy", "w+", s.dtype, s.shape)
        mapped[:] = s
        s = mapped
        # A gather from a memmap is heap memory typed np.memmap: recycling
        # its pages must leave it alone.
        gathered = mapped.take(np.array([2, 0]), axis=0)
        assert not madvise_dontneed(gathered)
        np.testing.assert_array_equal(gathered, np.asarray(s)[[2, 0]])
    outputs = []
    for dim in range(condition.dimensionality):
        for probe_is_s in (True, False):
            if case == "scratch-spill":
                with SpillArena(str(tmp_path / "scratch")) as arena:
                    with kernels.kernel_scratch(arena, 0):  # every sorted copy spills
                        pairs = kernels.interval_join(s, t, condition, dim, probe_is_s)
            else:
                pairs = kernels.interval_join(s, t, condition, dim, probe_is_s)
            assert pairs.shape[0] > 0
            outputs.append(pairs)
    assert _digest(*outputs) == SPECIAL_DIGESTS[case]


BATCH_SHAPES = {"d2": (2, 0.01, 8), "d3": (3, 0.005, 32)}

BATCH_DIGESTS = {
    ("d2", 0): "b282894cd3a04562ff4a17235c939aa7adec66077cc38d4663c15783e26024cd",
    ("d2", 1): "e5c2852b1c13e07b8b9909a097f9d28dcc0cc969818e725caefca2dd4934d3e8",
    ("d2", 2): "844e8aa4641ef4061df71dff31ea5c5c9764e73fda236b358a32710982c0a7ab",
    ("d3", 0): "d6ae6cba9edabe80b4ba42fc9a53d0eca6da6bee84c495d1e6c46235aee05fdc",
    ("d3", 1): "9a0cfccc3e6df1820b8939dec10943de1d8f6070d4443c7bbf4abdeb913593c2",
    ("d3", 2): "b2a814f964f89cabfbb7a658a5263e156e1ac3473e3d75396c810516f801d19f",
}


def _plan_arrays(partitioning: SplitTreePartitioning) -> list[np.ndarray]:
    """Unit owners and every inner node's split of a RecPart plan."""
    tree = partitioning._tree
    splits, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if node.left is None:
            continue
        side = 0.0 if node.duplicated_side == "S" else 1.0
        splits.append((node.node_id, node.split_dim, node.split_value, side))
        stack.extend((node.left, node.right))
    return [partitioning.unit_workers(), np.array(splits, dtype=float)]


@pytest.mark.parametrize("key", sorted(BATCH_DIGESTS), ids=lambda k: f"{k[0]}-seed{k[1]}")
def test_batch_plans_and_pairs(key):
    """The two benchmark batch shapes at 5k x 5k: plan, routing and pairs."""
    shape, seed = key
    dims, eps, workers = BATCH_SHAPES[shape]
    rng = np.random.default_rng([2020, dims])
    s_matrix, t_matrix = _pareto(rng, 5000, dims), _pareto(rng, 5000, dims)
    names = [f"A{k + 1}" for k in range(dims)]
    s = Relation("S", {name: s_matrix[:, k] for k, name in enumerate(names)})
    t = Relation("T", {name: t_matrix[:, k] for k, name in enumerate(names)})
    condition = BandCondition.symmetric(names, [eps] * dims)
    engine = ParallelJoinEngine(backend="serial")
    engine.plan_cache = PlanCache()
    result = engine.join(
        s, t, condition, workers=workers, materialize=True,
        rng=np.random.default_rng(seed),
    )
    partitioning = result.partitioning
    assert isinstance(partitioning, SplitTreePartitioning)
    routes = [*partitioning.route(s_matrix, "S"), *partitioning.route(t_matrix, "T")]
    assert result.pairs.shape[0] == result.total_output > 0
    assert _digest(*_plan_arrays(partitioning), *routes, result.pairs) == BATCH_DIGESTS[key]
