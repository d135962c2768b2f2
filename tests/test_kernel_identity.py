"""Identity guard: the join's outputs, pair order included, pinned by digest.

The output sampler subsamples pairs by index, so the order in which the
interval kernel emits pairs feeds every RecPart plan.  A rewrite of the
kernel's window search or of its gathers must therefore reproduce every
output array exactly, not just the same pair set.  These digests were
recorded from the kernel before such a rewrite (x86-64, numpy 2.x); a
mismatch means an output array or a plan changed.  Every digest is of the
orientation the join runs: S probes the sorted T.

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
    (1, "plain", "default"): "58df30c30f8d6b4c47ebde35ecd25343ae14a1df66b274036727fb10120215f7",
    (1, "plain", "small"): "58df30c30f8d6b4c47ebde35ecd25343ae14a1df66b274036727fb10120215f7",
    (2, "plain", "default"): "63ef193fc091e15603ceb8f97654c01832fb87470305ab4213eb8029327f251d",
    (2, "plain", "small"): "63ef193fc091e15603ceb8f97654c01832fb87470305ab4213eb8029327f251d",
    (2, "cells", "default"): "4d6120ce58da80e0eba45fe725264d0c320a43a3f07c1a028ab84d954e3f6738",
    (2, "cells", "small"): "4d6120ce58da80e0eba45fe725264d0c320a43a3f07c1a028ab84d954e3f6738",
    (3, "plain", "default"): "f30278e78b2a17f599921ea641017c327aa882c83f54c0184d1b4274e60a6137",
    (3, "plain", "small"): "f30278e78b2a17f599921ea641017c327aa882c83f54c0184d1b4274e60a6137",
    (3, "cells", "default"): "e0012399077bbe27b9bf8a820833915dfe5f6385cd3a9d3c0fb6c760f185ba42",
    (3, "cells", "small"): "e0012399077bbe27b9bf8a820833915dfe5f6385cd3a9d3c0fb6c760f185ba42",
    (4, "plain", "default"): "07fe39ac4e998393c559c7ebb894ad3253c31a1d3cd59ec89ebb83abfc532d45",
    (4, "plain", "small"): "07fe39ac4e998393c559c7ebb894ad3253c31a1d3cd59ec89ebb83abfc532d45",
    (4, "cells", "default"): "ed602dd19c1385ea6bfe398e72e17bc5445cae1baa9670c456f9531fdb51eb01",
    (4, "cells", "small"): "ed602dd19c1385ea6bfe398e72e17bc5445cae1baa9670c456f9531fdb51eb01",
}


@pytest.fixture
def force_cells(monkeypatch):
    def force(plan: str) -> None:
        if plan == "cells":
            monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)

    return force


@pytest.mark.parametrize("key", sorted(GRID_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_kernel_grid(key, force_cells):
    """Every sweep dimension, joined and counted."""
    d, plan, budget = key
    force_cells(plan)
    memory_budget = SMALL_BUDGET if budget == "small" else kernels.DEFAULT_MEMORY_BUDGET
    s, t, condition = _grid_inputs(d)
    outputs = []
    for dim in range(d):
        pairs = kernels.interval_join(s, t, condition, dim, memory_budget)
        count = kernels.interval_count(s, t, condition, dim, memory_budget)
        assert count == pairs.shape[0] > 0
        outputs.append(pairs)
    assert _digest(*outputs) == GRID_DIGESTS[key]


SPECIAL_DIGESTS = {
    "zero-eps-duplicates": "e60593f5e7f4cc61ab9b3d5a0842235e7de871f8d81533aa64de26bc341a2f5a",
    "pareto-natural-cells": "1b23f6b23a3a7aa608d8a6b8f60d8dc14c431a57494d38e844df619c6572053f",
    "scratch-spill": "fd713bbf581230fda548dc8c30cc048104141c053bcff34db260ddd49a36fd56",
    "mmap-input": "fd713bbf581230fda548dc8c30cc048104141c053bcff34db260ddd49a36fd56",
    "d1-zero-eps": "fff98e563b17f7acceca7a5466a76c8074f2adafe95db4f756bb91043276074a",
    "d1-asymmetric": "99d1593c551cfcfafe85f18b487b81bb4aa0991552a613abdec55e2ab2005dc9",
    "d1-mmap-input": "99d1593c551cfcfafe85f18b487b81bb4aa0991552a613abdec55e2ab2005dc9",
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
    if case == "d1-zero-eps":
        s = rng.integers(-3, 4, size=(250, 1)).astype(float)
        t = rng.integers(-3, 4, size=(260, 1)).astype(float)
        return s, t, BandCondition({"A1": 0.0})
    if case in ("d1-asymmetric", "d1-mmap-input"):
        s, t = _pareto(rng, 3000, 1), _pareto(rng, 3200, 1)
        return s, t, BandCondition({"A1": (0.02, 0.07)})
    s, t = _pareto(rng, 1500, 3), _pareto(rng, 1600, 3)
    return s, t, BandCondition({"A1": 0.1, "A2": (0.05, 0.1), "A3": 0.08})


def _mapped(tmp_path, name: str, arr: np.ndarray) -> np.ndarray:
    mapped = np.lib.format.open_memmap(tmp_path / f"{name}.npy", "w+", arr.dtype, arr.shape)
    mapped[:] = arr
    return mapped


@pytest.mark.parametrize("case", sorted(SPECIAL_DIGESTS))
def test_kernel_special_cases(case, tmp_path, monkeypatch):
    """ε = 0 with duplicates, a cell plan the kernel picks itself,
    memory-mapped sides with and without scratch spilling, and the
    one-dimensional join beyond the grid's duplicates: ε = 0, asymmetric ε
    and memory-mapped sides."""
    s, t, condition = _special_inputs(case)
    if case in ("scratch-spill", "mmap-input"):
        monkeypatch.setattr(kernels, "plain_expansion_limit", lambda n, m: 0)
        s = mapped = _mapped(tmp_path, "s", s)
        # A gather from a memmap is heap memory typed np.memmap: recycling
        # its pages must leave it alone.
        gathered = mapped.take(np.array([2, 0]), axis=0)
        assert not madvise_dontneed(gathered)
        np.testing.assert_array_equal(gathered, np.asarray(s)[[2, 0]])
    if case == "d1-mmap-input":
        s, t = _mapped(tmp_path, "s", s), _mapped(tmp_path, "t", t)
    outputs = []
    for dim in range(condition.dimensionality):
        if case == "scratch-spill":
            with SpillArena(str(tmp_path / "scratch")) as arena:
                with kernels.kernel_scratch(arena, 0):  # every sorted copy spills
                    pairs = kernels.interval_join(s, t, condition, dim)
        else:
            pairs = kernels.interval_join(s, t, condition, dim)
        assert kernels.interval_count(s, t, condition, dim) == pairs.shape[0] > 0
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
