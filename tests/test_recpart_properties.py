"""Property-based tests of RecPart's core invariants (hypothesis).

These drive the full optimizer + engine pipeline with randomly generated
small inputs and check the invariants that must hold for *any* input:

* every input tuple reaches at least one worker,
* the distributed output equals the single-machine join exactly,
* total input never drops below |S| + |T|,
* the partitioned (non-duplicated) side is never replicated by tree splits,
* the lazily scored queue splits the same leaves in the same order as
  searching every new leaf at once, and ``split_score_bound`` bounds every
  leaf's best score.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.recpart as recpart
from repro.config import RecPartConfig
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.core.split import find_best_split, split_score_bound
from repro.core.split_tree import SplitTree
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition


@st.composite
def band_join_instances(draw):
    """Random small band-join instances: clustered or uniform values, 1-2 dims."""
    dims = draw(st.integers(1, 2))
    n_s = draw(st.integers(5, 120))
    n_t = draw(st.integers(5, 120))
    epsilon = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    style = draw(st.sampled_from(["uniform", "clustered", "skewed"]))
    if style == "uniform":
        s_values = rng.uniform(0, 10, size=(n_s, dims))
        t_values = rng.uniform(0, 10, size=(n_t, dims))
    elif style == "clustered":
        centers = rng.uniform(0, 10, size=(3, dims))
        s_values = centers[rng.integers(0, 3, n_s)] + rng.normal(0, 0.5, (n_s, dims))
        t_values = centers[rng.integers(0, 3, n_t)] + rng.normal(0, 0.5, (n_t, dims))
    else:
        s_values = rng.pareto(1.5, size=(n_s, dims)) + 1.0
        t_values = rng.pareto(1.5, size=(n_t, dims)) + 1.0
    attrs = [f"A{i+1}" for i in range(dims)]
    s = Relation("S", {a: s_values[:, i] for i, a in enumerate(attrs)})
    t = Relation("T", {a: t_values[:, i] for i, a in enumerate(attrs)})
    condition = BandCondition.symmetric(attrs, epsilon)
    workers = draw(st.integers(1, 5))
    return s, t, condition, workers


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(instance=band_join_instances(), symmetric=st.booleans())
def test_recpart_produces_exact_output_on_any_input(instance, symmetric):
    s, t, condition, workers = instance
    partitioner_cls = RecPartPartitioner if symmetric else RecPartSPartitioner
    config = RecPartConfig(sample_size=256)
    partitioning = partitioner_cls(config=config).partition(s, t, condition, workers)
    result = ParallelJoinEngine(backend="serial").execute(
        s, t, condition, partitioning, verify="pairs"
    )
    assert result.total_output == result.pairs.shape[0]
    assert result.total_input >= len(s) + len(t)


@_SETTINGS
@given(instance=band_join_instances())
def test_recpart_s_never_duplicates_the_partitioned_side(instance):
    """RecPart-S only uses T-splits, so S-tuples reach exactly one leaf — its
    only possible replication comes from small-leaf 1-Bucket columns."""
    s, t, condition, workers = instance
    config = RecPartConfig(sample_size=256)
    partitioning = RecPartSPartitioner(config=config).partition(s, t, condition, workers)
    matrix = s.join_matrix(condition.attributes)
    counts = partitioning.replication_counts(matrix, "S")
    info = partitioning.describe()
    if info["small_leaves_in_grid_mode"] == 0:
        assert counts.max(initial=1) == 1
    assert counts.min(initial=1) >= 1


@_SETTINGS
@given(instance=band_join_instances())
def test_equi_join_never_duplicates(instance):
    """With all band widths zero nothing is ever within band width of a split."""
    s, t, _, workers = instance
    condition = BandCondition.symmetric(
        [f"A{i+1}" for i in range(len(s.column_names))], 0.0
    )
    config = RecPartConfig(sample_size=256)
    partitioning = RecPartPartitioner(config=config).partition(s, t, condition, workers)
    result = ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning, verify="count")
    info = partitioning.describe()
    if info["small_leaves_in_grid_mode"] == 0:
        assert result.total_input == len(s) + len(t)


# ---------------------------------------------------------------------- #
# The lazily scored queue against eager scoring
# ---------------------------------------------------------------------- #
class EagerRecPart(RecPartPartitioner):
    """RecPart with the loop that searches every new leaf's splits when the
    leaf is created and queues it under its exact score."""

    def _grow_tree(self, tree, tracker, workers):
        ctx = tree.ctx
        heap, decisions = [], {}
        counter = itertools.count(1)

        def push(leaf):
            decision = recpart.find_best_split(leaf, ctx)
            if decision is None:
                return
            decisions[leaf.node_id, leaf.version] = decision
            key = (-decision.score.rank, -decision.score.value)
            heapq.heappush(heap, (key, next(counter), leaf.node_id, leaf.version))

        push(tree.root.leaf)
        tracker.record(tree)
        iteration = 0
        cap = self.config.iteration_cap(workers)
        while heap and iteration < cap:
            _, _, node_id, version = heapq.heappop(heap)
            if tree.node(node_id).leaf.version != version:
                continue
            for new_leaf in tree.apply_split(node_id, decisions[node_id, version]):
                push(new_leaf)
            iteration += 1
            tracker.record(tree)
            if tracker.should_stop():
                break
        return iteration


#: Every (dimensions, data, symmetric, termination, scoring) combination.
PLAN_GRID = list(
    itertools.product(
        (1, 2, 3),
        ("pareto", "uniform", "duplicates", "equi"),
        (True, False),
        ("applied", "theoretical"),
        ("ratio", "variance", "duplication"),
    )
)


def grid_instance(dims, data, seed, rows=600):
    """One input of the plan grid: Pareto, uniform or duplicate-heavy values,
    or Pareto values under an equi-join (all band widths zero)."""
    rng = np.random.default_rng(seed)
    if data == "uniform":
        s_values, t_values = rng.random((rows, dims)), rng.random((rows, dims))
        epsilon = 0.02
    elif data == "duplicates":
        s_values = rng.integers(0, 12, (rows, dims)) / 12.0
        t_values = rng.integers(0, 12, (rows, dims)) / 12.0
        epsilon = 0.05
    else:
        s_values = np.power(1.0 - rng.random((rows, dims)), -1.0 / 1.5)
        t_values = np.power(1.0 - rng.random((rows, dims)), -1.0 / 1.5)
        epsilon = 0.0 if data == "equi" else 0.02
    attrs = [f"A{i+1}" for i in range(dims)]
    s = Relation("S", {a: s_values[:, i] for i, a in enumerate(attrs)})
    t = Relation("T", {a: t_values[:, i] for i, a in enumerate(attrs)})
    return s, t, BandCondition.symmetric(attrs, epsilon)


def plan_of(partitioning):
    """Everything RecPart decides: split nodes, snapshot, iterations, unit
    workers and the estimated max worker load."""
    nodes = partitioning._tree._nodes.values()
    return {
        "splits": sorted(
            (n.node_id, n.split_dim, n.split_value, n.duplicated_side)
            for n in nodes
            if not n.is_leaf
        ),
        "snapshot": partitioning._snapshot,
        "iterations": partitioning.stats.iterations,
        "unit_workers": partitioning.unit_workers().tolist(),
        "max_load": partitioning.stats.estimated_max_load,
    }


def _partition(cls, config, instance, workers, seed):
    s, t, condition = instance
    return cls(config=config).partition(s, t, condition, workers, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    combination=st.sampled_from(PLAN_GRID),
    workers=st.sampled_from([2, 5, 8]),
    seed=st.integers(0, 2**16),
)
def test_lazy_queue_plans_equal_eager_plans(combination, workers, seed):
    dims, data, symmetric, termination, scoring = combination
    instance = grid_instance(dims, data, seed)
    config = RecPartConfig(
        sample_size=200, symmetric=symmetric, termination=termination, scoring=scoring
    )
    lazy = _partition(RecPartPartitioner, config, instance, workers, seed)
    eager = _partition(EagerRecPart, config, instance, workers, seed)
    assert plan_of(lazy) == plan_of(eager)


class _SearchSpy:
    """Records the optimizer's split searches and the splits it applies."""

    def __init__(self, monkeypatch):
        self.searched = []  # (node id, version, bound, decision)
        self.pending = []  # bounds of the searches since the last applied split
        self.violations = 0
        apply_split = SplitTree.apply_split

        def search(leaf, ctx):
            decision = find_best_split(leaf, ctx)
            bound = split_score_bound(leaf, ctx)
            self.searched.append((leaf.node_id, leaf.version, bound, decision))
            self.pending.append(bound)
            return decision

        def apply(tree, node_id, decision):
            self.violations += sum(bound < decision.score.value for bound in self.pending)
            self.pending = []
            return apply_split(tree, node_id, decision)

        monkeypatch.setattr(recpart, "find_best_split", search)
        monkeypatch.setattr(SplitTree, "apply_split", apply)


@pytest.mark.parametrize(
    "combination",
    [c for c in PLAN_GRID if c[1] in ("pareto", "duplicates")][::5],
    ids=lambda c: "-".join(map(str, c)),
)
def test_leaves_are_searched_only_at_the_top_of_the_queue(monkeypatch, combination):
    """Each leaf version is searched at most once, and only when its bound is
    at least the score of the split applied next.  So every search either
    finds nothing, is applied, or waits in the queue: the searches are the
    iterations plus the empty searches plus the searched leaves left unsplit
    when the loop stops."""
    dims, data, symmetric, termination, scoring = combination
    config = RecPartConfig(
        sample_size=400, symmetric=symmetric, termination=termination, scoring=scoring
    )
    spy = _SearchSpy(monkeypatch)
    partitioning = _partition(RecPartPartitioner, config, grid_instance(dims, data, 5), 6, 5)
    tree = partitioning._tree
    versions = [(node_id, version) for node_id, version, _, _ in spy.searched]
    assert len(set(versions)) == len(versions)
    assert spy.violations == 0
    nones = sum(decision is None for *_, decision in spy.searched)
    waiting = sum(
        decision is not None and tree.node(node_id).leaf.version == version
        for node_id, version, _, decision in spy.searched
    )
    assert len(spy.searched) == partitioning.stats.iterations + nones + waiting


def test_lazy_queue_searches_fewer_leaves_than_eager(monkeypatch):
    instance = grid_instance(3, "pareto", 11, rows=4000)
    searches = []
    for cls in (RecPartPartitioner, EagerRecPart):
        searched = []

        def counting_search(leaf, ctx):
            searched.append(leaf.node_id)
            return find_best_split(leaf, ctx)

        monkeypatch.setattr(recpart, "find_best_split", counting_search)
        _partition(cls, RecPartConfig(), instance, 16, 11)
        searches.append(len(searched))
    lazy, eager = searches
    assert lazy < eager


@pytest.mark.parametrize("scoring", ["ratio", "variance", "duplication"])
@pytest.mark.parametrize("data", ["pareto", "duplicates"])
def test_score_bound_bounds_every_leaf(scoring, data):
    """For every node of grown trees (regular and grid leaves, the inner
    nodes' last leaf state included) the bound is at least the best score,
    and a bound <= 0 means there is no split."""
    checked_grid = 0
    for dims, symmetric in itertools.product((1, 2, 3), (True, False)):
        config = RecPartConfig(
            sample_size=400,
            symmetric=symmetric,
            scoring=scoring,
            termination="theoretical",
            max_iterations=150,
        )
        partitioning = _partition(
            RecPartPartitioner, config, grid_instance(dims, data, dims), 6, dims
        )
        tree = partitioning._tree
        for node in tree._nodes.values():
            leaf = node.leaf
            bound = split_score_bound(leaf, tree.ctx)
            decision = find_best_split(leaf, tree.ctx)
            if bound <= 0:
                assert decision is None
            if decision is not None:
                assert bound >= decision.score.value
                checked_grid += decision.kind == "grid"
    if data == "duplicates":
        assert checked_grid > 0
