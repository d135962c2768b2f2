"""Tests for unit-to-worker assignment policies (repro.core.assignment)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (
    load_imbalance,
    lpt_assignment,
    max_worker_load,
    random_assignment,
    round_robin_assignment,
    worker_loads,
)
from repro.exceptions import PartitioningError


def reference_lpt_assignment(loads, workers):
    """LPT with an ``argmin`` over the worker totals per unit (the loop the
    heap replaced); ties go to the lowest worker id."""
    loads = np.asarray(loads, dtype=float)
    assignment = np.zeros(loads.shape[0], dtype=np.int64)
    if loads.shape[0] == 0 or workers == 1:
        return assignment
    worker_totals = np.zeros(workers, dtype=float)
    for unit in np.argsort(-loads, kind="stable"):
        target = int(np.argmin(worker_totals))
        assignment[unit] = target
        worker_totals[target] += loads[unit]
    return assignment


class TestLPT:
    @settings(max_examples=200, deadline=None)
    @given(
        loads=st.one_of(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]), max_size=60),
            st.lists(st.floats(0, 1e6), max_size=60),
        ),
        workers=st.integers(1, 9),
    )
    def test_matches_argmin_reference(self, loads, workers):
        """Tied loads and tied worker totals resolve exactly as argmin does."""
        np.testing.assert_array_equal(
            lpt_assignment(np.array(loads), workers),
            reference_lpt_assignment(np.array(loads), workers),
        )

    def test_balances_equal_loads(self):
        loads = np.ones(8)
        assignment = lpt_assignment(loads, 4)
        totals = worker_loads(loads, assignment, 4)
        assert np.allclose(totals, 2.0)

    def test_heavy_units_spread_out(self):
        loads = np.array([10.0, 10.0, 1.0, 1.0, 1.0, 1.0])
        assignment = lpt_assignment(loads, 2)
        assert assignment[0] != assignment[1]

    def test_single_worker(self):
        loads = np.array([3.0, 2.0, 1.0])
        assignment = lpt_assignment(loads, 1)
        assert np.all(assignment == 0)

    def test_empty_units(self):
        assert lpt_assignment(np.empty(0), 4).shape == (0,)

    def test_negative_loads_rejected(self):
        with pytest.raises(PartitioningError):
            lpt_assignment(np.array([-1.0]), 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(PartitioningError):
            lpt_assignment(np.array([1.0]), 0)

    @settings(max_examples=50, deadline=None)
    @given(
        loads=st.lists(st.floats(0, 100), min_size=1, max_size=40),
        workers=st.integers(1, 8),
    )
    def test_lpt_within_approximation_bound(self, loads, workers):
        """LPT is a 4/3-approximation of the optimal makespan: in particular it is
        never worse than max(largest unit, total/workers) * 4/3 + largest unit."""
        loads_arr = np.array(loads)
        assignment = lpt_assignment(loads_arr, workers)
        achieved = max_worker_load(loads_arr, assignment, workers)
        lower_bound = max(loads_arr.max(initial=0.0), loads_arr.sum() / workers)
        # The greedy bound: the last-finishing worker's load before receiving
        # its final unit is at most total/workers <= lower_bound * 4/3, plus
        # at most one largest unit on top (the bound the docstring states —
        # lower_bound * 4/3 alone is violated by e.g. four unit loads on
        # three workers, where the optimal makespan itself is 2 > 16/9).
        assert achieved <= lower_bound * 4 / 3 + loads_arr.max(initial=0.0) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        loads=st.lists(st.floats(0, 100), min_size=1, max_size=30),
        workers=st.integers(1, 6),
    )
    def test_every_unit_assigned(self, loads, workers):
        loads_arr = np.array(loads)
        assignment = lpt_assignment(loads_arr, workers)
        assert assignment.shape == loads_arr.shape
        assert assignment.min() >= 0 and assignment.max() < workers


class TestOtherPolicies:
    def test_random_assignment_range(self, rng):
        assignment = random_assignment(100, 5, rng)
        assert assignment.min() >= 0 and assignment.max() < 5

    def test_random_assignment_invalid(self, rng):
        with pytest.raises(PartitioningError):
            random_assignment(10, 0, rng)
        with pytest.raises(PartitioningError):
            random_assignment(-1, 2, rng)

    def test_round_robin(self):
        assignment = round_robin_assignment(6, 3)
        assert assignment.tolist() == [0, 1, 2, 0, 1, 2]

    def test_round_robin_invalid(self):
        with pytest.raises(PartitioningError):
            round_robin_assignment(5, 0)


class TestAggregation:
    def test_worker_loads_sums(self):
        loads = np.array([1.0, 2.0, 3.0])
        assignment = np.array([0, 0, 1])
        np.testing.assert_array_equal(worker_loads(loads, assignment, 3), [3.0, 3.0, 0.0])

    def test_worker_loads_shape_mismatch(self):
        with pytest.raises(PartitioningError):
            worker_loads(np.ones(3), np.zeros(2, dtype=int), 2)

    def test_max_worker_load(self):
        loads = np.array([5.0, 1.0])
        assignment = np.array([1, 0])
        assert max_worker_load(loads, assignment, 2) == 5.0

    def test_load_imbalance_perfect(self):
        loads = np.ones(4)
        assignment = np.array([0, 1, 2, 3])
        assert load_imbalance(loads, assignment, 4) == pytest.approx(1.0)

    def test_load_imbalance_zero_load(self):
        assert load_imbalance(np.zeros(2), np.array([0, 1]), 2) == 1.0
