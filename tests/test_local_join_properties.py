"""Property-based tests (hypothesis) for the local band join.

Agreement of every registry name with the reference join is
``tests/test_local_join.py::TestKernelEquivalence``; these are the algebraic
properties of the output itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.geometry.band import BandCondition
from repro.local_join import default_local_join
from repro.local_join.base import canonical_pair_order


def _value_arrays(max_rows: int = 24, dims: int = 2):
    return npst.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(0, max_rows), st.just(dims)),
        elements=st.floats(-20, 20, allow_nan=False, allow_infinity=False, width=32),
    )


@settings(max_examples=40, deadline=None)
@given(s=_value_arrays(dims=1), t=_value_arrays(dims=1), eps=st.floats(0, 5))
def test_output_symmetry_of_symmetric_band(s, t, eps):
    """For a symmetric band condition, join(S, T) and join(T, S) are transposes."""
    condition = BandCondition.symmetric(["A1"], eps)
    algorithm = default_local_join()
    forward = canonical_pair_order(algorithm.join(s, t, condition))
    backward = canonical_pair_order(algorithm.join(t, s, condition)[:, ::-1])
    np.testing.assert_array_equal(canonical_pair_order(forward), canonical_pair_order(backward))


@settings(max_examples=40, deadline=None)
@given(s=_value_arrays(dims=1), eps_small=st.floats(0, 1), eps_extra=st.floats(0, 2))
def test_output_monotone_in_band_width(s, eps_small, eps_extra):
    """Widening the band can only add output pairs (Figure 1's spectrum)."""
    t = s + 0.25  # deterministic second input derived from the first
    small = BandCondition.symmetric(["A1"], eps_small)
    large = BandCondition.symmetric(["A1"], eps_small + eps_extra)
    algorithm = default_local_join()
    assert algorithm.count(s, t, large) >= algorithm.count(s, t, small)


@settings(max_examples=40, deadline=None)
@given(values=_value_arrays(dims=2), eps=st.floats(0.01, 3))
def test_self_join_is_reflexive(values, eps):
    """Every tuple joins with itself in a self band-join (diagonal always present)."""
    condition = BandCondition.symmetric(["A1", "A2"], eps)
    pairs = default_local_join().join(values, values, condition)
    if values.shape[0] == 0:
        assert pairs.shape[0] == 0
        return
    pair_set = {(int(a), int(b)) for a, b in pairs}
    assert all((i, i) in pair_set for i in range(values.shape[0]))
