"""Property-based tests (hypothesis) for the local band join.

Agreement of every registry name with the reference join is
``tests/test_local_join.py::TestKernelEquivalence``; these are the algebraic
properties of the output itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.geometry.band import BandCondition
from repro.local_join import default_local_join
from repro.local_join.base import canonical_pair_order
from repro.local_join.kernels import stable_argsort


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


#: Values the stable sort orders specially: NaNs sort last and tie with each
#: other, -0.0 ties with 0.0, and the infinities bound everything else.
_SPECIAL_FLOATS = st.sampled_from([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.0])


@settings(max_examples=100, deadline=None)
@given(
    values=npst.arrays(
        dtype=np.float64,
        shape=st.integers(0, 80),
        elements=st.one_of(_SPECIAL_FLOATS, st.floats(-3, 3, width=16)),
    ),
    presort=st.booleans(),
)
@example(values=np.empty(0), presort=False)
@example(values=np.array([np.nan]), presort=False)
@example(values=np.array([0.0, -0.0, 0.0, -0.0]), presort=False)
@example(values=np.array([np.nan, 1.0, np.nan, -np.inf, np.inf, np.nan]), presort=True)
def test_stable_argsort_is_the_stable_sort(values, presort):
    """``stable_argsort`` returns ``np.argsort(kind="stable")`` bit for bit:
    ties (heavy here, from a handful of values) keep row order, already
    sorted input included."""
    if presort:
        values = np.sort(values)
    np.testing.assert_array_equal(stable_argsort(values), np.argsort(values, kind="stable"))


def test_stable_argsort_on_heavy_ties_at_scale():
    rng = np.random.default_rng(0)
    for values in (
        rng.integers(0, 7, 50_000).astype(float),
        np.round(rng.random(50_000), 3),
        np.where(rng.random(50_000) < 0.1, np.nan, rng.integers(-2, 3, 50_000) * 0.0),
    ):
        np.testing.assert_array_equal(stable_argsort(values), np.argsort(values, kind="stable"))
