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
from repro.local_join import IntervalJoin
from repro.local_join.base import canonical_pair_order
from repro.local_join import kernels
from repro.local_join.kernels import (
    cells_per_dimension,
    column_range,
    stable_argsort,
    window_bounds,
)


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
    algorithm = IntervalJoin()
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
    algorithm = IntervalJoin()
    assert algorithm.count(s, t, large) >= algorithm.count(s, t, small)


@settings(max_examples=40, deadline=None)
@given(values=_value_arrays(dims=2), eps=st.floats(0.01, 3))
def test_self_join_is_reflexive(values, eps):
    """Every tuple joins with itself in a self band-join (diagonal always present)."""
    condition = BandCondition.symmetric(["A1", "A2"], eps)
    pairs = IntervalJoin().join(values, values, condition)
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


def _reference_cell_windows(
    sorted_arr, sorted_order, probe_side, lows, highs, below, above, dim, seen
):
    """``kernels._cell_windows`` with its windows searched the direct way:
    ``searchsorted`` over ``(reach + lows[:, None]).ravel()`` in probe order.

    ``seen`` collects which branches the input took: bucketed dimensions,
    dense ranks and probes whose every window is invalid.
    """
    n, m = sorted_order.shape[0], probe_side.shape[0]
    key_room = (1 << 58) // (n + 1)
    width = below + above
    base, top = column_range(sorted_arr)
    spread = cells_per_dimension(base, top, width)
    spread[dim] = 0
    cell = np.zeros(n, dtype=np.int64)
    reach = np.zeros((m, 1), dtype=np.int64)
    valid = np.ones((m, 1), dtype=bool)
    total = 1
    bucketed = 0
    for i in np.argsort(-spread, kind="stable")[:2]:
        if spread[i] <= 2:
            break
        cells = sorted_arr[:, i]
        first = last = probe_side[:, i]
        if width[i] > 0:
            scale = max(abs(base[i]), abs(top[i]), np.abs(first).max(), width[i])
            slack = 8 * np.spacing(scale)
            cells = np.floor((cells - base[i]) / width[i])
            first = np.floor((first - below[i] - slack - base[i]) / width[i])
            last = np.floor((last + above[i] + slack - base[i]) / width[i])
        dense = not (width[i] > 0 and cells.max() < key_room // total - 1)
        if not dense:
            size = int(cells.max()) + 1
            cells = cells.astype(np.int64)
            first = np.clip(first, 0, size).astype(np.int64)
            last = np.clip(last, -1, size - 1).astype(np.int64)
        else:
            distinct = np.unique(cells)
            size = distinct.shape[0]
            cells = np.searchsorted(distinct, cells)
            first = np.searchsorted(distinct, first, side="left")
            last = np.searchsorted(distinct, last, side="right") - 1
        span = int((last - first).max()) + 1
        if span > 3 or size >= key_room // total:
            continue
        seen.add("dense" if dense else "integer")
        bucketed += 1
        offsets = first[:, None] + np.arange(max(span, 1))
        cell = cell * size + cells
        reach = (reach[:, :, None] * size + offsets[:, None, :]).reshape(m, -1)
        valid = (valid[:, :, None] & (offsets <= last[:, None])[:, None, :]).reshape(m, -1)
        total *= size
    if reach.shape[1] * total == 1:
        return None
    seen.add(f"{bucketed} bucketed")
    if not valid.all(axis=1).all() and (~valid).all(axis=1).any():
        seen.add("all-invalid probe")
    cell = cell[sorted_order]
    order = np.argsort(cell.astype(np.uint16) if total <= 1 << 16 else cell, kind="stable")
    keys = cell[order] * (n + 1) + order
    reach *= n + 1
    starts = np.searchsorted(keys, (reach + lows[:, None]).ravel())
    stops = np.searchsorted(keys, (reach + highs[:, None]).ravel())
    return sorted_order[order], starts, np.where(valid.ravel(), stops - starts, 0), reach.shape[1]


def _check_cell_windows(sorted_arr, probe_arr, below, above, dim) -> set:
    sorted_order = stable_argsort(sorted_arr[:, dim])
    probe_side = probe_arr[stable_argsort(probe_arr[:, dim])]
    lows, highs = window_bounds(
        sorted_arr[sorted_order, dim], probe_side[:, dim], below[dim], above[dim]
    )
    args = (sorted_arr, sorted_order, probe_side, lows, highs, below, above, dim)
    seen: set = set()
    expected = _reference_cell_windows(*args, seen)
    actual = kernels._cell_windows(*args)
    if expected is None:
        assert actual is None
        return seen
    for got, want in zip(actual[:3], expected[:3]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert actual[3] == expected[3]
    return seen


def _cell_inputs(draw, d: int, rows: int, zero_width: bool):
    """Quarter-grid values (ties everywhere); the probe side reaches past
    the sorted side's range so some probes find no cell at all."""
    n = draw(st.integers(1, rows))
    m = draw(st.integers(1, rows))
    sorted_arr = np.array(draw(st.lists(
        st.lists(st.integers(-16, 16), min_size=d, max_size=d), min_size=n, max_size=n
    ))) / 4.0
    probe_arr = np.array(draw(st.lists(
        st.lists(st.integers(-40, 40), min_size=d, max_size=d), min_size=m, max_size=m
    ))) / 4.0
    eighths = st.integers(1, 6).map(lambda k: k / 8.0)
    below = np.array([draw(eighths) for _ in range(d)])
    above = np.array([draw(eighths) for _ in range(d)])
    if zero_width:  # an equality dimension: bucketed by dense rank
        zero = draw(st.integers(0, d - 1))
        below[zero] = above[zero] = 0.0
    return sorted_arr, probe_arr, below, above


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([2, 3]),
    zero_width=st.booleans(),
)
def test_cell_windows_equal_the_probe_order_search(data, d, zero_width):
    """Searching the needles in key order and scattering them back gives
    the windows of the direct search in probe order, array for array."""
    sorted_arr, probe_arr, below, above = _cell_inputs(data.draw, d, 40, zero_width)
    dim = data.draw(st.integers(0, d - 1))
    _check_cell_windows(sorted_arr, probe_arr, below, above, dim)


def test_cell_window_cases_cover_every_branch():
    """Seeded inputs through the same check reach one and two bucketed
    dimensions, the dense-rank branch and probes with only invalid windows."""
    rng = np.random.default_rng(43)
    seen: set = set()
    for case in range(200):
        d = 2 + case % 2
        sorted_arr = rng.integers(-16, 17, size=(rng.integers(1, 60), d)) / 4.0
        probe_arr = rng.integers(-40, 41, size=(rng.integers(1, 60), d)) / 4.0
        below = rng.integers(1, 7, size=d) / 8.0
        above = rng.integers(1, 7, size=d) / 8.0
        if case % 3 == 0:
            below[case % d - 1] = above[case % d - 1] = 0.0
        seen |= _check_cell_windows(sorted_arr, probe_arr, below, above, case % d)
    assert {"1 bucketed", "2 bucketed", "dense", "integer", "all-invalid probe"} <= seen
