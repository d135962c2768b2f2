"""Vectorized primitives of the interval band join.

The join takes three steps, with S probing and T sorted:

1. **Windows** — sort T on a chosen dimension and compute, with one
   ``np.searchsorted`` pair, the contiguous ``[lo, hi)`` rank window of T
   whose ``t - s`` lies in ``[-eps_left, eps_right]`` for each S-tuple.  When
   those windows are expensive to expand (:func:`plain_expansion_limit`),
   the sorted side is also bucketed into cells one band wide on up to two
   other dimensions and each window is split by neighbouring cell.
2. **Chunked expansion** — consecutive windows are grouped so their summed
   sizes stay under a configurable *memory budget*; each chunk's candidate
   pairs are expanded with ``np.repeat``/``np.arange`` (never the full
   candidate set at once).
3. **Residual filtering** — every band dimension but the sorted one is
   verified with vectorized masks over the candidate chunk (the cells of
   step 1 only have to be a superset).

Counting never materializes pairs: a one-dimensional condition is counted
purely from the window arithmetic (``sum(hi - lo)``, no per-row allocation at
all), and multi-dimensional counts accumulate ``mask.sum()`` chunk by chunk,
so the transient allocation is bounded by the memory budget rather than by
the output size.

The hot loops keep to three numpy rules (timings on numpy 2.4, x86-64),
which the join's planner and router follow too:

* **Ordered needles.**  ``searchsorted`` costs ~50 ns per needle when the
  needles are sorted and ~270 ns when they are in random order (100k
  needles into 200k keys): sort the needles once, search, scatter back.
* **``compress`` over boolean masks.**  ``x[mask]`` over 2M elements takes
  ~21 ms, ``np.compress(mask, x)`` ~7 ms (a mask turned into positions once,
  ``flatnonzero`` + ``take``, costs the same).  Below ~1k elements the
  mask is cheaper.
* **``take(axis=0)`` over row fancy indexing.**  ``M[rows]`` of 25k rows of
  a ``(100k, 2)`` matrix takes ~0.8 ms, ``M.take(rows, axis=0)`` ~0.08 ms.
  Not for a strided *index* array (a pair-array column): there ``take``
  copies the index first and fancy indexing is faster.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro import faults
from repro.data.storage import block_spans, madvise_dontneed
from repro.geometry.band import BandCondition
from repro.local_join.base import empty_pairs
from repro.obs.kernelprof import kernel_profile_start, publish_kernel_profile

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "CANDIDATE_BYTES",
    "max_candidates",
    "window_bounds",
    "chunk_spans",
    "iter_window_candidates",
    "residual_mask",
    "cells_per_dimension",
    "column_range",
    "plain_expansion_limit",
    "interval_join",
    "interval_count",
    "kernel_scratch",
    "stable_argsort",
]

#: Approximate bytes held per candidate pair during expansion + filtering
#: (two int64 position arrays, one float64 diff, one bool mask, slack).
CANDIDATE_BYTES: int = 32

#: Default candidate-buffer budget (bytes) of one kernel invocation: 4M
#: candidates.  A single worker's transient expansion stays far below typical
#: per-core memory while chunks stay large enough to amortize numpy call
#: overhead.
DEFAULT_MEMORY_BUDGET: int = 4_000_000 * CANDIDATE_BYTES


def max_candidates(memory_budget: int) -> int:
    """Translate a byte budget into the per-chunk candidate-pair cap."""
    if memory_budget < 1:
        raise ValueError("memory_budget must be positive")
    return max(1, int(memory_budget) // CANDIDATE_BYTES)


# --------------------------------------------------------------------- #
# Out-of-core scratch context
# --------------------------------------------------------------------- #

_SCRATCH = threading.local()


@contextmanager
def kernel_scratch(arena, threshold_bytes: int):
    """Let kernels on this thread spill large permuted copies to ``arena``.

    The kernels sort each side with one permutation gather
    (``arr[order]``); inside an active scratch context, gathers larger than
    ``threshold_bytes`` land in scratch memory maps filled block by block
    (resident pages recycled as they go) instead of on the heap.  The chunk
    loop then reads slices of the mmap exactly as it reads slices of an
    in-memory array — the byte-budget chunking is unchanged.
    """
    previous = getattr(_SCRATCH, "ctx", None)
    _SCRATCH.ctx = (arena, int(threshold_bytes))
    try:
        yield
    finally:
        _SCRATCH.ctx = previous


def _permuted(arr: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Return ``arr[order]``, spilled to scratch when large and allowed."""
    ctx = getattr(_SCRATCH, "ctx", None)
    if ctx is None or arr.nbytes <= ctx[1]:
        return arr.take(order, axis=0)
    arena, _ = ctx
    out = arena.empty_matrix(arr.dtype, arr.shape[0], arr.shape[1], prefix="sorted")
    block_rows = max(1, (4 * 1024 * 1024) // max(1, arr.shape[1] * arr.itemsize))
    for index, (b0, b1) in enumerate(block_spans(arr.shape[0], block_rows)):
        out[b0:b1] = arr.take(order[b0:b1], axis=0)
        if index % 4 == 3:
            madvise_dontneed(out)
            madvise_dontneed(arr)
    madvise_dontneed(arr)
    return out


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """Return ``np.argsort(values, kind="stable")``, computed faster.

    Already sorted input (the serving layer's memoized sort order) costs one
    O(n) comparison pass.  Otherwise numpy's default argsort runs, several
    times faster than its stable timsort on floats, and only the stretches of
    equal values it left out of row order are repaired: O(ties log ties).
    Equal means what the stable sort treats as equal, so ``-0.0`` ties with
    ``0.0`` and NaNs, which sort last, tie with each other.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 2 or bool(np.all(values[1:] >= values[:-1])):
        return np.arange(n, dtype=np.intp)
    order = np.argsort(values)
    ranked = values[order]
    tie = ranked[1:] == ranked[:-1]
    if ranked[-1] != ranked[-1]:
        tie |= (ranked[1:] != ranked[1:]) & (ranked[:-1] != ranked[:-1])
    tied = np.flatnonzero(tie)
    if tied.size == 0:
        return order
    # Positions in a stretch of equal values, and which stretch each is in.
    in_stretch = np.zeros(n, dtype=bool)
    in_stretch[tied] = True
    in_stretch[tied + 1] = True
    positions = np.flatnonzero(in_stretch)
    stretch = np.cumsum(np.concatenate(([True], ~tie[positions[1:] - 1])))
    keys = np.sort(stretch.astype(np.int64) * n + order[positions])
    order[positions] = keys % n
    return order


def _recycle(*arrays: np.ndarray) -> None:
    """Drop resident pages of any memory-mapped operands (no-op otherwise)."""
    for arr in arrays:
        if isinstance(arr, np.memmap):
            madvise_dontneed(arr)


def window_bounds(
    sorted_keys: np.ndarray,
    probe_keys: np.ndarray,
    below: float,
    above: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-probe ``[lo, hi)`` windows of ``sorted_keys`` in
    ``[probe - below, probe + above]`` (one ``np.searchsorted`` pair total)."""
    lows = np.searchsorted(sorted_keys, probe_keys - below, side="left")
    highs = np.searchsorted(sorted_keys, probe_keys + above, side="right")
    # Non-negative widths make hi >= lo already; guard against pathological
    # float rounding when probe +- eps collapses.
    return lows, np.maximum(highs, lows)


def chunk_spans(counts: np.ndarray, candidate_cap: int) -> Iterator[tuple[int, int]]:
    """Yield consecutive ``(start, stop)`` probe-row spans whose summed
    window sizes stay within ``candidate_cap``.

    Each span holds at least one row, so a single window larger than the cap
    forms its own span (``iter_window_candidates`` slices those further).
    The span boundaries are found with ``searchsorted`` over the running sum
    — no per-row Python loop.
    """
    n = int(counts.shape[0])
    if n == 0:
        return
    cumulative = np.cumsum(counts, dtype=np.int64)
    start = 0
    while start < n:
        consumed = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, consumed + candidate_cap, side="right"))
        stop = min(max(stop, start + 1), n)
        # Chaos hook: a fired ``task_slow`` point stalls this chunk,
        # simulating a straggling worker mid-kernel.
        faults.maybe_slow()
        yield start, stop
        start = stop


def iter_window_candidates(
    lows: np.ndarray,
    counts: np.ndarray,
    candidate_cap: int,
    rows: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(probe_pos, window_pos)`` candidate chunks of at most
    ``candidate_cap`` pairs each, expanded with ``repeat``/``arange``.

    ``probe_pos`` indexes the probe rows — ``rows[w]`` for a candidate of
    window ``w``, or ``w`` itself without ``rows`` — and ``window_pos`` the
    sorted side.  Oversized single windows are emitted in slices so the cap
    holds for *every* chunk, keeping peak transient memory bounded.
    """
    if rows is None:
        rows = np.arange(counts.shape[0], dtype=np.int64)
    for start, stop in chunk_spans(counts, candidate_cap):
        if stop == start + 1 and counts[start] > candidate_cap:
            lo = int(lows[start])
            hi = lo + int(counts[start])
            for piece in range(lo, hi, candidate_cap):
                window_pos = np.arange(piece, min(piece + candidate_cap, hi), dtype=np.int64)
                probe_pos = np.full(window_pos.size, rows[start], dtype=np.int64)
                yield probe_pos, window_pos
            continue
        chunk_counts = counts[start:stop]
        total = int(chunk_counts.sum())
        if total == 0:
            continue
        probe_pos = np.repeat(rows[start:stop], chunk_counts)
        # One fused repeat: each row contributes lows[row] - (elements emitted
        # before it), so adding arange(total) walks its window left to right.
        shifts = lows[start:stop] - (np.cumsum(chunk_counts) - chunk_counts)
        yield probe_pos, np.repeat(shifts, chunk_counts) + np.arange(total, dtype=np.int64)


def residual_mask(
    s_arr: np.ndarray,
    s_pos: np.ndarray,
    t_arr: np.ndarray,
    t_pos: np.ndarray,
    eps_left: np.ndarray,
    eps_right: np.ndarray,
    skip_dim: int,
) -> np.ndarray:
    """Return the boolean mask of candidates satisfying every dimension but
    ``skip_dim`` (already decided by the window), testing ``t - s`` against
    the asymmetric widths exactly like the reference nested loop."""
    keep = np.ones(s_pos.size, dtype=bool)
    for i in range(s_arr.shape[1]):
        if i == skip_dim:
            continue
        diff = t_arr[:, i].take(t_pos) - s_arr[:, i].take(s_pos)
        keep &= (diff >= -eps_left[i]) & (diff <= eps_right[i])
    return keep


def cells_per_dimension(lo: np.ndarray, hi: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Return how many band-wide cells the value range ``[lo, hi]`` spans per
    dimension, ``(hi - lo) / width``, and ``inf`` on zero-width (equality)
    dimensions.

    The one selectivity rule of the local join: the more cells, the smaller
    the share of the other side a band window reaches.  The interval kernel
    sweeps the dimension with the most cells (the paper's "most selective
    dimension") and :func:`_cell_windows` buckets the next ones.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(width > 0, (hi - lo) / width, np.inf)


def column_range(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the per-column minimum and maximum of a non-empty ``(n, d)``
    array.

    Equal to ``arr.min(axis=0), arr.max(axis=0)``, but reduces one column at
    a time: on a narrow C-ordered matrix that is 5–10× faster than the
    axis-0 reduction, which steps through d values per row.
    """
    columns = [arr[:, k] for k in range(arr.shape[1])]
    return np.array([col.min() for col in columns]), np.array([col.max() for col in columns])


def plain_expansion_limit(n: int, m: int) -> int:
    """Return the candidate count up to which ``n`` sorted and ``m`` probe
    rows expand their one-dimensional windows directly: bucketing costs a
    second sort and several lookups per probe, which only a larger expansion
    repays (measured on 400x400 .. 26,000x26,000 inputs)."""
    return max(4 * (n + m), 1 << 17)


def _cell_windows(
    sorted_arr: np.ndarray,
    sorted_order: np.ndarray,
    probe_side: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    below: np.ndarray,
    above: np.ndarray,
    dim: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """Bucket the sorted side on its residual dimensions.

    The (at most two) residual dimensions with the most cells of width
    ``below + above`` are bucketed; the sorted side is reordered by (cell,
    rank in ``sorted_order``) and every probe row gets one window per cell
    its band can reach — two per bucketed dimension — by looking the integer
    keys ``cell * (n + 1) + rank`` of its ``[lo, hi)`` rank window up in the
    reordered side.  Returns ``(order, window lows, window counts, windows
    per probe)``, or ``None`` when no dimension is worth bucketing.

    The cells only have to be a superset of the band (the residual mask
    verifies every bucketed dimension again), and the cell function is
    monotone, so widening each probe's value range by a few ulps of the
    column scale covers any rounding of ``t - s`` in the mask.  Zero-width
    dimensions bucket by distinct value; cell ids too large for the int64
    key are replaced by their dense ranks.
    """
    n, m = sorted_order.shape[0], probe_side.shape[0]
    # Cell ids (and the few out-of-range ones probes reach for) times
    # ``n + 1`` must stay inside int64.
    key_room = (1 << 58) // (n + 1)
    width = below + above
    base, top = column_range(sorted_arr)
    spread = cells_per_dimension(base, top, width)
    spread[dim] = 0
    cell = np.zeros(n, dtype=np.int64)
    reach = np.zeros((m, 1), dtype=np.int64)
    valid = np.ones((m, 1), dtype=bool)
    total = 1  # cells of the dimensions bucketed so far
    for i in np.argsort(-spread, kind="stable")[:2]:
        if spread[i] <= 2:  # the two cells a probe reaches are all there is
            break
        cells = sorted_arr[:, i]
        first = last = probe_side[:, i]
        if width[i] > 0:
            scale = max(abs(base[i]), abs(top[i]), np.abs(first).max(), width[i])
            slack = 8 * np.spacing(scale)
            cells = np.floor((cells - base[i]) / width[i])
            first = np.floor((first - below[i] - slack - base[i]) / width[i])
            last = np.floor((last + above[i] + slack - base[i]) / width[i])
        if width[i] > 0 and cells.max() < key_room // total - 1:
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
        # A band below the float resolution of the column reaches many
        # cells, and two dense dimensions of a huge side can still exceed
        # the key: such a dimension is left to the residual mask.
        if span > 3 or size >= key_room // total:
            continue
        offsets = first[:, None] + np.arange(max(span, 1))
        cell = cell * size + cells
        reach = (reach[:, :, None] * size + offsets[:, None, :]).reshape(m, -1)
        valid = (valid[:, :, None] & (offsets <= last[:, None])[:, None, :]).reshape(m, -1)
        total *= size
    if reach.shape[1] * total == 1:  # nothing bucketed, or one cell holds it all
        return None
    cell = cell.take(sorted_order)
    # numpy radix-sorts 16-bit keys; wider ones fall back to a merge sort.
    order = np.argsort(cell.astype(np.uint16) if total <= 1 << 16 else cell, kind="stable")
    keys = cell.take(order) * (n + 1) + order
    # Every column of ``reach`` is its first column plus a constant, and
    # ``lows <= highs <= n``: one sort of the first column's needles orders
    # every column's lows and (up to ties) highs.  Search in that order and
    # scatter the windows back to probe order.
    reach *= n + 1
    by_key = np.argsort(reach[:, 0] + lows)
    first = reach[:, 0].take(by_key)
    shifts = (reach[0] - reach[0, 0])[:, None]
    starts = np.empty_like(reach)
    counts = np.empty_like(reach)
    starts[by_key] = np.searchsorted(keys, first + lows.take(by_key) + shifts).T
    counts[by_key] = np.searchsorted(keys, first + highs.take(by_key) + shifts).T
    counts -= starts
    counts *= valid
    return sorted_order.take(order), starts.ravel(), counts.ravel(), reach.shape[1]


def _iter_matches(
    probe_arr: np.ndarray,
    sorted_arr: np.ndarray,
    condition: BandCondition,
    dim: int,
    candidate_cap: int,
    profile: dict | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield fully verified ``(s_idx, t_idx)`` chunks of original row ids
    for a multi-dimensional condition (S probes, T is sorted).

    Both sides are sorted on ``dim`` and every probe row gets its ``[lo,
    hi)`` rank window.  When expanding those windows is cheap
    (:func:`plain_expansion_limit`) they are the plan; otherwise
    :func:`_cell_windows` splits each of them by the cells of the residual
    dimensions, so a probe only expands rows near it in those dimensions
    too.  Either way the residual mask verifies every dimension except
    ``dim`` on every candidate.
    """
    below, above = condition.eps_arrays()
    sorted_order = stable_argsort(sorted_arr[:, dim])
    probe_order = stable_argsort(probe_arr[:, dim])
    # Sorted probes walk the sorted side front to back: cache-local binary
    # searches and gathers, and mmap pages that can be recycled behind them.
    probe_side = _permuted(probe_arr, probe_order)
    lows, highs = window_bounds(
        sorted_arr[:, dim].take(sorted_order), probe_side[:, dim], below[dim], above[dim]
    )
    counts = highs - lows
    rows = None
    if int(counts.sum()) > plain_expansion_limit(sorted_arr.shape[0], probe_arr.shape[0]):
        plan = _cell_windows(
            sorted_arr, sorted_order, probe_side, lows, highs, below, above, dim
        )
        if plan is not None:
            sorted_order, lows, counts, per_probe = plan
            rows = np.repeat(np.arange(probe_arr.shape[0], dtype=np.int64), per_probe)
    sorted_side = _permuted(sorted_arr, sorted_order)
    _recycle(probe_side, sorted_side)
    for probe_pos, window_pos in iter_window_candidates(lows, counts, candidate_cap, rows):
        if profile is not None:
            profile["chunks"] += 1
            profile["candidates"] += int(probe_pos.size)
            profile["max_chunk"] = max(profile["max_chunk"], int(probe_pos.size))
        keep = np.flatnonzero(
            residual_mask(probe_side, probe_pos, sorted_side, window_pos, below, above, dim)
        )
        # Memory-mapped sides: drop the pages this chunk touched before
        # moving on, so a full pass stays within a bounded resident set.
        _recycle(probe_side, sorted_side)
        if profile is not None:
            profile["pairs"] += int(keep.size)
        if keep.size:
            yield probe_order.take(probe_pos.take(keep)), sorted_order.take(window_pos.take(keep))


def interval_count(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    dim: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> int:
    """Count band-join pairs without materializing any of them.

    One-dimensional conditions are pure window arithmetic: sort T's keys,
    one ``searchsorted`` pair, ``sum(hi - lo)`` — no boolean masks, no
    candidate expansion, no O(output) allocation.  Further dimensions fall
    back to chunk-wise expansion + masked counting under the memory budget.
    """
    if s_arr.shape[0] == 0 or t_arr.shape[0] == 0:
        return 0
    profile = kernel_profile_start()
    if profile is not None:
        wall, t0 = time.time(), time.perf_counter()
    if condition.dimensionality == 1:
        below, above = condition.eps_arrays()
        keys = np.sort(t_arr[:, dim])
        # Sorted probes keep the binary searches cache-local (~5x faster).
        lows, highs = window_bounds(keys, np.sort(s_arr[:, dim]), below[dim], above[dim])
        total = int((highs - lows).sum())
        if profile is not None:
            profile["pairs"] = total
    else:
        total = sum(
            int(probe_idx.size)
            for probe_idx, _ in _iter_matches(
                s_arr, t_arr, condition, dim, max_candidates(memory_budget), profile
            )
        )
    if profile is not None:
        publish_kernel_profile(
            profile, "count", condition.dimensionality,
            max_candidates(memory_budget), time.perf_counter() - t0, start=wall,
        )
    return total


def interval_join(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    dim: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Materialize the band-join pairs through the chunked interval kernel.

    Returns ``(m, 2)`` ``(s_index, t_index)`` pairs in implementation order.
    """
    if s_arr.shape[0] == 0 or t_arr.shape[0] == 0:
        return empty_pairs()
    profile = kernel_profile_start()
    if profile is not None:
        wall, t0 = time.time(), time.perf_counter()

    if condition.dimensionality == 1:
        # Every candidate is a result: expand straight into the output array
        # (the transients are output-sized, which materialization implies
        # anyway).  Probes are sorted for cache-local binary searches; the
        # original row ids come back through one fused repeat.
        below, above = condition.eps_arrays()
        sorted_order = stable_argsort(t_arr[:, dim])
        sorted_side = _permuted(t_arr, sorted_order)
        probe_order = stable_argsort(s_arr[:, dim])
        lows, highs = window_bounds(
            sorted_side[:, dim], s_arr[:, dim].take(probe_order), below[dim], above[dim]
        )
        counts = highs - lows
        total = int(counts.sum())
        if total == 0:
            pairs = empty_pairs()
        else:
            pairs = np.empty((total, 2), dtype=np.int64)
            # Window positions are built in their output column and mapped
            # there: one column-sized temporary at a time beside the pairs.
            window_pos = pairs[:, 1]
            window_pos[:] = np.repeat(lows - (np.cumsum(counts) - counts), counts)
            window_pos += np.arange(total, dtype=np.int64)
            window_pos[:] = sorted_order[window_pos]
            pairs[:, 0] = np.repeat(probe_order, counts)
        if profile is not None:
            profile["chunks"] = 1 if total else 0
            profile["candidates"] = total
            profile["pairs"] = total
            profile["max_chunk"] = total
    else:
        chunks = list(
            _iter_matches(s_arr, t_arr, condition, dim, max_candidates(memory_budget), profile)
        )
        pairs = np.empty((sum(chunk[0].size for chunk in chunks), 2), dtype=np.int64)
        if chunks:
            np.concatenate([chunk[0] for chunk in chunks], out=pairs[:, 0])
            np.concatenate([chunk[1] for chunk in chunks], out=pairs[:, 1])
    if profile is not None:
        publish_kernel_profile(
            profile, "join", condition.dimensionality,
            max_candidates(memory_budget), time.perf_counter() - t0, start=wall,
        )
    return pairs
