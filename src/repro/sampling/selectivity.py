"""Cheap sampled band-selectivity estimates.

The optimization phase already samples inputs and join output to balance
load; the serving layer needs a much cheaper signal: roughly what fraction
of the other relation falls inside one tuple's band window, per dimension.
Two consumers read it:

* EXPLAIN reports the per-dimension window fractions and prices the
  expected kernel candidates from them, and
* the serving layer's admission control prices a query by the estimated
  output cardinality before enqueueing it.

The estimator subsamples both sides deterministically (evenly spaced rows —
no RNG to thread through hot call sites), sorts the sampled keys once per
dimension and answers every window with one ``searchsorted`` pair, so its
cost is ``O(k log k)`` for sample size ``k`` regardless of the input or
output size.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.band import BandCondition

__all__ = [
    "DEFAULT_SELECTIVITY_SAMPLE",
    "evenly_spaced_indices",
    "window_fractions",
    "estimate_join_selectivity",
]

#: Default per-side sample size of the selectivity probe.  Small enough to
#: be negligible next to any real kernel invocation, large enough that the
#: per-dimension fraction estimate is stable (relative error ~ 1/sqrt(k)).
DEFAULT_SELECTIVITY_SAMPLE: int = 512


def evenly_spaced_indices(n: int, k: int) -> np.ndarray | None:
    """Return ``k`` evenly spaced row indices of an ``n``-row input, or
    ``None`` when no subsampling is needed (``n <= k``).

    The single deterministic sampling rule of every selectivity consumer
    (this module's probes, the serving layer's admission estimate) — change
    the strategy here and they stay consistent.
    """
    if n <= k:
        return None
    return np.linspace(0, n - 1, num=k).astype(np.int64)


def _evenly_spaced(arr: np.ndarray, k: int) -> np.ndarray:
    """Return up to ``k`` evenly spaced rows of ``arr`` (deterministic)."""
    idx = evenly_spaced_indices(arr.shape[0], k)
    return arr if idx is None else arr[idx]


def window_fractions(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    sample_size: int = DEFAULT_SELECTIVITY_SAMPLE,
) -> np.ndarray:
    """Estimate, per dimension, the mean fraction of T inside an S-row's band.

    Returns a ``(d,)`` float array; entry ``i`` estimates
    ``E_s[ |{t : -eps_left_i <= t.A_i - s.A_i <= eps_right_i}| / |T| ]``.
    Smaller is more selective.  Empty inputs estimate zero.
    """
    d = condition.dimensionality
    if s_arr.shape[0] == 0 or t_arr.shape[0] == 0:
        return np.zeros(d, dtype=float)
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    s_sample = _evenly_spaced(s_arr, sample_size)
    t_sample = _evenly_spaced(t_arr, sample_size)
    eps_left, eps_right = condition.eps_arrays()
    fractions = np.empty(d, dtype=float)
    n_t = t_sample.shape[0]
    for i in range(d):
        keys = np.sort(t_sample[:, i])
        lows = np.searchsorted(keys, s_sample[:, i] - eps_left[i], side="left")
        highs = np.searchsorted(keys, s_sample[:, i] + eps_right[i], side="right")
        fractions[i] = float((highs - lows).mean()) / n_t
    return fractions


def estimate_join_selectivity(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    sample_size: int = DEFAULT_SELECTIVITY_SAMPLE,
) -> float:
    """Estimate ``P[(s, t) joins]`` assuming per-dimension independence.

    The independence assumption overestimates for anti-correlated dimensions
    and underestimates for correlated ones, which is the standard trade-off
    for a selectivity probe this cheap; admission control only needs the
    right order of magnitude.
    """
    return float(np.prod(window_fractions(s_arr, t_arr, condition, sample_size)))

