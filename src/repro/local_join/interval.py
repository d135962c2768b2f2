"""The interval band join: the paper's index nested loop as one chunked
``searchsorted`` kernel.

Range-index T on one dimension and binary-search the T-range of every ``s``
(Section 6.1): sort T on the dimension, find with one ``searchsorted`` pair
the contiguous window of T each S-tuple can still join with, expand the
windows chunk by chunk under a byte budget and verify the remaining
dimensions with vectorized masks (:mod:`repro.local_join.kernels`).

``count()`` never materializes pairs: a one-dimensional condition is pure
window arithmetic (``sum(hi - lo)``, no O(output) allocation), further
dimensions accumulate mask sums chunk by chunk.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.band import BandCondition
from repro.local_join import kernels
from repro.local_join.base import LocalJoinAlgorithm, as_matrix


def sweep_dimension(
    s_arr: np.ndarray, t_arr: np.ndarray, condition: BandCondition
) -> int:
    """Return the dimension whose value range over both sides spans the most
    band-wide cells (:func:`~repro.local_join.kernels.cells_per_dimension`);
    zero-width (equality) dimensions win, ties go to the lowest dimension."""
    sides = [arr for arr in (s_arr, t_arr) if arr.shape[0]]
    if not sides:
        sides = [np.zeros((1, condition.dimensionality))]
    ranges = [kernels.column_range(arr) for arr in sides]
    lo = np.min([low for low, _ in ranges], axis=0)
    hi = np.max([high for _, high in ranges], axis=0)
    eps_left, eps_right = condition.eps_arrays()
    return int(np.argmax(kernels.cells_per_dimension(lo, hi, eps_left + eps_right)))


class IntervalJoin(LocalJoinAlgorithm):
    """Sorted-window candidate lookup on one dimension plus residual filtering.

    Parameters
    ----------
    dim:
        Dimension the windows are computed on.  ``None`` picks, per call, the
        :func:`sweep_dimension` (the paper's "A1 is the most selective
        dimension").
    memory_budget:
        Byte budget of the transient candidate buffers; execution backends
        shrink it when several kernels run concurrently.
    """

    name = "index-nested-loop"

    def __init__(
        self,
        dim: int | None = None,
        memory_budget: int = kernels.DEFAULT_MEMORY_BUDGET,
    ) -> None:
        if dim is not None and dim < 0:
            raise ValueError("dim must be non-negative")
        if memory_budget < 1:
            raise ValueError("memory_budget must be positive")
        self.dim = dim
        self.memory_budget = memory_budget

    def _run(self, kernel, s_values, t_values, condition: BandCondition):
        d = condition.dimensionality
        if self.dim is not None and self.dim >= d:
            raise ValueError(f"dim {self.dim} out of range for {d}-dimensional join")
        s_arr = as_matrix(s_values, d)
        t_arr = as_matrix(t_values, d)
        dim = self.dim
        if dim is None:
            dim = sweep_dimension(s_arr, t_arr, condition)
        return kernel(s_arr, t_arr, condition, dim, memory_budget=self.memory_budget)

    def join(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> np.ndarray:
        return self._run(kernels.interval_join, s_values, t_values, condition)

    def count(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> int:
        return self._run(kernels.interval_count, s_values, t_values, condition)

    def __repr__(self) -> str:
        return f"IntervalJoin(dim={self.dim})"
