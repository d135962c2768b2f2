"""The interval band join: one chunked ``searchsorted`` kernel, three names.

Sort one side on a dimension, find with one ``searchsorted`` pair the
contiguous window of that side each tuple of the other (probe) side can
still join with, expand the windows chunk by chunk under a byte budget and
verify the remaining dimensions with vectorized masks
(:mod:`repro.local_join.kernels`).  The local algorithms of the literature
are this kernel under different ``(dim, probe)`` arguments, and the
registry keeps their names (:data:`ALIASES`):

``index-nested-loop``
    The paper's local algorithm (Section 6.1): range-index T on the most
    selective dimension, binary-search the T-range of every ``s``.  That is
    ``dim=None`` (:func:`sweep_dimension` picks the dimension with the most
    band-wide cells per call), probing with S.
``sort-sweep``
    The plane sweep over the first dimension with a window of T-tuples that
    can still join the current S-tuple: ``dim=0``, probing with S.
``iejoin-local``
    IEJoin (Khayyat et al., VLDBJ 2017) on the two inequalities of the first
    band predicate.  Both inequalities are on the same column, so the set
    inserted by the sweep (``s.A <= t.A + eps_left``) and the set selected
    by the bit-array prefix scan (``s.A >= t.A - eps_right``) are value
    prefixes of one sorted order, and their intersection is the rank
    interval ``searchsorted`` computes: ``dim=0``, probing with T.

``count()`` never materializes pairs: a one-dimensional condition is pure
window arithmetic (``sum(hi - lo)``, no O(output) allocation), further
dimensions accumulate mask sums chunk by chunk.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.band import BandCondition
from repro.local_join import kernels
from repro.local_join.base import LocalJoinAlgorithm, as_matrix

#: Registry name -> the ``(dim, probe, default memory budget)`` it binds.
#: ``index-nested-loop`` keeps its historical 4M-candidate chunk (128 MB).
ALIASES: dict[str, tuple[int | None, str, int]] = {
    "index-nested-loop": (None, "s", 4_000_000 * kernels.CANDIDATE_BYTES),
    "sort-sweep": (0, "s", kernels.DEFAULT_MEMORY_BUDGET),
    "iejoin-local": (0, "t", kernels.DEFAULT_MEMORY_BUDGET),
}


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
    probe:
        ``"s"``: T is sorted and every S-tuple probes it; ``"t"``: the
        reverse.  The pair set is the same, only the work shape differs.
    memory_budget:
        Byte budget of the transient candidate buffers; execution backends
        shrink it when several kernels run concurrently.
    name:
        Name used in reports (the registry passes the alias it resolved).
    """

    def __init__(
        self,
        dim: int | None = None,
        probe: str = "s",
        memory_budget: int = kernels.DEFAULT_MEMORY_BUDGET,
        name: str = "interval",
    ) -> None:
        if dim is not None and dim < 0:
            raise ValueError("dim must be non-negative")
        if probe not in ("s", "t"):
            raise ValueError("probe must be 's' or 't'")
        if memory_budget < 1:
            raise ValueError("memory_budget must be positive")
        self.dim = dim
        self.probe = probe
        self.memory_budget = memory_budget
        self.name = name

    @classmethod
    def named(cls, name: str) -> "IntervalJoin":
        """Return the interval join one of the :data:`ALIASES` stands for."""
        dim, probe, memory_budget = ALIASES[name]
        return cls(dim, probe, memory_budget, name=name)

    def _run(self, kernel, s_values, t_values, condition: BandCondition):
        d = condition.dimensionality
        if self.dim is not None and self.dim >= d:
            raise ValueError(f"dim {self.dim} out of range for {d}-dimensional join")
        s_arr = as_matrix(s_values, d)
        t_arr = as_matrix(t_values, d)
        dim = self.dim
        if dim is None:
            dim = sweep_dimension(s_arr, t_arr, condition)
        return kernel(
            s_arr,
            t_arr,
            condition,
            dim,
            probe_is_s=self.probe == "s",
            memory_budget=self.memory_budget,
        )

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
        return f"IntervalJoin(dim={self.dim}, probe={self.probe!r}, name={self.name!r})"


def default_local_join() -> LocalJoinAlgorithm:
    """Return the library's default local join algorithm (the paper's choice)."""
    return IntervalJoin.named("index-nested-loop")
