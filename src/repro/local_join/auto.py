"""Adaptive local-join kernel selection.

No single local kernel wins everywhere: the chunked interval kernel
(sort-sweep / IEJoin) is far ahead when the band is narrow relative to the
data spread, but when nearly everything joins with everything the sorting
and window bookkeeping is pure overhead over the blocked all-pairs mask —
and for tiny inputs a single vectorized block beats both.

:class:`AutoJoin` prices these regimes with the sampled per-dimension window
fractions of :mod:`repro.sampling.selectivity` (one ``searchsorted`` pair
over a small deterministic subsample per dimension) and dispatches:

* **tiny** (``|S| * |T|`` at or below ``tiny_pairs``) — blocked nested loop,
  one mask evaluation covers the whole cross product;
* **dense** (best window fraction at or above ``dense_fraction``) — blocked
  nested loop, the windows would cover most of the other side anyway;
* otherwise — the chunked interval kernel swept on the *most selective*
  dimension (the smallest window fraction).

The selection is observable through :meth:`select` and :attr:`last_choice`
so experiments and benchmarks can report which kernel actually ran.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.band import BandCondition
from repro.local_join import kernels
from repro.local_join.base import LocalJoinAlgorithm, as_matrix
from repro.local_join.interval import IntervalJoin
from repro.local_join.nested_loop import NestedLoopJoin

#: Below this many candidate pairs the blocked all-pairs mask is one numpy
#: call and always competitive — skip the selectivity probe entirely.
DEFAULT_TINY_PAIRS: int = 16_384

#: Window fraction past which the interval windows stop being selective and
#: the blocked nested loop's simpler memory traffic wins.
DEFAULT_DENSE_FRACTION: float = 0.5


class AutoJoin(LocalJoinAlgorithm):
    """Selectivity-driven dispatch over the local band-join kernels.

    Parameters
    ----------
    memory_budget:
        Byte budget handed to the chosen interval kernel.
    sample_size:
        Per-side subsample size of the selectivity probe.
    tiny_pairs / dense_fraction:
        Regime thresholds (see module docstring).
    """

    name = "auto"

    def __init__(
        self,
        memory_budget: int = kernels.DEFAULT_MEMORY_BUDGET,
        sample_size: int | None = None,
        tiny_pairs: int = DEFAULT_TINY_PAIRS,
        dense_fraction: float = DEFAULT_DENSE_FRACTION,
    ) -> None:
        if memory_budget < 1:
            raise ValueError("memory_budget must be positive")
        if tiny_pairs < 0:
            raise ValueError("tiny_pairs must be non-negative")
        if not 0 < dense_fraction <= 1:
            raise ValueError("dense_fraction must be in (0, 1]")
        self.memory_budget = memory_budget
        self.sample_size = sample_size
        self.tiny_pairs = tiny_pairs
        self.dense_fraction = dense_fraction
        #: Name of the kernel chosen by the most recent join()/count() call.
        self.last_choice: str | None = None

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def select(
        self,
        s_arr: np.ndarray,
        t_arr: np.ndarray,
        condition: BandCondition,
    ) -> LocalJoinAlgorithm:
        """Return the kernel this input would run on (without running it)."""
        kernel, _ = self.decision(s_arr, t_arr, condition)
        return kernel

    def decision(
        self,
        s_arr: np.ndarray,
        t_arr: np.ndarray,
        condition: BandCondition,
    ) -> tuple[LocalJoinAlgorithm, dict]:
        """Return ``(kernel, decision info)`` without running anything.

        The info dict is the EXPLAIN surface of the selector: the regime
        that fired, the thresholds it was priced against, the sampled
        per-dimension window fractions (``None`` in the tiny regime, which
        skips the probe) and one entry per *rejected* alternative with the
        reason it lost.
        """
        from repro.sampling.selectivity import (
            DEFAULT_SELECTIVITY_SAMPLE,
            window_fractions,
        )

        n_pairs = s_arr.shape[0] * t_arr.shape[0]
        info: dict = {
            "n_pairs": int(n_pairs),
            "tiny_pairs": self.tiny_pairs,
            "dense_fraction": self.dense_fraction,
            "window_fractions": None,
            "sweep_dimension": None,
        }
        if n_pairs <= self.tiny_pairs:
            info.update(
                chosen="nested-loop",
                regime="tiny",
                rejected=[
                    {
                        "kernel": "sort-sweep",
                        "reason": f"cross product of {n_pairs} pairs is at or below "
                        f"tiny_pairs={self.tiny_pairs}; one blocked mask wins",
                    }
                ],
            )
            return NestedLoopJoin(), info
        sample_size = (
            self.sample_size if self.sample_size is not None else DEFAULT_SELECTIVITY_SAMPLE
        )
        fractions = window_fractions(s_arr, t_arr, condition, sample_size)
        best_dim = int(np.argmin(fractions))
        best = float(fractions[best_dim])
        info["window_fractions"] = [float(f) for f in fractions]
        if best >= self.dense_fraction:
            info.update(
                chosen="nested-loop",
                regime="dense",
                rejected=[
                    {
                        "kernel": "sort-sweep",
                        "reason": f"best window fraction {best:.3f} is at or above "
                        f"dense_fraction={self.dense_fraction}; windows are not selective",
                    }
                ],
            )
            return NestedLoopJoin(), info
        info.update(
            chosen="sort-sweep",
            regime="selective",
            sweep_dimension=best_dim,
            rejected=[
                {
                    "kernel": "nested-loop",
                    "reason": f"best window fraction {best:.3f} on dimension {best_dim} "
                    f"is below dense_fraction={self.dense_fraction}",
                }
            ],
        )
        return (
            IntervalJoin(best_dim, memory_budget=self.memory_budget, name="sort-sweep"),
            info,
        )

    def _dispatch(self, s_values, t_values, condition) -> tuple:
        d = condition.dimensionality
        s_arr = as_matrix(s_values, d)
        t_arr = as_matrix(t_values, d)
        chosen = self.select(s_arr, t_arr, condition)
        self.last_choice = chosen.name
        return s_arr, t_arr, chosen

    # ------------------------------------------------------------------ #
    # LocalJoinAlgorithm API
    # ------------------------------------------------------------------ #
    def join(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> np.ndarray:
        s_arr, t_arr, chosen = self._dispatch(s_values, t_values, condition)
        return chosen.join(s_arr, t_arr, condition)

    def count(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> int:
        s_arr, t_arr, chosen = self._dispatch(s_values, t_values, condition)
        return chosen.count(s_arr, t_arr, condition)

    def __repr__(self) -> str:
        return (
            f"AutoJoin(memory_budget={self.memory_budget}, "
            f"tiny_pairs={self.tiny_pairs}, dense_fraction={self.dense_fraction})"
        )
