"""Common interface of local band-join algorithms.

A local algorithm receives the join-attribute matrices of the S- and
T-tuples assigned to one worker (shape ``(n_s, d)`` and ``(n_t, d)``, columns
in band-condition attribute order) and either materialises the matching
``(s_index, t_index)`` pairs or merely counts them.

Counting without materialisation matters: several experiments only need the
per-worker output cardinality ``O_i``, and materialising hundreds of millions
of pairs for that would dominate the running time of the whole benchmark.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from repro.geometry.band import BandCondition


class LocalJoinAlgorithm(abc.ABC):
    """Interface of a single-worker band-join algorithm."""

    #: Human-readable algorithm name used in reports.
    name: str = "local-join"

    def with_memory_budget(self, memory_budget: int | None) -> "LocalJoinAlgorithm":
        """Return this algorithm bound to a kernel memory budget (bytes).

        Execution backends use this to split one machine-wide budget across
        concurrently running kernels.  Algorithms without a budgeted kernel
        (no ``memory_budget`` attribute) return themselves unchanged, as does
        a ``None`` or unchanged budget; otherwise a shallow copy is returned
        so a shared algorithm instance is never mutated across tasks.
        """
        if memory_budget is None or not hasattr(self, "memory_budget"):
            return self
        if getattr(self, "memory_budget") == memory_budget:
            return self
        clone = copy.copy(self)
        clone.memory_budget = memory_budget
        return clone

    @abc.abstractmethod
    def join(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> np.ndarray:
        """Return the matching pairs as an ``(m, 2)`` array of (s_index, t_index).

        Indices refer to row positions of ``s_values`` / ``t_values``.
        The result order is implementation-defined.
        """

    def count(
        self,
        s_values: np.ndarray,
        t_values: np.ndarray,
        condition: BandCondition,
    ) -> int:
        """Return only the number of matching pairs.

        The default implementation materialises the pairs; subclasses
        override it with cheaper counting where possible.
        """
        return int(self.join(s_values, t_values, condition).shape[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def as_matrix(values: np.ndarray, dimensionality: int) -> np.ndarray:
    """Normalise input to a float ``(n, d)`` matrix (handling the empty case)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, dimensionality)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


def empty_pairs() -> np.ndarray:
    """Return an empty ``(0, 2)`` integer pair array."""
    return np.empty((0, 2), dtype=np.int64)


def canonical_pair_order(pairs: np.ndarray) -> np.ndarray:
    """Return pairs sorted lexicographically (s_index, then t_index).

    Used by tests to compare the output of different algorithms.
    """
    if pairs.shape[0] == 0:
        return pairs
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def join_pair_count(
    s_values: np.ndarray,
    t_values: np.ndarray,
    condition: BandCondition,
    algorithm: LocalJoinAlgorithm | None = None,
) -> int:
    """Count band-join pairs between two join-attribute matrices.

    Convenience wrapper used throughout the library (metrics, lower bounds,
    experiment harness) so call sites do not need to instantiate algorithms.
    """
    from repro.local_join.interval import IntervalJoin

    algo = algorithm if algorithm is not None else IntervalJoin()
    return algo.count(s_values, t_values, condition)
