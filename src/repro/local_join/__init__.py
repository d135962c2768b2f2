"""Local (single-worker) band-join algorithms.

After the optimization phase has assigned input tuples to workers, each
worker computes the band-join on its local input.  The paper points out that
the choice of local algorithm is orthogonal to the partitioning problem; it
only shifts the relative weight of input versus output work (the
``beta2/beta3`` ratio).  This subpackage provides interchangeable local
algorithms, all built on the shared vectorized kernel layer
(:mod:`repro.local_join.kernels`):

* :class:`NestedLoopJoin` — reference implementation (blocked all-pairs).
* :class:`IntervalJoin` — the chunked ``searchsorted`` interval kernel on a
  dimension ``dim`` probed from side ``probe``.  The registry names
  ``index-nested-loop`` (the paper's default: most selective dimension,
  probe S), ``sort-sweep`` (first dimension, probe S) and ``iejoin-local``
  (first dimension, probe T) are aliases of it.

Counting is always cheaper than joining here: every kernel answers
``count()`` without materializing pairs (pure window arithmetic in one
dimension, chunk-wise masked counting beyond).
"""

from functools import partial
from typing import Callable

from repro.local_join.base import LocalJoinAlgorithm, join_pair_count
from repro.local_join.interval import ALIASES, IntervalJoin, default_local_join
from repro.local_join.nested_loop import NestedLoopJoin

__all__ = [
    "LocalJoinAlgorithm",
    "NestedLoopJoin",
    "IntervalJoin",
    "join_pair_count",
    "default_local_join",
    "LOCAL_ALGORITHMS",
    "get_local_algorithm",
]

#: Registry of constructible local algorithms, keyed by the names accepted
#: by configuration and the CLI ``--local-algorithm`` flag.
LOCAL_ALGORITHMS: dict[str, Callable[[], LocalJoinAlgorithm]] = {
    NestedLoopJoin.name: NestedLoopJoin,
    **{name: partial(IntervalJoin.named, name) for name in ALIASES},
}


def get_local_algorithm(
    algorithm: "str | LocalJoinAlgorithm | None",
) -> LocalJoinAlgorithm:
    """Resolve an algorithm name (or pass an instance through).

    ``None`` resolves to the library default.
    """
    if algorithm is None:
        return default_local_join()
    if isinstance(algorithm, LocalJoinAlgorithm):
        return algorithm
    try:
        factory = LOCAL_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown local algorithm {algorithm!r}; "
            f"available: {', '.join(LOCAL_ALGORITHMS)}"
        ) from None
    return factory()
