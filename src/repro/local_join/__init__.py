"""Local (single-worker) band-join algorithms.

After the optimization phase has assigned input tuples to workers, each
worker computes the band-join on its local input.  The paper points out that
the choice of local algorithm is orthogonal to the partitioning problem; it
only shifts the relative weight of input versus output work (the
``beta2/beta3`` ratio).  Every worker runs the paper's choice, built on the
vectorized kernel layer (:mod:`repro.local_join.kernels`):

* :class:`IntervalJoin` — the index nested loop (reported as
  ``index-nested-loop``): the chunked ``searchsorted`` interval kernel on
  the most selective dimension (or a pinned ``dim``), S probing a sorted T.
* :class:`NestedLoopJoin` — the reference implementation (blocked
  all-pairs) the interval kernel is tested against.

Counting is always cheaper than joining here: :class:`IntervalJoin` answers
``count()`` without materializing pairs (pure window arithmetic in one
dimension, chunk-wise masked counting beyond).
"""

from repro.local_join.base import LocalJoinAlgorithm, join_pair_count
from repro.local_join.interval import IntervalJoin
from repro.local_join.nested_loop import NestedLoopJoin

__all__ = [
    "LocalJoinAlgorithm",
    "NestedLoopJoin",
    "IntervalJoin",
    "join_pair_count",
]
