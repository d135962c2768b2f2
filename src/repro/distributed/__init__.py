"""Per-worker accounting of a distributed band-join.

The paper runs its band-joins as MapReduce jobs on an Amazon EMR cluster;
here the map -> shuffle -> reduce pipeline of Figure 5 is executed by
:class:`repro.engine.ParallelJoinEngine`.  This subpackage holds what is
left of the cluster: the per-worker input, output and time accounting
(:mod:`repro.distributed.stats`) that feeds the success measures of the
paper (``I``, ``I_m``, ``O_m``, max worker load, overheads vs. the lower
bounds) and the running-time model.
"""

from repro.distributed.stats import JobStats, WorkerStats

__all__ = ["JobStats", "WorkerStats"]
