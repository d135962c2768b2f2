"""Vectorised batch routing and per-worker task construction.

The map phase of the engine: all tuples of a relation side are routed in a
single vectorised :meth:`~repro.core.partitioner.JoinPartitioning.route`
call, grouped per partition unit with one ``argsort`` + ``searchsorted``
pass (numpy masks, no per-tuple Python work), and gathered into one
:class:`WorkerTask` per worker.

A worker task batches every unit the worker owns into a single local join:
each unit's tuples are shifted by a per-unit offset in the first join
dimension that is larger than the data spread plus the band width, so tuples
from different units can never join while pairs inside a unit are
unaffected.  This is numerically equivalent to running one local join per
unit but avoids per-unit call overhead (grid partitionings can produce
hundreds of thousands of tiny units), and it gives every execution backend
the same coarse-grained, embarrassingly parallel work items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partitioner import JoinPartitioning
from repro.exceptions import ExecutionError
from repro.geometry.band import BandCondition


@dataclass(frozen=True)
class RoutedSide:
    """One relation side after routing, grouped by partition unit.

    Attributes
    ----------
    rows:
        Original row indices of every routed tuple copy, sorted by the unit
        that receives the copy (a row index appears once per receiving unit).
    units:
        Receiving unit id of every copy, parallel to ``rows`` (ascending).
    bounds:
        ``(n_units + 1,)`` prefix boundaries: unit ``u`` owns the slice
        ``rows[bounds[u]:bounds[u + 1]]``.
    """

    rows: np.ndarray
    units: np.ndarray
    bounds: np.ndarray

    @property
    def n_copies(self) -> int:
        """Return the total number of routed tuple copies (with duplicates)."""
        return int(self.rows.size)

    def unit_rows(self, unit: int) -> np.ndarray:
        """Return the original row indices routed to one unit."""
        return self.rows[self.bounds[unit] : self.bounds[unit + 1]]


@dataclass(frozen=True)
class WorkerTask:
    """The batched local join of every unit owned by one worker.

    ``s_rows`` / ``t_rows`` are original row indices into the relation's
    join matrix; ``s_offsets`` / ``t_offsets`` are the per-tuple unit-
    separation shifts applied to the first join dimension before joining.
    """

    worker_id: int
    n_units: int
    s_rows: np.ndarray
    s_offsets: np.ndarray
    t_rows: np.ndarray
    t_offsets: np.ndarray

    @property
    def n_input(self) -> int:
        """Return the number of input tuple copies processed by the task."""
        return int(self.s_rows.size + self.t_rows.size)


def check_coverage(rows: np.ndarray, n_original: int, side: str, method: str) -> None:
    """Raise :class:`ExecutionError` unless every original tuple reached a unit."""
    if n_original == 0:
        return
    covered = np.zeros(n_original, dtype=bool)
    covered[rows] = True
    if not covered.all():
        missing = int(np.count_nonzero(~covered))
        raise ExecutionError(
            f"{missing} {side}-tuples were not routed to any unit by {method!r}"
        )


def route_side(
    partitioning: JoinPartitioning,
    matrix: np.ndarray,
    side: str,
    validate: bool = True,
) -> RoutedSide:
    """Route one relation side and group the copies by unit in one pass."""
    rows, units = partitioning.route(matrix, side)
    if validate:
        check_coverage(rows, matrix.shape[0], side, partitioning.method)
    order = np.argsort(units, kind="stable")
    sorted_rows = rows[order].astype(np.int64, copy=False)
    sorted_units = units[order].astype(np.int64, copy=False)
    bounds = np.searchsorted(sorted_units, np.arange(partitioning.n_units + 1))
    return RoutedSide(rows=sorted_rows, units=sorted_units, bounds=bounds)


def unit_offset_step(
    s_matrix: np.ndarray, t_matrix: np.ndarray, condition: BandCondition
) -> float:
    """Return a per-unit shift of the first join dimension that no band can bridge.

    The step must exceed the spread of the *combined* S and T value range:
    tuples of units shifted by k and j steps end up ``(k - j) * step`` apart
    plus their original difference, and that original difference can be as
    large as the gap between the two relations' ranges (e.g. S in [0, 1]
    joined against T in [10, 11]).  Using each relation's own spread — as an
    earlier revision did — lets distant unit pairs alias back into the band
    and produce phantom output.
    """
    predicate = condition.predicates[0]
    lows = []
    highs = []
    for matrix in (s_matrix, t_matrix):
        if matrix.shape[0]:
            lows.append(float(matrix[:, 0].min()))
            highs.append(float(matrix[:, 0].max()))
    spread = (max(highs) - min(lows)) if lows else 1.0
    return spread + predicate.eps_left + predicate.eps_right + 1.0


def gather_side(
    unit_ids: np.ndarray, routed: RoutedSide, offset_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Collect one relation side of a worker's units plus per-tuple unit offsets.

    The offset of a tuple is ``position of its unit within unit_ids *
    offset_step``; S and T use the same ``unit_ids`` order, so tuples of the
    same unit land in the same shifted band on both sides.
    """
    bounds = routed.bounds
    lengths = bounds[unit_ids + 1] - bounds[unit_ids]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pieces = [
        routed.rows[bounds[unit] : bounds[unit + 1]]
        for unit, length in zip(unit_ids, lengths)
        if length
    ]
    rows = np.concatenate(pieces)
    local_index = np.repeat(np.arange(unit_ids.size), lengths)
    return rows, local_index.astype(float) * offset_step


def build_worker_tasks(
    partitioning: JoinPartitioning,
    s_routed: RoutedSide,
    t_routed: RoutedSide,
    offset_step: float,
) -> list[WorkerTask]:
    """Build one batched task per worker that owns at least one unit."""
    owners = partitioning.unit_workers()
    tasks: list[WorkerTask] = []
    for worker_id in range(partitioning.workers):
        unit_ids = np.nonzero(owners == worker_id)[0]
        if unit_ids.size == 0:
            continue
        s_rows, s_offsets = gather_side(unit_ids, s_routed, offset_step)
        t_rows, t_offsets = gather_side(unit_ids, t_routed, offset_step)
        tasks.append(
            WorkerTask(
                worker_id=worker_id,
                n_units=int(unit_ids.size),
                s_rows=s_rows,
                s_offsets=s_offsets,
                t_rows=t_rows,
                t_offsets=t_offsets,
            )
        )
    return tasks


def _gather_rows(source, rows: np.ndarray) -> np.ndarray:
    """Gather rows from an ndarray matrix or a sliced matrix source."""
    if isinstance(source, np.ndarray):
        return source.take(rows, axis=0)
    return source.take(rows)


def gather_task_inputs(task: WorkerTask, s_matrix, t_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Materialise a task's shifted S/T join matrices (fresh copies).

    Either side may be a plain ``(n, d)`` ndarray (legacy in-memory path) or
    a :class:`~repro.engine.sources.StoreMatrixSource` reading an
    out-of-core relation; the gather semantics are identical.
    """
    worker_s = _gather_rows(s_matrix, task.s_rows)
    worker_t = _gather_rows(t_matrix, task.t_rows)
    if worker_s.shape[0]:
        worker_s[:, 0] += task.s_offsets
    if worker_t.shape[0]:
        worker_t[:, 0] += task.t_offsets
    return worker_s, worker_t


def dedup_worker_copies(
    rows: np.ndarray, workers_per_copy: np.ndarray, n_workers: int
) -> np.ndarray:
    """Collapse (tuple, worker) copies so each tuple counts once per worker.

    Returns the worker id of every retained copy (suitable for ``bincount``);
    this is the per-worker input accounting of paper Definition 1.  Only
    rows with several copies can collide, so only those go through
    ``np.unique``.
    """
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    workers_per_copy = workers_per_copy.astype(np.int64, copy=False)
    shared = np.bincount(rows).take(rows) > 1
    combined = np.compress(shared, rows).astype(np.int64) * n_workers
    combined += np.compress(shared, workers_per_copy)
    return np.concatenate(
        [np.compress(~shared, workers_per_copy), np.unique(combined) % n_workers]
    )


def dedup_workers(partitioning: JoinPartitioning, routed: RoutedSide) -> np.ndarray:
    """Return the worker id of every deduplicated tuple copy of one side."""
    owners = partitioning.unit_workers()
    return dedup_worker_copies(routed.rows, owners[routed.units], partitioning.workers)


def worker_input_counts(
    partitioning: JoinPartitioning, routed: RoutedSide
) -> np.ndarray:
    """Return per-worker deduplicated input counts for one routed side."""
    return np.bincount(
        dedup_workers(partitioning, routed), minlength=partitioning.workers
    )


# --------------------------------------------------------------------- #
# Streamed routing (out-of-core relations)
# --------------------------------------------------------------------- #


def unit_offset_step_from_bounds(
    lows: list[float], highs: list[float], condition: BandCondition
) -> float:
    """:func:`unit_offset_step` from precomputed first-dimension bounds.

    ``lows`` / ``highs`` hold the first-join-dimension min/max of each
    non-empty side.  Out-of-core relations serve these from per-segment
    statistics, so the step is known before any data is read.
    """
    predicate = condition.predicates[0]
    spread = (max(highs) - min(lows)) if lows else 1.0
    return spread + predicate.eps_left + predicate.eps_right + 1.0


def unit_ranks(partitioning: JoinPartitioning) -> np.ndarray:
    """Return each unit's rank among its owning worker's units.

    Ranks follow ascending unit id per worker — exactly the order
    :func:`gather_side` enumerates a worker's units — so
    ``rank * offset_step`` reproduces the legacy per-unit shifts.
    """
    owners = partitioning.unit_workers()
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    starts = np.searchsorted(sorted_owners, np.arange(partitioning.workers))
    ranks = np.empty(owners.size, dtype=np.int64)
    ranks[order] = np.arange(owners.size, dtype=np.int64) - starts[sorted_owners]
    return ranks


class _SideStreamer:
    """Accumulates one side's routed copies into per-worker spill files."""

    def __init__(self, partitioning: JoinPartitioning, arena, side: str) -> None:
        self.partitioning = partitioning
        self.side = side
        self.owners = partitioning.unit_workers()
        self.ranks = unit_ranks(partitioning)
        self.active = np.nonzero(np.bincount(self.owners, minlength=partitioning.workers))[0]
        self.counts = np.zeros(partitioning.workers, dtype=np.int64)
        self._rows_writers = {
            int(w): arena.writer(np.int64, prefix=f"{side}-rows-w{w}") for w in self.active
        }
        self._offset_writers = {
            int(w): arena.writer(np.float64, prefix=f"{side}-offsets-w{w}")
            for w in self.active
        }

    def consume(
        self,
        chunk_start: int,
        chunk: np.ndarray,
        offset_step: float,
        validate: bool,
    ) -> None:
        """Route one chunk and append its copies to the per-worker files."""
        rows, units = self.partitioning.route(chunk, self.side)
        if validate:
            check_coverage(rows, chunk.shape[0], self.side, self.partitioning.method)
        if rows.size == 0:
            return
        rows = rows.astype(np.int64, copy=False)
        units = units.astype(np.int64, copy=False)
        copy_workers = self.owners[units]
        # Chunks partition the row space, so per-chunk dedup over
        # (row, worker) copies sums to the global deduplicated counts.
        self.counts += np.bincount(
            dedup_worker_copies(rows, copy_workers, self.partitioning.workers),
            minlength=self.partitioning.workers,
        )
        global_rows = rows + chunk_start
        offsets = self.ranks[units].astype(float) * offset_step
        order = np.argsort(copy_workers, kind="stable")
        sorted_workers = copy_workers[order]
        bounds = np.searchsorted(
            sorted_workers, np.arange(self.partitioning.workers + 1)
        )
        for worker in self.active:
            lo, hi = int(bounds[worker]), int(bounds[worker + 1])
            if hi > lo:
                piece = order[lo:hi]
                self._rows_writers[int(worker)].append(global_rows[piece])
                self._offset_writers[int(worker)].append(offsets[piece])

    def finish(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Close the spill files and return per-worker (rows, offsets) maps."""
        return {
            w: (self._rows_writers[w].finish(), self._offset_writers[w].finish())
            for w in map(int, self.active)
        }


def stream_worker_tasks(
    partitioning: JoinPartitioning,
    s_source,
    t_source,
    condition: BandCondition,
    arena,
    chunk_bytes: int,
    validate: bool = True,
) -> tuple[list[WorkerTask], np.ndarray, np.ndarray, float]:
    """Route both sides chunk-wise and build disk-backed worker tasks.

    The streamed counterpart of :func:`route_side` +
    :func:`build_worker_tasks`: each side is read in bounded float chunks
    (``source.iter_chunks``), routed, and appended straight to per-worker
    spill files in ``arena`` — no O(n) routing state ever lives on the
    heap.  Task ``rows`` / ``offsets`` come back as read-only memory maps
    over those files; row order within a task is chunk-major instead of
    unit-major, which the local join is insensitive to (it re-sorts), while
    per-tuple offsets reproduce the legacy unit-rank shifts exactly.

    Returns ``(tasks, s_counts, t_counts, offset_step)`` where the counts
    are the per-worker deduplicated input accounting of paper Definition 1.
    """
    s_lo, s_hi = s_source.bounds()
    t_lo, t_hi = t_source.bounds()
    lows = [float(lo[0]) for lo, src in ((s_lo, s_source), (t_lo, t_source)) if src.rows]
    highs = [float(hi[0]) for hi, src in ((s_hi, s_source), (t_hi, t_source)) if src.rows]
    offset_step = unit_offset_step_from_bounds(lows, highs, condition)

    sides: dict[str, _SideStreamer] = {}
    for side, source in (("S", s_source), ("T", t_source)):
        streamer = _SideStreamer(partitioning, arena, side)
        for start, _, chunk in source.iter_chunks(chunk_bytes):
            streamer.consume(start, chunk, offset_step, validate)
        source.release()
        sides[side] = streamer

    s_parts = sides["S"].finish()
    t_parts = sides["T"].finish()
    units_per_worker = np.bincount(
        partitioning.unit_workers(), minlength=partitioning.workers
    )
    empty_rows = np.empty(0, dtype=np.int64)
    empty_offsets = np.empty(0)
    tasks: list[WorkerTask] = []
    for worker in map(int, sides["S"].active):
        s_rows, s_offsets = s_parts.get(worker, (empty_rows, empty_offsets))
        t_rows, t_offsets = t_parts.get(worker, (empty_rows, empty_offsets))
        tasks.append(
            WorkerTask(
                worker_id=worker,
                n_units=int(units_per_worker[worker]),
                s_rows=s_rows,
                s_offsets=s_offsets,
                t_rows=t_rows,
                t_offsets=t_offsets,
            )
        )
    return tasks, sides["S"].counts, sides["T"].counts, offset_step
