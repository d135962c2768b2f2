"""Vectorised batch routing and per-worker task construction.

The map phase of the engine: all tuples of a relation side are routed in a
single vectorised :meth:`~repro.core.partitioner.JoinPartitioning.route`
call, grouped per partition unit with one ``argsort`` + ``searchsorted``
pass (numpy masks, no per-tuple Python work), and gathered into one
:class:`WorkerTask` per worker.

A worker task holds every tuple copy of the units the worker owns, each
labelled with its unit id.  The backends join each unit on its own (paper
Definition 1: a pair is produced exactly once, by the one unit that receives
both its tuples), so values are never shifted and the local join sees the
tuples exactly as stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partitioner import JoinPartitioning
from repro.data.storage import block_spans, madvise_dontneed
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
    """The local joins of every unit owned by one worker.

    ``s_rows`` / ``t_rows`` are original row indices into the relation's
    join matrix; ``s_units`` / ``t_units`` label each copy with the unit that
    receives it.  Every task holds its copies grouped by ascending label.
    """

    worker_id: int
    n_units: int
    s_rows: np.ndarray
    s_units: np.ndarray
    t_rows: np.ndarray
    t_units: np.ndarray

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


# Only the benchmark harness calls this; the engine never shifts a value.
def unit_offset_step(
    s_matrix: np.ndarray, t_matrix: np.ndarray, condition: BandCondition
) -> float:
    """Return a first-column step wider than both relations' combined
    range plus the band (the shift the engine once applied per unit)."""
    predicate = condition.predicates[0]
    lows = []
    highs = []
    for matrix in (s_matrix, t_matrix):
        if matrix.shape[0]:
            lows.append(float(matrix[:, 0].min()))
            highs.append(float(matrix[:, 0].max()))
    spread = (max(highs) - min(lows)) if lows else 1.0
    return spread + predicate.eps_left + predicate.eps_right + 1.0


def gather_side(unit_ids: np.ndarray, routed: RoutedSide) -> tuple[np.ndarray, np.ndarray]:
    """Collect one relation side of a worker's units with each copy's unit id."""
    bounds = routed.bounds
    lengths = bounds[unit_ids + 1] - bounds[unit_ids]
    pieces = [
        routed.rows[bounds[unit] : bounds[unit + 1]]
        for unit, length in zip(unit_ids, lengths)
        if length
    ]
    rows = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return rows, np.repeat(unit_ids, lengths)


def build_worker_tasks(
    partitioning: JoinPartitioning,
    s_routed: RoutedSide,
    t_routed: RoutedSide,
    offset_step: float | None = None,  # only the benchmark harness passes it; ignored
) -> list[WorkerTask]:
    """Build one task per worker that owns at least one unit."""
    owners = partitioning.unit_workers()
    tasks: list[WorkerTask] = []
    for worker_id in range(partitioning.workers):
        unit_ids = np.nonzero(owners == worker_id)[0]
        if unit_ids.size == 0:
            continue
        s_rows, s_units = gather_side(unit_ids, s_routed)
        t_rows, t_units = gather_side(unit_ids, t_routed)
        tasks.append(
            WorkerTask(
                worker_id=worker_id,
                n_units=int(unit_ids.size),
                s_rows=s_rows,
                s_units=s_units,
                t_rows=t_rows,
                t_units=t_units,
            )
        )
    return tasks


def _gather_rows(source, rows: np.ndarray) -> np.ndarray:
    """Gather rows from an ndarray matrix or a sliced matrix source."""
    if isinstance(source, np.ndarray):
        return source.take(rows, axis=0)
    return source.take(rows)


def gather_task_inputs(task: WorkerTask, s_matrix, t_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Materialise a task's S/T join matrices, row for row (fresh copies).

    Either side may be a plain ``(n, d)`` ndarray or a
    :class:`~repro.engine.sources.StoreMatrixSource` reading an out-of-core
    relation; the gather semantics are identical.
    """
    return _gather_rows(s_matrix, task.s_rows), _gather_rows(t_matrix, task.t_rows)


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


#: Labels read per block when a spilled side is checked or regrouped by
#: unit: the heap holds a few blocks of temporaries, never the side.
LABEL_BLOCK: int = 1 << 16


def _group_spilled(rows, units, n_units, arena, prefix):
    """Return one worker's spilled ``(rows, units)`` grouped by ascending unit.

    Chunks smaller than a unit interleave the copies across the worker's
    units; a stable counting sort, read block by block, then writes them
    grouped into new scratch arrays.
    """
    spans = list(block_spans(units.size, LABEL_BLOCK))
    if all(np.all(np.diff(units[max(lo - 1, 0) : hi]) >= 0) for lo, hi in spans):
        return rows, units
    free = np.zeros(n_units, dtype=np.int64)
    for lo, hi in spans:
        free += np.bincount(units[lo:hi], minlength=n_units)
    free = np.cumsum(free) - free  # next slot of every unit
    grouped = [
        arena.empty(np.int64, rows.size, prefix=f"{prefix}-{name}") for name in ("rows", "units")
    ]
    for lo, hi in spans:
        order = np.argsort(units[lo:hi], kind="stable")
        block = units[lo:hi][order]
        counts = np.bincount(block, minlength=n_units)
        first = np.cumsum(counts) - counts  # each unit's first position in the block
        slots = free[block] - first[block] + np.arange(block.size)
        grouped[0][slots], grouped[1][slots] = rows[lo:hi][order], block
        free += counts
        for array in (rows, units, *grouped):
            madvise_dontneed(array)
    return tuple(grouped)


class _SideStreamer:
    """Accumulates one side's routed copies into per-worker spill files."""

    def __init__(self, partitioning: JoinPartitioning, arena, side: str) -> None:
        self.partitioning = partitioning
        self.arena = arena
        self.side = side
        self.owners = partitioning.unit_workers()
        self.active = np.nonzero(np.bincount(self.owners, minlength=partitioning.workers))[0]
        self.counts = np.zeros(partitioning.workers, dtype=np.int64)
        self._rows_writers = {
            int(w): arena.writer(np.int64, prefix=f"{side}-rows-w{w}") for w in self.active
        }
        self._unit_writers = {
            int(w): arena.writer(np.int64, prefix=f"{side}-units-w{w}") for w in self.active
        }

    def consume(self, chunk_start: int, chunk: np.ndarray, validate: bool) -> None:
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
                self._unit_writers[int(worker)].append(units[piece])

    def finish(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Close the spill files; return each worker's (rows, units) by unit."""
        return {
            w: _group_spilled(
                self._rows_writers[w].finish(), self._unit_writers[w].finish(),
                self.partitioning.n_units, self.arena, f"{self.side}-grouped-w{w}",
            )
            for w in map(int, self.active)
        }


def stream_worker_tasks(
    partitioning: JoinPartitioning,
    s_source,
    t_source,
    condition: BandCondition,  # unused; the benchmark harness passes it positionally
    arena,
    chunk_bytes: int,
    validate: bool = True,
) -> tuple[list[WorkerTask], np.ndarray, np.ndarray, None]:
    """Route both sides chunk-wise and build disk-backed worker tasks.

    The streamed counterpart of :func:`route_side` +
    :func:`build_worker_tasks`: each side is read in bounded float chunks
    (``source.iter_chunks``), routed, and appended straight to per-worker
    spill files in ``arena`` — no O(n) routing state ever lives on the
    heap.  Task ``rows`` / ``units`` come back as memory maps over those
    files, grouped by unit (:func:`_group_spilled` regroups a worker whose
    copies chunking interleaved across its units).

    Returns ``(tasks, s_counts, t_counts, None)`` where the counts are the
    per-worker deduplicated input accounting of paper Definition 1.
    """
    sides: dict[str, _SideStreamer] = {}
    for side, source in (("S", s_source), ("T", t_source)):
        streamer = _SideStreamer(partitioning, arena, side)
        for start, _, chunk in source.iter_chunks(chunk_bytes):
            streamer.consume(start, chunk, validate)
        source.release()
        sides[side] = streamer

    s_parts = sides["S"].finish()
    t_parts = sides["T"].finish()
    units_per_worker = np.bincount(
        partitioning.unit_workers(), minlength=partitioning.workers
    )
    empty = np.empty(0, dtype=np.int64)
    tasks: list[WorkerTask] = []
    for worker in map(int, sides["S"].active):
        s_rows, s_units = s_parts.get(worker, (empty, empty))
        t_rows, t_units = t_parts.get(worker, (empty, empty))
        tasks.append(
            WorkerTask(
                worker_id=worker,
                n_units=int(units_per_worker[worker]),
                s_rows=s_rows,
                s_units=s_units,
                t_rows=t_rows,
                t_units=t_units,
            )
        )
    # The fourth slot is only unpacked by the benchmark harness.
    return tasks, sides["S"].counts, sides["T"].counts, None
