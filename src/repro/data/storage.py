"""Pluggable column storage: in-memory arrays and memory-mapped segments.

A :class:`ColumnStore` is the physical layer under
:class:`~repro.data.relation.Relation`: a set of equally long named columns
that consumers read as bounded **slices** (``read(name, start, stop)``) or
bounded **gathers** (``take(name, rows)``) instead of whole arrays.  Two
implementations exist:

:class:`InMemoryColumnStore`
    The historical representation — one numpy array per column.  Slices are
    views, gathers are fancy indexing; nothing changes for data that fits
    in RAM.

:class:`MmapColumnStore`
    An out-of-core store: every column lives in one or more ``.npy``
    **segment** files on disk, opened lazily with ``numpy`` memory mapping.
    Appending rows appends segments (no rewrite); compaction coalesces
    small segments by rewriting them block-by-block on disk, never holding
    more than one block in memory.  Reads copy the requested slice out of
    the mapping and periodically drop the mapping's resident pages
    (``madvise(MADV_DONTNEED)``), so a full scan of a 10x-RAM relation
    keeps the process RSS bounded by the recycle threshold instead of the
    data size.

:class:`SpillArena` provides scratch files for the execution layer: routed
row indices, per-task matrices and other O(n) transients can be written
once (append-only, block-buffered) and re-opened as read-only memory maps,
which is how the streaming engine keeps its own bookkeeping off the heap.
"""

from __future__ import annotations

import abc
import mmap as _mmap
import os
import shutil
import tempfile
import threading
import uuid
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.exceptions import CorruptSegmentError, SchemaError

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "MMAP_RECYCLE_BYTES",
    "DEFAULT_SEGMENT_BYTES",
    "ColumnStore",
    "InMemoryColumnStore",
    "MmapColumnStore",
    "Segment",
    "SpillArena",
    "block_spans",
    "madvise_dontneed",
    "recover_spill_dir",
]

#: Suffix of in-flight segment files; a crash mid-write leaves only files
#: with this suffix behind (finished segments are renamed into place), so
#: startup recovery is "delete every ``*.tmp``".
TMP_SUFFIX: str = ".tmp"


def recover_spill_dir(directory: str) -> list[str]:
    """Sweep orphaned in-flight segment files under ``directory``.

    A crash between segment start and the atomic rename leaves ``*.tmp``
    files that no manifest references; they are garbage by construction
    (finished segments are fsynced and renamed before anything points at
    them).  Returns the removed paths.
    """
    removed: list[str] = []
    if not directory or not os.path.isdir(directory):
        return removed
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(TMP_SUFFIX):
                path = os.path.join(root, name)
                try:
                    os.unlink(path)
                    removed.append(path)
                except OSError:  # pragma: no cover - raced by another sweep
                    pass
    return removed

#: Default byte size of one streamed block (slice reads, segment writes,
#: block-wise hashing).  Large enough to amortize per-call overhead, small
#: enough that a handful of concurrent blocks stay far below any ceiling.
DEFAULT_BLOCK_BYTES: int = 8 * 1024 * 1024

#: Bytes read through one live mapping before its resident pages are
#: dropped (``MADV_DONTNEED``).  Bounds how much of a scanned segment can
#: accumulate in the process RSS.
MMAP_RECYCLE_BYTES: int = 32 * 1024 * 1024

#: Target byte size of one column segment written by
#: :meth:`MmapColumnStore.write` / :meth:`MmapColumnStore.compacted`.
#: Bounded segments bound the worst-case resident set of a random gather
#: (one segment's pages at a time) and give compaction its rewrite unit.
DEFAULT_SEGMENT_BYTES: int = 32 * 1024 * 1024


def block_spans(rows: int, block_rows: int) -> Iterable[tuple[int, int]]:
    """Yield consecutive ``(start, stop)`` spans of at most ``block_rows``."""
    block_rows = max(1, int(block_rows))
    for start in range(0, rows, block_rows):
        yield start, min(start + block_rows, rows)


def madvise_dontneed(array: np.ndarray) -> bool:
    """Best-effort drop of the resident pages behind a memory-mapped array.

    Walks the array's base chain looking for the underlying ``mmap`` object
    (``np.memmap`` exposes it as ``_mmap``); returns ``True`` when pages
    were advised away.  A no-op (``False``) for plain in-memory arrays and
    on platforms without ``madvise``.
    """
    target = array
    while target is not None:
        raw = getattr(target, "_mmap", None)
        if raw is not None:
            try:
                raw.madvise(_mmap.MADV_DONTNEED)
                return True
            except (AttributeError, OSError, ValueError):  # pragma: no cover
                return False
        target = getattr(target, "base", None)
    return False


class ColumnStore(abc.ABC):
    """Physical column storage behind a :class:`~repro.data.relation.Relation`.

    The contract deliberately centres on *bounded* access: ``read`` returns
    one row slice of one column, ``take`` gathers an explicit row subset.
    ``column`` (the whole array) exists for compatibility with in-memory
    consumers and is allowed to materialize.
    """

    #: Storage backend name surfaced in catalogs, EXPLAIN and stats.
    backend: str = "store"

    @property
    @abc.abstractmethod
    def rows(self) -> int:
        """Return the number of rows (shared by every column)."""

    @property
    @abc.abstractmethod
    def column_names(self) -> tuple[str, ...]:
        """Return the column names in schema order."""

    @abc.abstractmethod
    def dtype(self, name: str) -> np.dtype:
        """Return the dtype of one column."""

    @abc.abstractmethod
    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        """Return rows ``[start, stop)`` of one column.

        In-memory stores return views; memory-mapped stores return fresh
        in-memory copies (never a live mapping), so callers may hold the
        slice without pinning file pages.
        """

    @abc.abstractmethod
    def take(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Return an explicit row subset of one column (positional gather)."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Return the logical payload size of the store in bytes."""

    @property
    def segment_count(self) -> int:
        """Return the number of on-disk segments (1 for in-memory stores)."""
        return 1

    def column(self, name: str) -> np.ndarray:
        """Return one whole column (materializes for out-of-core stores)."""
        return self.read(name, 0, self.rows)

    def column_stats(self, name: str) -> tuple[float, float] | None:
        """Return cached ``(min, max)`` of a numeric column, if known."""
        return None

    def describe(self) -> dict:
        """Return a JSON-friendly summary of the physical layout."""
        return {
            "backend": self.backend,
            "rows": self.rows,
            "segments": self.segment_count,
            "bytes": self.nbytes,
        }

    def _check_column(self, name: str) -> None:
        if name not in self.column_names:
            raise SchemaError(
                f"store has no column {name!r}; available: {list(self.column_names)}"
            )


class InMemoryColumnStore(ColumnStore):
    """The historical representation: one numpy array per column.

    Arrays are adopted without copying (the relation contract: callers must
    not mutate what they pass in), so wrapping existing columns is free.
    """

    backend = "memory"

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        if not columns:
            raise SchemaError("a column store needs at least one column")
        converted: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = int(arr.shape[0])
            elif arr.shape[0] != length:
                raise SchemaError(
                    f"column {name!r} has length {arr.shape[0]}, expected {length}"
                )
            converted[name] = arr
        self._columns = converted
        self._rows = int(length if length is not None else 0)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def dtype(self, name: str) -> np.dtype:
        self._check_column(name)
        return self._columns[name].dtype

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        self._check_column(name)
        return self._columns[name][start:stop]

    def take(self, name: str, rows: np.ndarray) -> np.ndarray:
        self._check_column(name)
        return self._columns[name][np.asarray(rows)]

    def column(self, name: str) -> np.ndarray:
        self._check_column(name)
        return self._columns[name]

    @property
    def nbytes(self) -> int:
        return int(sum(arr.nbytes for arr in self._columns.values()))

    def mapping(self) -> dict[str, np.ndarray]:
        """Return a shallow copy of the column mapping (arrays shared)."""
        return dict(self._columns)


@dataclass(frozen=True)
class Segment:
    """One row range of a :class:`MmapColumnStore`.

    ``files`` maps column name to the ``.npy`` file holding that column's
    rows of this segment; ``stats`` optionally caches per-column (min, max)
    so bounds queries never touch the data; ``checksums`` holds the CRC32 of
    each column file's payload bytes, letting :meth:`MmapColumnStore.verify`
    detect bit rot and torn writes without trusting the writer.
    """

    rows: int
    files: dict
    stats: dict
    checksums: dict = field(default_factory=dict)

    def spec(self) -> dict:
        return {
            "rows": self.rows,
            "files": dict(self.files),
            "stats": dict(self.stats),
            "checksums": dict(self.checksums),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Segment":
        return cls(
            rows=int(spec["rows"]),
            files=dict(spec["files"]),
            stats={k: tuple(v) for k, v in spec.get("stats", {}).items()},
            checksums={k: int(v) for k, v in spec.get("checksums", {}).items()},
        )


class _MappingCache:
    """Lazily opened memory maps with resident-page recycling.

    Every mapping tracks how many bytes have been read through it; past
    :data:`MMAP_RECYCLE_BYTES` the mapping's pages are advised away
    (``MADV_DONTNEED``), so scanning arbitrarily large segments keeps the
    process RSS bounded.  Thread-safe: the engine's thread backend scans
    one store from several worker threads.
    """

    def __init__(self, recycle_bytes: int = MMAP_RECYCLE_BYTES) -> None:
        self._lock = threading.Lock()
        self._maps: dict[str, np.memmap] = {}
        self._read_bytes: dict[str, int] = {}
        self.recycle_bytes = int(recycle_bytes)

    def open(self, path: str) -> np.memmap:
        with self._lock:
            mapped = self._maps.get(path)
            if mapped is None:
                mapped = np.load(path, mmap_mode="r")
                self._maps[path] = mapped
                self._read_bytes[path] = 0
            return mapped

    def charge(self, path: str, mapped: np.memmap, nbytes: int) -> None:
        """Account one read; recycle the mapping's pages past the threshold."""
        with self._lock:
            total = self._read_bytes.get(path, 0) + int(nbytes)
            if total >= self.recycle_bytes:
                madvise_dontneed(mapped)
                total = 0
            self._read_bytes[path] = total

    def release(self) -> None:
        """Drop resident pages of every live mapping (keeps the maps open)."""
        with self._lock:
            for mapped in self._maps.values():
                madvise_dontneed(mapped)
            for path in self._read_bytes:
                self._read_bytes[path] = 0


class MmapColumnStore(ColumnStore):
    """Columns stored as memory-mapped ``.npy`` segments on disk.

    A store is an ordered list of :class:`Segment` row ranges; every
    segment holds one ``.npy`` file per column.  Appending rows is a
    segment-list extension (zero data movement), which is what makes the
    catalog's delta appends cheap; :meth:`compacted` rewrites the segment
    chain into evenly sized segments block-by-block when the chain grows
    ragged.

    Stores are picklable through :meth:`spec` / :meth:`from_spec` — a spec
    is just file paths plus shapes, which is how the process-pool backend
    hands an out-of-core relation to worker processes without copying it.
    """

    backend = "mmap"

    def __init__(
        self,
        segments: list[Segment],
        directory: str | None = None,
        recycle_bytes: int = MMAP_RECYCLE_BYTES,
    ) -> None:
        if not segments:
            raise SchemaError("an mmap column store needs at least one segment")
        names = tuple(segments[0].files)
        for segment in segments:
            if tuple(segment.files) != names:
                raise SchemaError("every segment must hold the same columns")
        self._segments = list(segments)
        self._names = names
        self._starts = np.cumsum([0] + [s.rows for s in segments])
        self._rows = int(self._starts[-1])
        self.directory = directory
        self._cache = _MappingCache(recycle_bytes)
        self._dtypes: dict[str, np.dtype] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def write(
        cls,
        directory: str,
        columns,
        *,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        recycle_bytes: int = MMAP_RECYCLE_BYTES,
    ) -> "MmapColumnStore":
        """Write columns into fresh segments under ``directory``.

        ``columns`` is either a ``{name: array}`` mapping (spilled
        block-by-block, so even an in-memory→disk conversion never doubles
        the resident set) or an *iterator of chunk mappings* — the
        streaming form used by generators producing data larger than RAM.
        Segments are capped at ``segment_bytes`` per column so later random
        gathers and compaction rewrites touch bounded files.
        """
        os.makedirs(directory, exist_ok=True)
        if isinstance(columns, Mapping):
            store = InMemoryColumnStore(columns)
            row_bytes = max(
                1, sum(store.dtype(n).itemsize for n in store.column_names)
            )
            block_rows = max(1, block_bytes // row_bytes)
            chunks = (
                {n: store.read(n, start, stop) for n in store.column_names}
                for start, stop in block_spans(store.rows, block_rows)
            )
        else:
            chunks = iter(columns)
        writer = _SegmentWriter(directory, segment_bytes)
        for chunk in chunks:
            writer.append({name: np.asarray(values) for name, values in chunk.items()})
        segments = writer.finish()
        store = cls(segments, directory=directory, recycle_bytes=recycle_bytes)
        # Validate before anything references the store: a torn write (crash,
        # full disk, injected fault) surfaces here as CorruptSegmentError,
        # while the caller can still retry into a fresh directory.
        store.validate()
        return store

    @classmethod
    def from_store(
        cls,
        store: ColumnStore,
        directory: str,
        *,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "MmapColumnStore":
        """Spill any column store to disk, block by block."""
        row_bytes = max(1, sum(store.dtype(n).itemsize for n in store.column_names))
        block_rows = max(1, block_bytes // row_bytes)
        chunks = (
            {n: store.read(n, start, stop) for n in store.column_names}
            for start, stop in block_spans(store.rows, block_rows)
        )
        return cls.write(
            directory, chunks, block_bytes=block_bytes, segment_bytes=segment_bytes
        )

    def spec(self) -> dict:
        """Return the picklable description of this store (paths + layout)."""
        return {
            "backend": self.backend,
            "directory": self.directory,
            "recycle_bytes": self._cache.recycle_bytes,
            "segments": [segment.spec() for segment in self._segments],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "MmapColumnStore":
        return cls(
            [Segment.from_spec(s) for s in spec["segments"]],
            directory=spec.get("directory"),
            recycle_bytes=int(spec.get("recycle_bytes", MMAP_RECYCLE_BYTES)),
        )

    # ------------------------------------------------------------------ #
    # ColumnStore API
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> int:
        return self._rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    def dtype(self, name: str) -> np.dtype:
        self._check_column(name)
        cached = self._dtypes.get(name)
        if cached is None:
            cached = self._open(self._segments[0], name).dtype
            self._dtypes[name] = cached
        return cached

    def _open(self, segment: Segment, name: str) -> np.memmap:
        """Open one segment column, validating it against the metadata.

        A missing file, an unreadable/truncated ``.npy``, or a row count
        that disagrees with the segment spec raises
        :class:`~repro.exceptions.CorruptSegmentError` — torn segments must
        fail loudly on open, never be served as data.
        """
        path = segment.files[name]
        try:
            mapped = self._cache.open(path)
        except FileNotFoundError:
            raise CorruptSegmentError(
                f"segment file {path!r} is missing (expected {segment.rows} rows "
                f"of column {name!r})"
            ) from None
        except (ValueError, OSError) as exc:
            raise CorruptSegmentError(
                f"segment file {path!r} is unreadable or truncated: {exc}"
            ) from None
        if int(mapped.shape[0]) != segment.rows:
            raise CorruptSegmentError(
                f"segment file {path!r} holds {int(mapped.shape[0])} rows, "
                f"expected {segment.rows}"
            )
        return mapped

    def validate(self) -> int:
        """Open-validate every segment column (existence, readability, rows).

        Cheap (metadata only — no payload scan); the write path calls this
        so a torn write is caught while the writer can still recover.
        Returns the number of files checked.
        """
        checked = 0
        for segment in self._segments:
            for name in self._names:
                self._open(segment, name)
                checked += 1
        return checked

    def verify(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
        """Deep-verify payload checksums of every segment column.

        Recomputes each file's CRC32 block-by-block (bounded memory) and
        compares against the checksum recorded at write time; raises
        :class:`~repro.exceptions.CorruptSegmentError` on the first
        mismatch.  Segments written before checksums existed are skipped.
        Returns the number of files whose checksum was verified.
        """
        verified = 0
        for segment in self._segments:
            for name in self._names:
                expected = segment.checksums.get(name)
                if expected is None:
                    continue
                mapped = self._open(segment, name)
                block_rows = max(1, block_bytes // max(1, mapped.itemsize))
                crc = 0
                for start, stop in block_spans(segment.rows, block_rows):
                    crc = zlib.crc32(mapped[start:stop].tobytes(), crc)
                self._cache.charge(segment.files[name], mapped, mapped.nbytes)
                if crc != int(expected):
                    raise CorruptSegmentError(
                        f"segment file {segment.files[name]!r} checksum mismatch: "
                        f"payload crc32={crc}, recorded {int(expected)}"
                    )
                verified += 1
        return verified

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        self._check_column(name)
        start = max(0, int(start))
        stop = min(self._rows, int(stop))
        if stop <= start:
            return np.empty(0, dtype=self.dtype(name))
        out = np.empty(stop - start, dtype=self.dtype(name))
        first = int(np.searchsorted(self._starts, start, side="right")) - 1
        cursor = start
        for index in range(first, len(self._segments)):
            if cursor >= stop:
                break
            segment = self._segments[index]
            seg_start = int(self._starts[index])
            lo = cursor - seg_start
            hi = min(stop - seg_start, segment.rows)
            mapped = self._open(segment, name)
            piece = mapped[lo:hi]
            out[cursor - start : cursor - start + (hi - lo)] = piece
            self._cache.charge(segment.files[name], mapped, piece.nbytes)
            cursor = seg_start + hi
        return out

    def take(self, name: str, rows: np.ndarray) -> np.ndarray:
        self._check_column(name)
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(rows.shape[0], dtype=self.dtype(name))
        if rows.size == 0:
            return out
        # One pass per overlapping segment: gather that segment's hits with
        # one fancy index, charge the mapping, move on.  Peak resident pages
        # per gather are bounded by one segment.
        seg_of_row = np.searchsorted(self._starts, rows, side="right") - 1
        for index in np.flatnonzero(np.bincount(seg_of_row, minlength=len(self._segments))):
            segment = self._segments[int(index)]
            mask = seg_of_row == index
            local = rows[mask] - int(self._starts[int(index)])
            mapped = self._open(segment, name)
            gathered = mapped[local]
            out[mask] = gathered
            self._cache.charge(
                segment.files[name], mapped, int(mask.sum()) * out.itemsize
            )
        return out

    @property
    def nbytes(self) -> int:
        return int(
            sum(
                segment.rows * self.dtype(name).itemsize
                for segment in self._segments
                for name in self._names
            )
        )

    def column_stats(self, name: str) -> tuple[float, float] | None:
        self._check_column(name)
        los: list[float] = []
        his: list[float] = []
        for segment in self._segments:
            stat = segment.stats.get(name)
            if stat is None:
                return None
            los.append(float(stat[0]))
            his.append(float(stat[1]))
        if not los:
            return None
        return min(los), max(his)

    def release(self) -> None:
        """Drop resident pages of every open mapping."""
        self._cache.release()

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def with_appended(self, other: "ColumnStore | MmapColumnStore") -> "MmapColumnStore":
        """Return a store extending this one with another store's segments.

        ``other`` must be mmap-backed with the same columns (spill it first
        via :meth:`write`); no data is moved — the result simply references
        both segment chains, which is what makes a delta append O(delta)
        I/O instead of O(base + delta).
        """
        if not isinstance(other, MmapColumnStore):
            raise SchemaError(
                "with_appended expects an mmap-backed store; spill the delta first"
            )
        if other.column_names != self.column_names:
            raise SchemaError(
                f"appended store has columns {other.column_names}, "
                f"expected {self.column_names}"
            )
        return MmapColumnStore(
            list(self._segments) + list(other._segments),
            directory=self.directory,
            recycle_bytes=self._cache.recycle_bytes,
        )

    def compacted(
        self,
        directory: str | None = None,
        *,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "MmapColumnStore":
        """Rewrite the segment chain into evenly sized segments on disk.

        The rewrite streams block-by-block (never more than one block in
        memory), so compacting a 10x-RAM relation is pure bounded I/O.  The
        old segment files are left in place — live readers may still map
        them; the owner decides when to retire them (see
        :meth:`RelationCatalog.cleanup <repro.service.catalog.RelationCatalog.cleanup>`).
        """
        target = directory or self.directory
        if target is None:
            raise SchemaError("compacted() needs a directory for the new segments")
        fresh = os.path.join(target, f"compact-{uuid.uuid4().hex[:8]}")
        return MmapColumnStore.from_store(
            self, fresh, block_bytes=block_bytes, segment_bytes=segment_bytes
        )

    def file_paths(self) -> list[str]:
        """Return every segment file backing this store."""
        return [segment.files[name] for segment in self._segments for name in self._names]

    def __reduce__(self):
        return (MmapColumnStore.from_spec, (self.spec(),))


class _SegmentWriter:
    """Accumulates chunk mappings into bounded ``.npy`` segments.

    Segments are **crash-safe**: every column file is written to a
    ``*.tmp`` sibling, flushed and fsynced, then atomically renamed into
    place — a crash at any point leaves either a complete, durable segment
    or an orphaned tmp file that startup recovery
    (:func:`recover_spill_dir`) sweeps.  The payload CRC32 of each column is
    recorded on the :class:`Segment` for later deep verification.
    """

    def __init__(self, directory: str, segment_bytes: int) -> None:
        self.directory = directory
        self.segment_bytes = max(1, int(segment_bytes))
        self.segments: list[Segment] = []
        self._open_files: dict[str, object] = {}
        self._open_paths: dict[str, str] = {}
        self._open_rows = 0
        self._open_bytes = 0
        self._open_stats: dict[str, tuple[float, float]] = {}
        self._open_crc: dict[str, int] = {}
        self._names: tuple[str, ...] | None = None
        self._dtypes: dict[str, np.dtype] = {}

    def append(self, chunk: Mapping[str, np.ndarray]) -> None:
        names = tuple(chunk)
        if self._names is None:
            self._names = names
            self._dtypes = {n: np.asarray(chunk[n]).dtype for n in names}
        elif names != self._names:
            raise SchemaError(
                f"chunk columns {names} do not match first chunk {self._names}"
            )
        rows = {int(np.asarray(v).shape[0]) for v in chunk.values()}
        if len(rows) != 1:
            raise SchemaError("chunk columns must have equal lengths")
        n = rows.pop()
        if n == 0:
            return
        if not self._open_files:
            self._start_segment()
        for name in self._names:
            values = np.ascontiguousarray(chunk[name])
            if values.dtype != self._dtypes[name]:
                values = values.astype(self._dtypes[name])
            payload = values.tobytes()
            self._open_files[name].write(payload)
            self._open_crc[name] = zlib.crc32(payload, self._open_crc.get(name, 0))
            stat = self._open_stats.get(name)
            if np.issubdtype(values.dtype, np.number) and values.size:
                lo, hi = float(values.min()), float(values.max())
                self._open_stats[name] = (
                    (lo, hi) if stat is None else (min(stat[0], lo), max(stat[1], hi))
                )
            self._open_bytes += values.nbytes
        self._open_rows += n
        if self._open_bytes >= self.segment_bytes * len(self._names):
            self._close_segment()

    def _start_segment(self) -> None:
        index = len(self.segments)
        self._open_paths = {}
        self._open_files = {}
        self._open_stats = {}
        self._open_crc = {}
        self._open_rows = 0
        self._open_bytes = 0
        for name in self._names or ():
            path = os.path.join(self.directory, f"seg{index:05d}__{name}.npy")
            # In-flight data lives under the tmp name; the finished segment
            # is fsynced and renamed into place, so ``path`` either holds a
            # complete segment or nothing.
            handle = open(path + TMP_SUFFIX, "wb")
            # Placeholder header; rewritten with the true shape on close.
            np.lib.format.write_array_header_2_0(
                handle,
                {"descr": np.lib.format.dtype_to_descr(self._dtypes[name]),
                 "fortran_order": False, "shape": (0,)},
            )
            self._header_len = handle.tell()
            self._open_paths[name] = path
            self._open_files[name] = handle

    def _close_segment(self) -> None:
        if not self._open_files or self._open_rows == 0:
            for name, handle in self._open_files.items():
                handle.close()
                try:
                    os.unlink(self._open_paths[name] + TMP_SUFFIX)
                except OSError:  # pragma: no cover - nothing was written
                    pass
            self._open_files = {}
            return
        for name, handle in self._open_files.items():
            handle.seek(0)
            np.lib.format.write_array_header_2_0(
                handle,
                {"descr": np.lib.format.dtype_to_descr(self._dtypes[name]),
                 "fortran_order": False, "shape": (self._open_rows,)},
            )
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            os.rename(self._open_paths[name] + TMP_SUFFIX, self._open_paths[name])
        self.segments.append(
            Segment(
                rows=self._open_rows,
                files=dict(self._open_paths),
                stats=dict(self._open_stats),
                checksums=dict(self._open_crc),
            )
        )
        self._inject_torn_segment()
        self._open_files = {}

    def _inject_torn_segment(self) -> None:
        """Chaos hook: truncate a just-finished segment file when a
        ``spill_torn`` fault fires, simulating a torn write that slipped
        past the crash window.  The read path must turn this into
        :class:`~repro.exceptions.CorruptSegmentError`, never wrong data."""
        injector = faults.active()
        if injector is None or not injector.fire(
            "spill_torn", self.directory, len(self.segments)
        ):
            return
        path = next(iter(self._open_paths.values()))
        size = os.path.getsize(path)
        os.truncate(path, max(1, size - 16))

    def finish(self) -> list[Segment]:
        self._close_segment()
        if not self.segments:
            raise SchemaError("cannot build an mmap store from zero rows")
        return self.segments


class SpillArena:
    """Scratch-file allocator for the streaming execution layer.

    Owns one directory; hands out append-only array writers whose contents
    re-open as read-only memory maps.  ``cleanup()`` removes everything —
    arenas are per-join scratch, not durable storage.
    """

    def __init__(self, directory: str | None = None) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-spill-")
            self._owned = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._owned = False
        self.directory = directory
        self._counter = 0
        self._lock = threading.Lock()

    @classmethod
    def scratch(cls, root: str | None = None, prefix: str = "repro-spill-") -> "SpillArena":
        """Return an owned (cleaned-up) arena in a fresh directory under ``root``.

        Unlike passing ``directory=`` (which adopts an existing directory
        without deleting it), the arena creates — and on cleanup removes — a
        unique subdirectory, so concurrent joins sharing one spill root
        never collide.
        """
        if root is not None:
            os.makedirs(root, exist_ok=True)
        arena = cls(tempfile.mkdtemp(prefix=prefix, dir=root))
        arena._owned = True
        return arena

    def new_path(self, prefix: str = "scratch", suffix: str = ".bin") -> str:
        with self._lock:
            self._counter += 1
            return os.path.join(self.directory, f"{prefix}-{self._counter:05d}{suffix}")

    def writer(self, dtype, prefix: str = "scratch") -> "SpillWriter":
        """Return an append-only writer for one flat array."""
        return SpillWriter(self.new_path(prefix), np.dtype(dtype))

    def empty(self, dtype, rows: int, prefix: str = "scratch") -> np.memmap:
        """Allocate a writable scratch memmap of ``rows`` elements."""
        path = self.new_path(prefix, suffix=".npy")
        return np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=(int(rows),)
        )

    def empty_matrix(self, dtype, rows: int, cols: int, prefix: str = "scratch") -> np.memmap:
        """Allocate a writable 2-D scratch memmap."""
        path = self.new_path(prefix, suffix=".npy")
        return np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=(int(rows), int(cols))
        )

    def cleanup(self) -> None:
        """Delete the arena directory (only if this arena created it)."""
        if self._owned:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SpillArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


class SpillWriter:
    """Append-only flat-array writer backing a :class:`SpillArena` file."""

    def __init__(self, path: str, dtype: np.dtype) -> None:
        self.path = path
        self.dtype = dtype
        self.rows = 0
        self._handle = open(path, "wb")

    def append(self, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.size:
            self._handle.write(values.tobytes())
            self.rows += int(values.size)

    def finish(self) -> np.ndarray:
        """Close the file and return its contents as a read-only memmap."""
        self._handle.close()
        if self.rows == 0:
            return np.empty(0, dtype=self.dtype)
        return np.memmap(self.path, dtype=self.dtype, mode="r", shape=(self.rows,))
