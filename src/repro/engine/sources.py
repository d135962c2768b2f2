"""Matrix sources: the engine's sliced view of a relation's join columns.

The legacy execution path materializes ``relation.join_matrix(attrs)`` — an
``(n, d)`` float array — before routing.  For out-of-core relations that
materialization is exactly what must not happen, so the streamed path works
against a :class:`StoreMatrixSource` instead: a thin adapter over a
:class:`~repro.data.storage.ColumnStore` that hands out bounded row slices
(``slice`` / ``iter_chunks``) and bounded gathers (``take``), while the
whole matrix never exists anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.storage import (
    DEFAULT_BLOCK_BYTES,
    ColumnStore,
    block_spans,
    madvise_dontneed,
)

__all__ = ["StoreMatrixSource"]


class StoreMatrixSource:
    """A relation side's join matrix, readable in bounded pieces.

    Parameters
    ----------
    store:
        Column store holding the relation's data.
    attributes:
        Join attributes in condition order — the columns of the virtual
        ``(n, d)`` float matrix this source represents.
    """

    def __init__(self, store: ColumnStore, attributes: Sequence[str]) -> None:
        self.store = store
        self.attributes = tuple(attributes)

    @classmethod
    def from_relation(cls, relation, attributes: Sequence[str]) -> "StoreMatrixSource":
        return cls(relation.store, attributes)

    @property
    def rows(self) -> int:
        return int(self.store.rows)

    @property
    def width(self) -> int:
        return len(self.attributes)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.width

    @property
    def storage(self) -> str:
        return self.store.backend

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Return rows ``[start, stop)`` as a fresh float matrix."""
        start = max(0, int(start))
        stop = min(self.rows, int(stop))
        out = np.empty((max(0, stop - start), self.width), dtype=float)
        for i, attr in enumerate(self.attributes):
            out[:, i] = self.store.read(attr, start, stop)
        return out

    def iter_chunks(self, max_bytes: int = DEFAULT_BLOCK_BYTES):
        """Yield ``(start, stop, matrix)`` float chunks of at most ``max_bytes``."""
        row_bytes = 8 * max(1, self.width)
        block_rows = max(1, int(max_bytes) // row_bytes)
        for start, stop in block_spans(self.rows, block_rows):
            yield start, stop, self.slice(start, stop)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Gather an explicit row subset as a fresh float matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((rows.shape[0], self.width), dtype=float)
        for i, attr in enumerate(self.attributes):
            out[:, i] = self.store.take(attr, rows)
        return out

    def take_into(
        self,
        out: np.ndarray,
        rows: np.ndarray,
        block_rows: int,
        recycle_every: int = 4,
    ) -> np.ndarray:
        """Fill ``out`` with the gathered rows block by block.

        ``out`` is typically a scratch memory map: filling it in blocks and
        periodically dropping its dirty pages (plus the source's resident
        pages) keeps the gather's RSS footprint bounded by a few blocks no
        matter how large the task is.
        """
        rows = np.asarray(rows, dtype=np.int64)
        for index, (b0, b1) in enumerate(block_spans(rows.shape[0], block_rows)):
            block = rows[b0:b1]
            for i, attr in enumerate(self.attributes):
                out[b0:b1, i] = self.store.take(attr, block)
            if isinstance(out, np.memmap) and index % recycle_every == recycle_every - 1:
                madvise_dontneed(out)
                self.release()
        self.release()
        return out

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Return per-attribute ``(min, max)`` without materializing columns.

        Served from per-segment statistics when the store caches them,
        falling back to a bounded streaming scan.
        """
        d = self.width
        lo = np.zeros(d)
        hi = np.zeros(d)
        if self.rows == 0:
            return lo, hi
        pending = []
        for i, attr in enumerate(self.attributes):
            stat = self.store.column_stats(attr)
            if stat is None:
                pending.append(i)
            else:
                lo[i], hi[i] = stat
        if pending:
            first = True
            for _, _, chunk in self.iter_chunks():
                for i in pending:
                    c_lo = float(chunk[:, i].min())
                    c_hi = float(chunk[:, i].max())
                    if first:
                        lo[i], hi[i] = c_lo, c_hi
                    else:
                        lo[i] = min(lo[i], c_lo)
                        hi[i] = max(hi[i], c_hi)
                first = False
        return lo, hi

    def release(self) -> None:
        """Drop any resident pages held by the underlying store."""
        release = getattr(self.store, "release", None)
        if release is not None:
            release()

    def __repr__(self) -> str:
        return (
            f"StoreMatrixSource(rows={self.rows}, attributes={list(self.attributes)}, "
            f"storage={self.storage!r})"
        )
