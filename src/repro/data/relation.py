"""Column-store relations.

A :class:`Relation` is an immutable named schema over a pluggable
:class:`~repro.data.storage.ColumnStore`: the historical in-memory
representation (one numpy array per column) or a memory-mapped ``.npy``
segment store for data bigger than RAM.  The band-join machinery only ever
needs

* the projection of the relation onto the join attributes as a dense
  ``(n, d)`` float matrix — whole (:meth:`Relation.join_matrix`) or, for
  out-of-core execution, as bounded row slices
  (:meth:`Relation.join_matrix_slice`, :meth:`Relation.iter_join_matrix`),
* row subsets / samples (:meth:`Relation.take`, :meth:`Relation.sample`),

so the representation is intentionally simple and fast rather than general.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from typing import Iterator

import numpy as np

from repro.exceptions import SchemaError
from repro.data.storage import (
    DEFAULT_BLOCK_BYTES,
    ColumnStore,
    InMemoryColumnStore,
    MmapColumnStore,
    block_spans,
)


def fingerprint_columns(columns: Sequence[tuple[str, np.ndarray]], rows: int) -> str:
    """Return a content hash of named columns (blake2b over the raw bytes).

    The hash covers the row count, the number of columns and — per column —
    its name, dtype and value bytes, so two column sets fingerprint equally
    iff they are byte-identical in the given order.  Hashing streams in
    bounded blocks, so fingerprinting never materializes a full contiguous
    copy of a column (strided views and memory-mapped columns are hashed
    one block at a time).  This is the primitive behind
    :meth:`Relation.fingerprint` and the plan cache's content keys.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{rows}:{len(columns)}".encode())
    for name, values in columns:
        column = np.asarray(values)
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        _hash_column_blocks(digest, column)
    return digest.hexdigest()


def _hash_column_blocks(digest, column: np.ndarray) -> None:
    """Feed a column's bytes to ``digest`` in bounded contiguous blocks.

    Block-wise ``tobytes`` over consecutive row spans concatenates to
    exactly the bytes of ``ascontiguousarray(column).tobytes()``, so the
    resulting digest is identical to the historical whole-array hash.
    """
    rows = int(column.shape[0])
    block_rows = max(1, DEFAULT_BLOCK_BYTES // max(1, column.dtype.itemsize))
    if rows <= block_rows and column.flags.c_contiguous:
        digest.update(column.tobytes())
        return
    for start, stop in block_spans(rows, block_rows):
        digest.update(np.ascontiguousarray(column[start:stop]).tobytes())


def fingerprint_store(store: ColumnStore, attributes: Sequence[str], rows: int) -> str:
    """Fingerprint store-resident columns without materializing them."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{rows}:{len(attributes)}".encode())
    for name in attributes:
        dtype = store.dtype(name)
        digest.update(name.encode())
        digest.update(str(dtype).encode())
        block_rows = max(1, DEFAULT_BLOCK_BYTES // max(1, dtype.itemsize))
        for start, stop in block_spans(rows, block_rows):
            digest.update(np.ascontiguousarray(store.read(name, start, stop)).tobytes())
    return digest.hexdigest()


class Relation:
    """An immutable named collection of equally-long columns.

    Parameters
    ----------
    name:
        Human-readable relation name (used in reports and error messages).
    columns:
        Mapping of column name to 1-D array-like; all columns must have the
        same length.  Columns are converted to numpy arrays and never copied
        again afterwards, so callers should not mutate the arrays they pass.
        To wrap an existing :class:`~repro.data.storage.ColumnStore`
        (in particular a memory-mapped one) use :meth:`from_store`.
    """

    def __init__(self, name: str, columns: Mapping[str, np.ndarray]) -> None:
        try:
            store = InMemoryColumnStore(columns)
        except SchemaError as exc:
            raise SchemaError(f"relation {name!r}: {exc}") from None
        self._init_from_store(name, store)

    def _init_from_store(self, name: str, store: ColumnStore) -> None:
        self._name = name
        self._store = store
        self._length = int(store.rows)
        # Memoized content fingerprints per attribute tuple; safe because the
        # relation (and, by contract, its storage) never change after init.
        self._fingerprints: dict[tuple[str, ...], str] = {}

    @classmethod
    def from_store(cls, name: str, store: ColumnStore) -> "Relation":
        """Wrap an existing column store without copying any data."""
        relation = cls.__new__(cls)
        relation._init_from_store(name, store)
        return relation

    @classmethod
    def from_rows(
        cls, name: str, rows: np.ndarray, column_names: Sequence[str]
    ) -> "Relation":
        """Build a relation from an ``(n, d)`` row matrix and column names.

        Columns are views into ``rows`` (dtype preserved, nothing copied), so
        the caller must not mutate the matrix afterwards — the same contract
        as the main constructor.
        """
        matrix = np.asarray(rows)
        names = list(column_names)
        if matrix.ndim != 2:
            raise SchemaError(
                f"from_rows expects an (n, d) matrix for relation {name!r}, "
                f"got shape {matrix.shape}"
            )
        if matrix.shape[1] != len(names):
            raise SchemaError(
                f"relation {name!r}: {len(names)} column names for a matrix "
                f"with {matrix.shape[1]} columns"
            )
        return cls(name, {col: matrix[:, i] for i, col in enumerate(names)})

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Return the relation name."""
        return self._name

    @property
    def store(self) -> ColumnStore:
        """Return the column store backing this relation."""
        return self._store

    @property
    def storage(self) -> str:
        """Return the storage backend name (``"memory"`` or ``"mmap"``)."""
        return self._store.backend

    @property
    def segment_count(self) -> int:
        """Return the number of physical segments backing this relation."""
        return self._store.segment_count

    @property
    def nbytes(self) -> int:
        """Return the logical payload size in bytes."""
        return self._store.nbytes

    @property
    def column_names(self) -> tuple[str, ...]:
        """Return column names in schema order."""
        return self._store.column_names

    @property
    def num_columns(self) -> int:
        """Return the number of columns."""
        return len(self._store.column_names)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, column: str) -> bool:
        return column in self._store.column_names

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.column_names)

    def column(self, name: str) -> np.ndarray:
        """Return column ``name`` as one array (materializes mmap columns)."""
        try:
            return self._store.column(name)
        except SchemaError:
            raise SchemaError(
                f"relation {self._name!r} has no column {name!r}; "
                f"available: {list(self._store.column_names)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def fingerprint(self, attributes: Sequence[str]) -> str:
        """Return the memoized content hash of the given columns.

        Relations are immutable, so the hash is computed at most once per
        attribute tuple and then reused — on a serving hot path this turns
        every further plan-cache lookup over the same relation into a pure
        dictionary access instead of a re-hash of the column bytes.
        """
        key = tuple(attributes)
        cached = self._fingerprints.get(key)
        if cached is None:
            for attr in key:
                if attr not in self._store.column_names:
                    raise SchemaError(
                        f"relation {self._name!r} has no column {attr!r}; "
                        f"available: {list(self._store.column_names)}"
                    )
            cached = fingerprint_store(self._store, key, self._length)
            self._fingerprints[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Projections and row subsets
    # ------------------------------------------------------------------ #
    def _check_attributes(self, attributes: Sequence[str]) -> None:
        missing = [a for a in attributes if a not in self._store.column_names]
        if missing:
            raise SchemaError(
                f"relation {self._name!r} is missing join attributes {missing}"
            )
        if not attributes:
            raise SchemaError("join_matrix needs at least one attribute")

    def join_matrix(self, attributes: Sequence[str]) -> np.ndarray:
        """Return the ``(n, d)`` float matrix of the given join attributes.

        The column order of the result follows ``attributes``, which is the
        order every geometric component of the library (regions, band
        conditions, split trees) uses for its dimensions.  For out-of-core
        relations prefer :meth:`iter_join_matrix`, which streams the same
        matrix in bounded row slices.
        """
        self._check_attributes(attributes)
        return np.column_stack(
            [np.asarray(self._store.column(a), dtype=float) for a in attributes]
        )

    def join_matrix_slice(
        self, attributes: Sequence[str], start: int, stop: int
    ) -> np.ndarray:
        """Return rows ``[start, stop)`` of :meth:`join_matrix` as a float matrix."""
        self._check_attributes(attributes)
        start = max(0, int(start))
        stop = min(self._length, int(stop))
        if stop <= start:
            return np.empty((0, len(attributes)), dtype=float)
        out = np.empty((stop - start, len(attributes)), dtype=float)
        for i, attr in enumerate(attributes):
            out[:, i] = self._store.read(attr, start, stop)
        return out

    def iter_join_matrix(
        self, attributes: Sequence[str], max_bytes: int = DEFAULT_BLOCK_BYTES
    ):
        """Yield ``(start, stop, chunk)`` float slices of the join matrix.

        Each chunk holds at most ``max_bytes`` of float64 payload; the
        concatenation of all chunks equals :meth:`join_matrix`.  This is the
        streaming seam the engine uses to route out-of-core relations
        without ever materializing the whole matrix.
        """
        self._check_attributes(attributes)
        row_bytes = 8 * max(1, len(attributes))
        block_rows = max(1, int(max_bytes) // row_bytes)
        for start, stop in block_spans(self._length, block_rows):
            yield start, stop, self.join_matrix_slice(attributes, start, stop)

    def take(self, indices: np.ndarray, name: str | None = None) -> "Relation":
        """Return a new in-memory relation holding the rows selected by ``indices``."""
        idx = np.asarray(indices)
        new_columns = {c: self._store.take(c, idx) for c in self._store.column_names}
        return Relation(name or self._name, new_columns)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sample(self, n: int, rng: np.random.Generator, replace: bool = False) -> "Relation":
        """Return a uniform random sample of ``n`` rows.

        When ``n`` exceeds the relation size and ``replace`` is ``False`` the
        whole relation is returned (a sample cannot be larger than the data).
        """
        if self._length == 0:
            return self
        if not replace and n >= self._length:
            return self
        idx = rng.choice(self._length, size=n, replace=replace)
        return self.take(idx, name=f"{self._name}_sample")

    def concat(self, other: "Relation", name: str | None = None) -> "Relation":
        """Return the row-wise concatenation of this relation and ``other``.

        Both relations must have identical schemas.  When both sides are
        mmap-backed the result simply references the union of their segment
        chains — no data is read or copied.  Otherwise columns concatenate
        one at a time, so peak transient memory is one column pair, not the
        whole pair of relations.
        """
        if self.column_names != other.column_names:
            raise SchemaError(
                f"cannot concatenate relations with different schemas: "
                f"{self.column_names} vs {other.column_names}"
            )
        if len(other) == 0:
            return self.rename(name or self._name)
        if len(self) == 0:
            return other.rename(name or self._name)
        if isinstance(self._store, MmapColumnStore) and isinstance(
            other._store, MmapColumnStore
        ):
            return Relation.from_store(
                name or self._name, self._store.with_appended(other._store)
            )
        new_columns = {}
        for c in self.column_names:
            new_columns[c] = np.concatenate([self._store.column(c), other._store.column(c)])
        return Relation(name or self._name, new_columns)

    # ------------------------------------------------------------------ #
    # Out-of-core conversion
    # ------------------------------------------------------------------ #
    def spill(self, directory: str, **kwargs) -> "Relation":
        """Return an mmap-backed copy of this relation under ``directory``.

        The rewrite streams block-by-block; extra keyword arguments are
        forwarded to :meth:`MmapColumnStore.from_store` (``block_bytes``,
        ``segment_bytes``).  A relation that is already mmap-backed is
        returned unchanged.
        """
        if isinstance(self._store, MmapColumnStore):
            return self
        store = MmapColumnStore.from_store(self._store, directory, **kwargs)
        spilled = Relation.from_store(self._name, store)
        # Content is byte-identical, so memoized fingerprints carry over.
        spilled._fingerprints.update(self._fingerprints)
        return spilled

    # ------------------------------------------------------------------ #
    # Statistics helpers
    # ------------------------------------------------------------------ #
    def bounds(self, attributes: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Return per-attribute (min, max) arrays over the given attributes.

        Served from per-segment statistics when the store caches them
        (mmap segments record min/max at write time), falling back to a
        bounded streaming scan — never a whole-matrix materialization.
        """
        self._check_attributes(attributes)
        d = len(attributes)
        if self._length == 0:
            return np.zeros(d), np.zeros(d)
        lo = np.empty(d)
        hi = np.empty(d)
        pending: list[int] = []
        for i, attr in enumerate(attributes):
            stat = self._store.column_stats(attr)
            if stat is None:
                pending.append(i)
            else:
                lo[i], hi[i] = stat
        if pending:
            first = True
            for _, _, chunk in self.iter_join_matrix([attributes[i] for i in pending]):
                c_lo = chunk.min(axis=0)
                c_hi = chunk.max(axis=0)
                for j, i in enumerate(pending):
                    if first:
                        lo[i], hi[i] = c_lo[j], c_hi[j]
                    else:
                        lo[i] = min(lo[i], c_lo[j])
                        hi[i] = max(hi[i], c_hi[j])
                first = False
        return lo, hi

    def describe(self) -> dict[str, dict[str, float]]:
        """Return simple summary statistics (min/max/mean) for every numeric column."""
        summary: dict[str, dict[str, float]] = {}
        for col_name in self._store.column_names:
            dtype = self._store.dtype(col_name)
            if not np.issubdtype(dtype, np.number):
                continue
            if self._length == 0:
                summary[col_name] = {
                    "min": float("nan"), "max": float("nan"), "mean": float("nan")
                }
                continue
            block_rows = max(1, DEFAULT_BLOCK_BYTES // max(1, dtype.itemsize))
            lo = np.inf
            hi = -np.inf
            total = 0.0
            for start, stop in block_spans(self._length, block_rows):
                values = np.asarray(self._store.read(col_name, start, stop), dtype=float)
                lo = min(lo, float(values.min()))
                hi = max(hi, float(values.max()))
                total += float(values.sum())
            summary[col_name] = {"min": lo, "max": hi, "mean": total / self._length}
        return summary

    def to_dict(self) -> dict[str, np.ndarray]:
        """Return the column mapping (materializes mmap columns)."""
        return {c: self._store.column(c) for c in self._store.column_names}

    def rename(self, name: str) -> "Relation":
        """Return the same relation under a different name (storage is shared)."""
        renamed = Relation.from_store(name, self._store)
        renamed._fingerprints = self._fingerprints
        return renamed

    def __repr__(self) -> str:
        return (
            f"Relation(name={self._name!r}, rows={self._length}, "
            f"columns={list(self._store.column_names)}, storage={self.storage!r})"
        )
