"""Low-overhead structured capture of the traffic a service actually serves.

:class:`QueryLogRecorder` is the observatory's write path.  The serving
layer hands it one plain-dict event per request (queries with their
epsilons, latencies and result fingerprints; catalog registrations,
appends and prepares; SLO breaches).  Events land in a bounded in-memory
ring — the raw material of :class:`~repro.obs.workload.snapshot.Workload`
summaries — and, when a spool path is configured, additionally as one JSON
line per event on disk.  The spooled form includes the relation column
data, which makes a capture *replayable*: ``repro-bandjoin replay`` can
reconstruct the catalog state and re-issue the exact request stream (see
:mod:`repro.obs.workload.replay`).

Design constraints, in order:

* **hot-path cost** — recording one query is a dict build plus a lock-free
  ring append (seq numbers come from an atomic counter; the JSONL
  serialization happens under a separate file lock, so concurrent scheduler
  workers never serialize each other's dict builds);
* **bounded memory** — the ring drops the oldest events past capacity and
  counts the drops, and bulky payloads (column data) are never kept in the
  ring, only spooled;
* **deterministic identity** — :func:`pair_fingerprint` reduces a result
  pair set to an order-independent content hash, so captures made under
  different schedulers/backends (which permute pair order) are comparable.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque

import numpy as np

from repro.config import DEFAULT_CAPTURE_RING

__all__ = ["QueryLogRecorder", "format_fingerprint", "pair_fingerprint", "pair_hash"]

# splitmix64-style mixing constants: each pair hashes independently, the
# combine is modular addition — order-independent and duplicate-sensitive.
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xC2B2AE3D27D4EB4F)
_C3 = np.uint64(0xBF58476D1CE4E5B9)
_C4 = np.uint64(0x94D049BB133111EB)


def pair_hash(pairs: np.ndarray) -> int:
    """Return the sum, mod 2⁶⁴, of a per-pair hash over an ``(n, 2)`` pair set.

    The sum is additive: the hash of a union of disjoint pair sets is the sum
    of their hashes mod 2⁶⁴, however the pairs are split or ordered.  The
    serving delta path relies on this — an answer that extends a cached one
    adds the hash of its new pairs to the cached sum instead of rehashing
    everything (:meth:`~repro.service.prepared.QueryResult.fingerprint`).
    """
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[0] == 0:
        return 0
    with np.errstate(over="ignore"):
        x = pairs[:, 0].astype(np.uint64) * _C1 + pairs[:, 1].astype(np.uint64) * _C2
        x ^= x >> np.uint64(30)
        x *= _C3
        x ^= x >> np.uint64(27)
        x *= _C4
        x ^= x >> np.uint64(31)
        return int(np.add.reduce(x, dtype=np.uint64))


def format_fingerprint(n_pairs: int, total: int) -> str:
    """Return the ``"<count>:<hash16hex>"`` form of a pair count and its
    :func:`pair_hash`."""
    return f"{n_pairs}:{total:016x}"


def pair_fingerprint(pairs: np.ndarray) -> str:
    """Return an order-independent content hash of an ``(n, 2)`` pair set.

    Two results fingerprint equally iff they contain the same multiset of
    ``(s_row, t_row)`` pairs, regardless of pair order — so captures and
    replays running different backends (which emit pairs in different
    orders) still compare equal.  The format is ``"<count>:<hash16hex>"``,
    the hash being :func:`pair_hash`, whose additivity lets a served answer
    fingerprint only the pairs it added to a cached one.
    """
    pairs = np.asarray(pairs)
    n = int(pairs.shape[0]) if pairs.ndim == 2 else 0
    return format_fingerprint(n, pair_hash(pairs))


class QueryLogRecorder:
    """Thread-safe bounded ring of traffic events with optional JSONL spooling.

    Parameters
    ----------
    capacity:
        In-memory ring size; the oldest events are dropped (and counted)
        past it.
    spool_path:
        Optional JSONL file appended to on every event.  Spooled events may
        carry extra bulky fields (relation columns) that the ring omits, so
        a spooled capture is replayable while ring memory stays bounded.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPTURE_RING,
        spool_path: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.spool_path = str(spool_path) if spool_path is not None else None
        # The ring write path is lock-free: seq numbers come from an atomic
        # counter and a bounded deque append is atomic under the GIL.  Since
        # every event passes through the ring, the drop count is derivable
        # (``recorded - len(ring)``) instead of tracked per append.
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._count = itertools.count(1)
        self._last_seq = 0
        self._spooled = 0
        self._spool_lock = threading.Lock()
        self._spool = open(spool_path, "a", encoding="utf-8") if spool_path else None

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    @property
    def spooling(self) -> bool:
        """Return whether events are also written to a JSONL spool file."""
        return self._spool is not None

    def record(self, type: str, ts: float | None = None, spool_only: dict | None = None,
               **fields) -> dict:
        """Record one event and return it (as kept in the ring).

        ``ts`` defaults to now; pass the request's arrival wall-clock when
        recording after the fact so inter-arrival statistics stay honest.
        ``spool_only`` fields (e.g. column data) go to the JSONL spool but
        never into the ring.
        """
        event = {"type": type, "ts": time.time() if ts is None else float(ts)}
        event.update(fields)
        return self.record_event(event, spool_only=spool_only)

    def record_completed(self, template: dict, ts: float, queue_seconds: float,
                         exec_seconds: float, path: str) -> None:
        """Record one completed query from a memoized static template.

        This is the scheduler's hot path.  Without a spool it is one atomic
        seq draw plus one ring append of a compact tuple that *shares* the
        template dict — the full event dict is only materialized lazily when
        the ring is read (:meth:`events`).  With a spool the dict must be
        built eagerly anyway, since the JSONL line is the replay source.
        """
        seq = self._last_seq = next(self._count)
        if self._spool is None:
            self._ring.append((template, ts, queue_seconds, exec_seconds, path, seq))
            return
        event = {
            **template,
            "ts": ts,
            "queue_seconds": queue_seconds,
            "exec_seconds": exec_seconds,
            "path": path,
            "seq": seq,
        }
        self._ring.append(event)
        self._spool_write(event)

    def record_event(self, event: dict, spool_only: dict | None = None) -> dict:
        """Record one pre-built event dict (the hot-path entry point).

        The caller owns the dict (it is mutated: ``seq`` is assigned, ``ts``
        defaulted); building the event outside lets hot call sites reuse a
        memoized template instead of re-deriving every field per request.
        """
        if "ts" not in event:
            event["ts"] = time.time()
        self._last_seq = event["seq"] = next(self._count)
        self._ring.append(event)
        if self._spool is not None:
            self._spool_write(event, spool_only)
        return event

    def _spool_write(self, event: dict, spool_only: dict | None = None) -> None:
        """Serialize one event (plus spool-only fields) to the JSONL spool."""
        payload = event if not spool_only else {**event, **spool_only}
        line = json.dumps(payload) + "\n"
        with self._spool_lock:
            if self._spool is not None:
                self._spool.write(line)
                self._spool.flush()
                self._spooled += 1

    # Typed helpers: one per event family, so call sites stay one-liners and
    # the schema lives in one place.
    def record_query(
        self,
        query: str,
        epsilons,
        outcome: str,
        s_name: str,
        t_name: str,
        ts: float | None = None,
        s_version: int | None = None,
        t_version: int | None = None,
        s_rows: int | None = None,
        t_rows: int | None = None,
        queue_seconds: float | None = None,
        exec_seconds: float | None = None,
        path: str | None = None,
        pairs: int | None = None,
        fingerprint: str | None = None,
        error: str | None = None,
        reason: str | None = None,
    ) -> dict:
        """Record one query request (completed, deduplicated, rejected or failed)."""
        fields = {
            "query": query,
            "epsilons": [list(pair) for pair in epsilons],
            "outcome": outcome,
            "s": s_name,
            "t": t_name,
        }
        optional = {
            "s_version": s_version,
            "t_version": t_version,
            "s_rows": s_rows,
            "t_rows": t_rows,
            "queue_seconds": queue_seconds,
            "exec_seconds": exec_seconds,
            "path": path,
            "pairs": pairs,
            "fingerprint": fingerprint,
            "error": error,
            "reason": reason,
        }
        fields.update({k: v for k, v in optional.items() if v is not None})
        return self.record("query", ts=ts, **fields)

    def record_register(self, name: str, rows: int, version: int,
                        columns: dict | None = None) -> dict:
        """Record one relation registration (columns spool-only)."""
        return self.record(
            "register",
            name=name,
            rows=rows,
            version=version,
            spool_only={"columns": columns} if columns is not None else None,
        )

    def record_append(self, name: str, rows: int, version: int, total_rows: int,
                      columns: dict | None = None) -> dict:
        """Record one delta append (the appended columns spool-only)."""
        return self.record(
            "append",
            name=name,
            rows=rows,
            version=version,
            total_rows=total_rows,
            spool_only={"columns": columns} if columns is not None else None,
        )

    def record_prepare(self, query: str, s_name: str, t_name: str, attributes,
                       epsilons, workers: int) -> dict:
        """Record one prepared-query creation."""
        return self.record(
            "prepare",
            query=query,
            s=s_name,
            t=t_name,
            attributes=list(attributes),
            epsilons=None if epsilons is None else [list(pair) for pair in epsilons],
            workers=int(workers),
        )

    def record_breach(self, slo: str, kind: str, value: float, threshold: float) -> dict:
        """Record one SLO breach event."""
        return self.record(
            "slo_breach", slo=slo, kind=kind, value=float(value), threshold=float(threshold)
        )

    # ------------------------------------------------------------------ #
    # Read path and lifecycle
    # ------------------------------------------------------------------ #
    @staticmethod
    def _materialize(entry) -> dict:
        """Expand a compact hot-path ring entry into a full event dict."""
        if type(entry) is not tuple:
            return entry
        template, ts, queue_seconds, exec_seconds, path, seq = entry
        return {
            **template,
            "ts": ts,
            "queue_seconds": queue_seconds,
            "exec_seconds": exec_seconds,
            "path": path,
            "seq": seq,
        }

    def events(self, type: str | None = None) -> list[dict]:
        """Return the ring's events oldest-first (optionally one type only)."""
        while True:
            try:
                entries = list(self._ring)
                break
            except RuntimeError:  # a writer appended mid-iteration; retry
                continue
        events = [self._materialize(entry) for entry in entries]
        if type is not None:
            events = [event for event in events if event["type"] == type]
        return events

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Return the total number of events recorded so far."""
        return self._last_seq

    @property
    def dropped(self) -> int:
        """Return the number of events evicted from the ring so far."""
        return max(0, self._last_seq - len(self._ring))

    def describe(self) -> dict:
        """Return a JSON-friendly summary of the recorder's state."""
        return {
            "events": len(self._ring),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "spool_path": self.spool_path,
            "spooled": self._spooled,
        }

    def close(self) -> None:
        """Flush and close the spool file (ring contents stay readable)."""
        with self._spool_lock:
            if self._spool is not None:
                self._spool.close()
                self._spool = None

    def __enter__(self) -> "QueryLogRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryLogRecorder(events={len(self)}, capacity={self.capacity}, "
            f"spool={self.spool_path!r})"
        )
