"""Span-based tracing with explicit context propagation.

One query produces one **trace**: a tree of timed spans (parse →
plan-cache lookup → route → per-partition kernel → merge).  Spans created
in one thread nest automatically through a :mod:`contextvars` variable;
crossing an execution boundary is always *explicit*:

* **thread pools** — pass :meth:`Span.context` (a picklable
  :class:`SpanContext`) to the worker, which opens child spans with
  ``tracer.span(name, parent=ctx)``;
* **process pools** — workers cannot reach the driver's tracer, so they
  build plain span *records* (dicts, see :func:`span_record`) against the
  shipped context and return them with their results; the driver grafts
  them into the live trace with :meth:`Tracer.attach`.  Wall-clock start
  times (``time.time``) keep records comparable across processes.

Finished traces land in a bounded ring buffer (:meth:`Tracer.recent`) —
the live stats surface serves them as JSON trees, and
:func:`format_trace_tree` pretty-prints one for humans.

When telemetry is disabled (:mod:`repro.obs._state`) every entry point
returns a shared no-op span, so instrumented hot paths cost one boolean
check.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import NamedTuple

__all__ = [
    "SpanContext",
    "Span",
    "Tracer",
    "new_span_id",
    "span_record",
    "format_trace_tree",
    "NOOP_SPAN",
]

from repro.obs import _state

#: Default capacity of the finished-trace ring buffer.
DEFAULT_TRACE_BUFFER: int = 64

_IDS = itertools.count(1)


def new_span_id() -> str:
    """Return a span id unique within and across processes (pid-prefixed)."""
    return f"{os.getpid():x}-{next(_IDS):x}"


class SpanContext(NamedTuple):
    """Picklable handle to a live span, shipped across threads/processes."""

    trace_id: str
    span_id: str


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - defensive
            pass
    return str(value)


def span_record(
    name: str,
    parent: SpanContext | None,
    start: float,
    duration: float,
    span_id: str | None = None,
    **attrs,
) -> dict:
    """Build one plain span record (the cross-process exchange format)."""
    return {
        "name": name,
        "span_id": span_id if span_id is not None else new_span_id(),
        "parent_id": parent.span_id if parent is not None else None,
        "start": float(start),
        "duration": float(duration),
        "attrs": {k: _jsonable(v) for k, v in attrs.items()},
    }


class Trace:
    """Append-only span collection of one query (thread-safe)."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    def add(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)

    def to_dict(self) -> dict:
        """Return the trace as a JSON-friendly span tree.

        The root is the first span without a parent; spans whose parent is
        missing (e.g. grafted after their parent was pruned) attach to the
        root so nothing is silently dropped.
        """
        with self._lock:
            spans = [dict(span) for span in self._spans]
        nodes = {span["span_id"]: {**span, "children": []} for span in spans}
        root = None
        orphans = []
        for span in spans:
            node = nodes[span["span_id"]]
            parent = nodes.get(span["parent_id"]) if span["parent_id"] else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            elif span["parent_id"] is None and root is None:
                root = node
            else:
                orphans.append(node)
        if root is None and orphans:
            root = orphans.pop(0)
        if root is not None:
            root["children"].extend(orphans)
        for node in nodes.values():
            node["children"].sort(key=lambda child: child["start"])
        return {"trace_id": self.trace_id, "spans": len(spans), "root": root}


class _NoopSpan:
    """Shared do-nothing span returned when telemetry is disabled."""

    __slots__ = ()
    context = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

#: Current (trace, span_id) of this execution context; propagated
#: automatically within a thread, explicitly across threads/processes.
_CURRENT: ContextVar = ContextVar("repro_obs_current_span", default=None)


class Span:
    """One live, timed span.  Use as a context manager (nests children
    created in the same thread) or keep the object and call :meth:`end`."""

    __slots__ = ("_tracer", "trace", "name", "span_id", "parent_id", "attrs",
                 "start", "_t0", "_token", "_ended")

    def __init__(self, tracer: "Tracer", trace: Trace, name: str,
                 parent_id: str | None, attrs: dict) -> None:
        self._tracer = tracer
        self.trace = trace
        self.name = name
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = {k: _jsonable(v) for k, v in attrs.items()}
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._token = None
        self._ended = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace.trace_id, self.span_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update((k, _jsonable(v)) for k, v in attrs.items())
        return self

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        self.trace.add(
            {
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "duration": time.perf_counter() - self._t0,
                "attrs": dict(self.attrs),
            }
        )
        if self.parent_id is None:
            self._tracer._finish(self.trace)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set((self.trace, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc is not None:
            self.set(error=str(exc))
        self.end()
        return False


class Tracer:
    """Creates spans, tracks live traces, and keeps the recent-trace ring."""

    def __init__(self, max_traces: int = DEFAULT_TRACE_BUFFER) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be at least 1")
        self._lock = threading.Lock()
        self._live: dict[str, Trace] = {}
        self._finished: deque[Trace] = deque(maxlen=max_traces)

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def span(self, name: str, parent: SpanContext | None = None, **attrs):
        """Open a span (no-op when telemetry is disabled).

        ``parent=None`` nests under the current context's span, or starts a
        new trace when there is none; an explicit :class:`SpanContext`
        parents across threads/processes.
        """
        if not _state.enabled:
            return NOOP_SPAN
        if parent is not None:
            trace = self._resolve(parent.trace_id)
            parent_id = parent.span_id
        else:
            current = _CURRENT.get()
            if current is not None:
                trace, parent_id = current
            else:
                trace = Trace(new_span_id())
                parent_id = None
                with self._lock:
                    self._live[trace.trace_id] = trace
        return Span(self, trace, name, parent_id, attrs)

    def record(
        self,
        name: str,
        parent: SpanContext | None,
        start: float,
        duration: float,
        **attrs,
    ) -> None:
        """Add one already-timed span (explicit start wall-clock + duration)."""
        if not _state.enabled or parent is None:
            return
        trace = self._resolve(parent.trace_id)
        trace.add(span_record(name, parent, start, duration, **attrs))

    def attach(self, parent: SpanContext | None, records) -> None:
        """Graft plain span records (e.g. from process workers) into a trace.

        Records without a parent default to ``parent``; records keep their
        own ids so nested remote structures survive the graft.
        """
        if not _state.enabled or parent is None:
            return
        trace = self._resolve(parent.trace_id)
        for record in records:
            grafted = dict(record)
            if grafted.get("parent_id") is None:
                grafted["parent_id"] = parent.span_id
            trace.add(grafted)

    def current_context(self) -> SpanContext | None:
        """Return the current span's context, or ``None``."""
        current = _CURRENT.get()
        if current is None:
            return None
        trace, span_id = current
        return SpanContext(trace.trace_id, span_id)

    # ------------------------------------------------------------------ #
    # Trace bookkeeping
    # ------------------------------------------------------------------ #
    def _resolve(self, trace_id: str) -> Trace:
        with self._lock:
            trace = self._live.get(trace_id)
            if trace is not None:
                return trace
            for finished in self._finished:
                if finished.trace_id == trace_id:
                    return finished
            # Foreign or pruned trace id: adopt it so late spans still land.
            trace = Trace(trace_id)
            self._live[trace_id] = trace
            return trace

    def _finish(self, trace: Trace) -> None:
        with self._lock:
            self._live.pop(trace.trace_id, None)
            self._finished.append(trace)

    def recent(self, n: int | None = None) -> list[dict]:
        """Return the most recent finished traces as span trees, newest first."""
        with self._lock:
            traces = list(self._finished)
        traces.reverse()
        if n is not None:
            traces = traces[: max(0, int(n))]
        return [trace.to_dict() for trace in traces]

    def clear(self) -> None:
        """Drop every finished and live trace (tests)."""
        with self._lock:
            self._live.clear()
            self._finished.clear()


def format_trace_tree(trace: dict) -> str:
    """Pretty-print one trace dict (as returned by :meth:`Tracer.recent`)."""
    from repro.obs.render import format_attrs, render_tree

    root = trace.get("root")
    if root is None:
        return f"trace {trace.get('trace_id')}: <empty>"
    root_duration = float(root.get("duration") or 0.0)

    def span_label(node: dict, depth: int) -> str:
        share = (
            f" ({node['duration'] / root_duration * 100.0:.1f}%)"
            if root_duration > 0 and depth > 0
            else ""
        )
        return (
            f"{node['name']} {node['duration'] * 1e3:.3f} ms{share}"
            + format_attrs(node.get("attrs"))
        )

    lines = [f"trace {trace.get('trace_id')} ({trace.get('spans')} spans)"]
    render_tree(root, span_label, lines=lines)
    return "\n".join(lines)
