"""Line-oriented request/response front end for :class:`BandJoinService`.

One JSON object per line in, one JSON object per line out — a protocol thin
enough to drive from a shell pipe, ``nc``, or any language with a socket and
a JSON parser.  Two transports share the same handler:

* **stdio** (``repro-bandjoin serve``) — read requests from stdin, write
  responses to stdout; ends on EOF or ``{"op": "quit"}``.
* **TCP** (``repro-bandjoin serve --port 7077``) — a threading socket
  server; every client connection speaks the same line protocol, and all
  clients share one service (so they share caches and the scheduler).

Operations::

    {"op": "register", "name": "S", "columns": {"A1": [...]}, "replace": false}
    {"op": "append",   "name": "S", "columns": {"A1": [...]}}
    {"op": "prepare",  "query": "q", "s": "S", "t": "T",
     "attributes": ["A1"], "epsilons": [0.01], "replace": false}
    {"op": "query",    "query": "q", "epsilons": [0.02], "sample": 5}
    {"op": "catalog"} | {"op": "stats"} | {"op": "ping"} | {"op": "quit"}
    {"op": "metrics"}           — Prometheus text exposition (one string)
    {"op": "trace", "n": 3}     — recent query traces as JSON span trees
    {"op": "health"}            — SLO evaluation (healthy flag + breaches)
    {"op": "workload"}          — Workload snapshot of the captured traffic
    {"op": "explain", "query": "q", "epsilons": [0.02], "analyze": true}
                                — EXPLAIN (ANALYZE) plan report as JSON

``replace`` and ``analyze`` take a JSON boolean only; an absent flag is
``false``.  ``sample`` (the answer pairs a query echoes back, default 0) is
an integer in ``0..MAX_SAMPLE``.  Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``; the connection survives malformed
requests, and a request that fails with anything but a library error
answers ``{"ok": false, ..., "cause": "internal"}`` instead of ending the
server.  Query requests are traced end to end: the server opens a
``request`` root span (with a ``parse`` child covering JSON decoding), so
``{"op": "trace"}`` returns the full parse → queue → execute →
estimate/local_join/kernel tree of recent queries.
"""

from __future__ import annotations

import json
import time

import socketserver

from repro.exceptions import ReproError, ServiceError
from repro.obs import get_logger, tracer
from repro.service.service import BandJoinService

__all__ = ["handle_request", "serve_lines", "LineProtocolServer"]

logger = get_logger(__name__)


#: Most answer pairs a ``query`` response echoes back (its ``"sample"``).
MAX_SAMPLE: int = 1000

_TYPE_NAMES = {str: "a string", int: "an integer", (int, float): "a number"}


def _check(field: str, value, kind):
    """Return ``value`` if it has the JSON type ``kind`` (``None`` passes:
    the field is absent), else raise a client error naming the field."""
    if value is None or (isinstance(value, kind) and not isinstance(value, bool)):
        return value
    raise ServiceError(f"field {field!r} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _require(request: dict, field: str, kind=None):
    try:
        value = request[field]
    except KeyError:
        raise ServiceError(f"request is missing the {field!r} field") from None
    return value if kind is None else _check(field, value, kind)


def _optional(request: dict, field: str, kind):
    return _check(field, request.get(field), kind)


def _flag(request: dict, field: str) -> bool:
    """Return a JSON boolean field; absent means ``False``."""
    value = request.get(field, False)
    if isinstance(value, bool):
        return value
    raise ServiceError(f"field {field!r} must be a boolean, got {value!r}")


def _attributes(request: dict) -> list:
    attributes = _require(request, "attributes")
    if not isinstance(attributes, list) or not all(isinstance(a, str) for a in attributes):
        raise ServiceError(f"field 'attributes' must be a list of strings, got {attributes!r}")
    return attributes


def handle_request(service: BandJoinService, request: dict) -> dict:
    """Execute one decoded request against the service and return the response."""
    op = _require(request, "op")
    if op == "ping":
        return {"ok": True, "op": "pong"}
    if op == "register":
        snapshot = service.register(
            _require(request, "name", str),
            _require(request, "columns"),
            replace=_flag(request, "replace"),
        )
        return {"ok": True, "relation": snapshot.describe()}
    if op == "append":
        snapshot = service.append(_require(request, "name", str), _require(request, "columns"))
        return {"ok": True, "relation": snapshot.describe()}
    if op == "prepare":
        prepared = service.prepare(
            _require(request, "query", str),
            _require(request, "s", str),
            _require(request, "t", str),
            attributes=_attributes(request),
            epsilons=request.get("epsilons"),
            workers=_optional(request, "workers", int),
            replace=_flag(request, "replace"),
        )
        return {"ok": True, "prepared": prepared.describe()}
    if op == "query":
        sample = _optional(request, "sample", int) or 0
        if not 0 <= sample <= MAX_SAMPLE:
            raise ServiceError(
                f"field 'sample' must be between 0 and {MAX_SAMPLE}, got {sample}"
            )
        # Epsilon lists (including [left, right] pairs) pass through as-is;
        # PreparedQuery normalization accepts sequences directly.
        result = service.query(
            _require(request, "query", str),
            request.get("epsilons"),
            deadline=_optional(request, "deadline", (int, float)),
        )
        return {"ok": True, **result.describe(sample=sample)}
    if op == "catalog":
        return {"ok": True, "catalog": service.catalog.describe()}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    if op == "metrics":
        return {"ok": True, "metrics": service.prometheus()}
    if op == "trace":
        return {"ok": True, "traces": service.traces(_optional(request, "n", int))}
    if op == "health":
        return {"ok": True, "health": service.health()}
    if op == "workload":
        return {"ok": True, "workload": service.workload_snapshot().to_dict()}
    if op == "explain":
        report = service.explain(
            _require(request, "query", str),
            request.get("epsilons"),
            analyze=_flag(request, "analyze"),
        )
        return {"ok": True, "explain": report.to_dict()}
    raise ServiceError(f"unknown operation {op!r}")


def _handle_line(service: BandJoinService, line: str) -> tuple[dict | None, bool]:
    """Return ``(response, keep_going)`` for one protocol line."""
    line = line.strip()
    if not line:
        return None, True
    parse_wall = time.time()
    parse_start = time.perf_counter()
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": f"invalid JSON: {exc}"}, True
    parse_seconds = time.perf_counter() - parse_start
    if not isinstance(request, dict):
        return {"ok": False, "error": "request must be a JSON object"}, True
    if request.get("op") == "quit":
        return {"ok": True, "op": "quit"}, False
    # Only queries get a request-level root span: tracing every ping or
    # stats scrape would wash the useful traces out of the bounded ring.
    span = (
        tracer().span("request", op="query", query=request.get("query"))
        if request.get("op") == "query"
        else None
    )
    try:
        if span is not None:
            with span:
                tracer().record(
                    "parse", span.context, start=parse_wall, duration=parse_seconds
                )
                return handle_request(service, request), True
        return handle_request(service, request), True
    except ReproError as exc:
        return {"ok": False, "error": str(exc)}, True
    except Exception as exc:  # noqa: BLE001 - a request must never end the server
        logger.exception("request %r failed", request.get("op"))
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "cause": "internal",
        }, True


def serve_lines(service: BandJoinService, lines, out) -> int:
    """Serve the line protocol over any line iterable / writable pair.

    Returns the number of responses written.  Used both by the stdio mode
    of ``repro-bandjoin serve`` and by the tests (with StringIO streams).
    """
    responses = 0
    for line in lines:
        response, keep_going = _handle_line(service, line)
        if response is not None:
            out.write(json.dumps(response) + "\n")
            out.flush()
            responses += 1
        if not keep_going:
            break
    return responses


class LineProtocolServer(socketserver.ThreadingTCPServer):
    """TCP transport of the line protocol; all clients share one service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: BandJoinService) -> None:
        self.service = service
        super().__init__(address, _LineProtocolHandler)


class _LineProtocolHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service = self.server.service
        for raw in self.rfile:
            response, keep_going = _handle_line(service, raw.decode("utf-8", "replace"))
            if response is not None:
                self.wfile.write((json.dumps(response) + "\n").encode())
            if not keep_going:
                break
