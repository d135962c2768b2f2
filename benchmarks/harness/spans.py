"""Harness-owned spans: the traced pass times calls into the program's public
functions from outside, so the program itself is not edited.

A span is a dict ``{id, name, start, end, parent, op_id}``.  Spans stay in
memory until :meth:`SpanRecorder.write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """Collects spans; ``span`` nests through a per-thread stack.

    A pool thread has no stack of its own, so spans opened there hang under
    ``adopt`` — the span that was open on the submitting thread.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = 0
        #: Switched off, ``span`` still runs its body but keeps nothing — the
        #: untraced half of a traced-against-untraced comparison.
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, adopt: bool = False):
        """Record one span around the body; ``adopt=True`` makes it the parent
        of spans opened on other threads while it is open."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else self._adopt,
            "op_id": self.op_id,
        }
        stack.append(record["id"])
        if adopt:
            self._adopt = record["id"]
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopt = None
            self.spans.append(record)

    def wrap(self, name: str, function):
        """Return ``function`` with a span of the given name around each call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, owner, attribute: str, name: str):
        """Replace ``owner.attribute`` with its traced form for the body.

        This is how a call the harness cannot make itself — one the program
        makes internally, like the sampler inside ``partition`` — still gets
        a span without touching the program's files.
        """
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def durations(self, *names: str, since: int = 0) -> dict[int, float]:
        """Return ``{op_id: summed duration}`` of the spans with these names,
        for ops numbered ``since`` or later."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span["name"] in names and span["op_id"] >= since:
                totals[span["op_id"]] = (
                    totals.get(span["op_id"], 0.0) + span["end"] - span["start"]
                )
        return totals

    def write(self, path) -> None:
        """Dump every span as JSON."""
        with open(path, "w") as out:
            json.dump(self.spans, out)
