"""Thread-local request deadlines propagated into execution backends.

The scheduler wraps each dispatch in :func:`deadline_scope`; anything on
that thread's call path (backends waiting on pool futures, long loops) can
ask :func:`remaining` how much time is left or :func:`check` to fail fast
with :class:`~repro.exceptions.DeadlineExceededError`.  Deadlines are
*monotonic* timestamps (``time.monotonic()``), so wall-clock jumps never
expire a request spuriously.

A scope is per-thread by design: worker threads of a pool backend do not
see the driver's deadline — the driver bounds its *waits* on their futures
instead, which is what actually frees the query's scheduler slot.  Nested scopes
take the tighter deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.exceptions import DeadlineExceededError

__all__ = ["check", "current_deadline", "deadline_scope", "remaining"]

_state = threading.local()


@contextmanager
def deadline_scope(deadline_at: float | None):
    """Bind a monotonic deadline to the current thread for the duration.

    ``None`` binds nothing (the existing scope, if any, stays in force);
    a nested scope tightens but never loosens the effective deadline.
    """
    if deadline_at is None:
        yield
        return
    previous = getattr(_state, "deadline_at", None)
    _state.deadline_at = (
        deadline_at if previous is None else min(previous, deadline_at)
    )
    try:
        yield
    finally:
        _state.deadline_at = previous


def current_deadline() -> float | None:
    """Return the active monotonic deadline of this thread, if any."""
    return getattr(_state, "deadline_at", None)


def remaining() -> float | None:
    """Return seconds until this thread's deadline (``None`` = unbounded).

    Never negative: an expired deadline reports ``0.0`` so callers can pass
    the value straight into a timed wait (which then times out immediately).
    """
    deadline_at = current_deadline()
    if deadline_at is None:
        return None
    return max(0.0, deadline_at - time.monotonic())


def check(what: str = "execution") -> None:
    """Raise :class:`DeadlineExceededError` when this thread's deadline passed."""
    deadline_at = current_deadline()
    if deadline_at is not None and time.monotonic() >= deadline_at:
        raise DeadlineExceededError(f"deadline exceeded during {what}")
