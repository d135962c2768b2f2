"""Process-wide default registry and tracer.

Deep layers (the local-join kernels, the execution backends) publish here
because they cannot know which service instance — if any — owns them; the
service layer additionally keeps a per-instance registry for its own
adapters and renders both on the exposition surface.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


def registry() -> MetricsRegistry:
    """Return the process-wide default metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """Return the process-wide default tracer."""
    return _TRACER
