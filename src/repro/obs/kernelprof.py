"""Kernel profiling hooks for the vectorized local-join kernels.

The kernels accumulate plain-int counters into a profile dict while they
run — chunk counts, expanded candidate totals, the largest single chunk —
and publish once per invocation.  When telemetry is disabled
:func:`kernel_profile_start` returns ``None`` and the kernels skip every
accumulation behind one ``is not None`` check, so the disabled overhead is
a single branch per chunk.

Published metrics (process-wide registry, ``kind`` ∈ {``join``, ``count``}):

``repro_kernel_invocations_total{kind}``
    Kernel invocations.
``repro_kernel_chunks_total{kind}`` / ``repro_kernel_candidates_total{kind}``
    Candidate chunks emitted and candidate pairs expanded.
``repro_kernel_pairs_total{kind}``
    Pairs surviving the residual masks (the actual output).
``repro_kernel_expansion_factor{kind}``
    Histogram of candidates per output pair (1.0 = perfectly selective
    windows; large values mean the residual mask discarded most candidates).
``repro_kernel_budget_utilization{kind}``
    Histogram of the largest chunk relative to the candidate-pair budget.
``repro_kernel_seconds{kind}``
    Histogram of kernel invocation wall time.
"""

from __future__ import annotations

import time

from repro.obs import _state
from repro.obs.globals import registry, tracer
from repro.obs.registry import DEFAULT_RATIO_BUCKETS, log_buckets

__all__ = ["kernel_profile_start", "publish_kernel_profile"]

#: Utilization lives in (0, ~1]; finer log buckets near 1.
_UTILIZATION_BUCKETS = log_buckets(1e-3, 1.0, per_decade=4)


def kernel_profile_start() -> dict | None:
    """Return a fresh profile accumulator, or ``None`` when telemetry is off."""
    if not _state.enabled:
        return None
    return {"chunks": 0, "candidates": 0, "pairs": 0, "max_chunk": 0}


def publish_kernel_profile(
    profile: dict,
    kind: str,
    dims: int,
    budget: int,
    seconds: float,
    start: float | None = None,
) -> None:
    """Publish one finished kernel profile to the process-wide registry."""
    reg = registry()
    reg.counter(
        "repro_kernel_invocations_total", "local-join kernel invocations"
    ).inc(kind=kind)
    reg.counter(
        "repro_kernel_chunks_total", "candidate chunks emitted by the kernels"
    ).inc(profile["chunks"], kind=kind)
    reg.counter(
        "repro_kernel_candidates_total", "candidate pairs expanded by the kernels"
    ).inc(profile["candidates"], kind=kind)
    reg.counter(
        "repro_kernel_pairs_total", "pairs surviving the residual masks"
    ).inc(profile["pairs"], kind=kind)
    if profile["pairs"] or profile["candidates"]:
        reg.histogram(
            "repro_kernel_expansion_factor",
            "expanded candidates per output pair",
            buckets=DEFAULT_RATIO_BUCKETS,
        ).observe(profile["candidates"] / max(1, profile["pairs"]), kind=kind)
    if budget > 0 and profile["max_chunk"]:
        reg.histogram(
            "repro_kernel_budget_utilization",
            "largest chunk relative to the candidate budget",
            buckets=_UTILIZATION_BUCKETS,
        ).observe(min(1.0, profile["max_chunk"] / budget), kind=kind)
    reg.histogram(
        "repro_kernel_seconds", "kernel invocation wall time"
    ).observe(seconds, kind=kind)
    # Fold the profile into the enclosing span when one is active (serial
    # backend and in-process callers; pool workers ship task spans instead).
    ctx = tracer().current_context()
    if ctx is not None:
        tracer().record(
            "kernel",
            ctx,
            start=start if start is not None else time.time() - seconds,
            duration=seconds,
            kind=kind,
            dims=dims,
            **{k: v for k, v in profile.items()},
        )
