"""Live estimate-vs-actual accounting of executed queries.

:class:`EstimateAccuracyTracker` is fed by the scheduler: it receives every
*executed* completion (cache-served paths are skipped — their "estimate"
would be the cached exact answer), derives the output q-error, feeds the
``repro_estimate_qerror`` histogram and keeps a bounded window for the
``estimate_qerror`` SLO probe.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.explain.report import qerror
from repro.obs.registry import DEFAULT_RATIO_BUCKETS

__all__ = ["EstimateAccuracyTracker"]

#: Execution paths whose completions carry genuine (non-cache) estimates.
_EXECUTED_PATHS = frozenset({"cold", "plan_cache", "delta"})


class EstimateAccuracyTracker:
    """Live estimate-vs-actual accounting fed by the scheduler.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving the
        ``repro_estimate_qerror`` histogram (ratio buckets).
    window:
        Bound on the recent-q-error window behind :meth:`mean_qerror` (the
        ``estimate_qerror`` SLO probe).
    """

    def __init__(self, registry=None, window: int = 256) -> None:
        self._lock = threading.Lock()
        self._recent: deque[float] = deque(maxlen=window)
        self._observed = 0
        self._histogram = (
            registry.histogram(
                "repro_estimate_qerror",
                "output-cardinality estimate q-error of executed queries",
                buckets=DEFAULT_RATIO_BUCKETS,
            )
            if registry is not None
            else None
        )

    def observe(self, prepared, ekey: tuple, result) -> None:
        """Account one completed request (no-op for cache-served paths).

        Never raises: estimate accounting must not fail a query.
        """
        if not self.accounts(result):
            return
        try:
            self._observe(prepared, ekey, result)
        except Exception:  # noqa: BLE001 - accounting must never fail serving
            pass

    @staticmethod
    def accounts(result) -> bool:
        """Return whether :meth:`observe` accounts this completion (only
        executed paths carry an estimate to compare)."""
        return result.path in _EXECUTED_PATHS

    def _observe(self, prepared, ekey, result) -> None:
        # Estimated for the rows the answer covers: the relations may have
        # grown since it was handed back.
        estimate = prepared.sampled_estimate(ekey, answered=result)
        if estimate is None:  # registered again since: nothing to compare
            return
        q = qerror(estimate, result.n_pairs)
        with self._lock:
            self._recent.append(min(q, 1e9))  # keep the window mean finite
            self._observed += 1
        if self._histogram is not None:
            self._histogram.observe(min(q, 1e9), query=_query_name(prepared))

    def mean_qerror(self) -> float:
        """Return the mean q-error over the recent window (1.0 when empty).

        The empty default reads as "every estimate exact", so an
        ``estimate_qerror`` SLO stays green until there is evidence."""
        with self._lock:
            if not self._recent:
                return 1.0
            return sum(self._recent) / len(self._recent)

    @property
    def observed(self) -> int:
        """Return the number of executed completions accounted so far."""
        with self._lock:
            return self._observed

    def describe(self) -> dict:
        return {
            "observed": self.observed,
            "mean_qerror": self.mean_qerror(),
            "window": self._recent.maxlen,
        }


def _query_name(prepared) -> str:
    return getattr(prepared, "name", None) or (
        f"{getattr(prepared, 's_name', '?')}⋈{getattr(prepared, 't_name', '?')}"
    )
