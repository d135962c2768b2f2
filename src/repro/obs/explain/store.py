"""Live estimate-vs-actual accounting of executed queries.

:class:`EstimateAccuracyTracker` is fed by the scheduler: an answer carries
the sampled output estimate of its base join (``None`` when no base join
ran for it: delta and cache-served answers), and the tracker
compares each one carried with the answer's pair count in O(1).  It feeds
the ``repro_estimate_qerror`` histogram and keeps a bounded window for the
``estimate_qerror`` SLO probe.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.explain.report import qerror
from repro.obs.registry import DEFAULT_RATIO_BUCKETS

__all__ = ["EstimateAccuracyTracker"]


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

    def observe(self, query: str, estimate: float, n_pairs: int) -> None:
        """Account one answer of ``query``: the output estimate that decided
        it against its ``n_pairs``."""
        q = min(qerror(estimate, n_pairs), 1e9)  # keep the window mean finite
        with self._lock:
            self._recent.append(q)
            self._observed += 1
        if self._histogram is not None:
            self._histogram.observe(q, query=query)

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
        """Return the number of answers accounted so far."""
        with self._lock:
            return self._observed

    def describe(self) -> dict:
        return {
            "observed": self.observed,
            "mean_qerror": self.mean_qerror(),
            "window": self._recent.maxlen,
        }
