"""Declarative service-level objectives evaluated against live metrics.

An :class:`SLO` names one objective over one measurable signal — currently
the p99 total latency, the failed-request fraction, the result-cache hit
rate, the scheduler queue depth and the recent output-estimate q-error
(sustained mis-estimation is a health problem like any other).
:class:`SLOMonitor` evaluates a set of objectives against *probes*
(zero-argument callables the owning service supplies, so the monitor never
reaches into service internals), either on a background cadence or on
demand, and turns violations into structured breach events: a bounded
history, a ``repro_slo_breaches_total`` counter in the service registry, a
warning log line, and — when a workload recorder is attached — an
``slo_breach`` capture event so breaches land in workload snapshots next to
the traffic that caused them.

:meth:`SLOMonitor.health` is the serving surface behind ``{"op": "health"}``
and ``repro-bandjoin stats --health``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.logconf import get_logger

__all__ = ["SLO", "SLOMonitor", "service_probes"]

logger = get_logger(__name__)

#: Supported objective kinds and the direction of their threshold:
#: ``max`` kinds breach when the value exceeds the threshold, ``min`` kinds
#: when it falls below.
SLO_KINDS: dict[str, str] = {
    "p99_latency_seconds": "max",
    "error_rate": "max",
    "cache_hit_rate": "min",
    "queue_depth": "max",
    "estimate_qerror": "max",
}


@dataclass(frozen=True)
class SLO:
    """One declarative objective: a named threshold over a measurable kind."""

    name: str
    kind: str
    threshold: float

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; supported: {sorted(SLO_KINDS)}"
            )

    def ok(self, value: float) -> bool:
        """Return whether ``value`` satisfies the objective."""
        if SLO_KINDS[self.kind] == "max":
            return value <= self.threshold
        return value >= self.threshold


def service_probes(service) -> dict:
    """Return the standard probe set over a :class:`BandJoinService`.

    Each probe is evaluated at monitoring time; none of them write anything,
    so evaluation is safe on any cadence.
    """

    def error_rate() -> float:
        counts = service.scheduler.metrics.snapshot()
        finished = counts["completed"] + counts["failed"]
        return counts["failed"] / finished if finished else 0.0

    def cache_hit_rate() -> float:
        hits = misses = 0
        for prepared in service.prepared_queries().values():
            hits += prepared.result_cache_stats.hits
            misses += prepared.result_cache_stats.misses
        return hits / (hits + misses) if hits + misses else 1.0

    return {
        "p99_latency_seconds": lambda: service.scheduler.metrics.latency_percentiles()["p99"],
        "error_rate": error_rate,
        "cache_hit_rate": cache_hit_rate,
        "queue_depth": lambda: float(service.scheduler.pending),
        "estimate_qerror": lambda: service.calibration.mean_qerror(),
    }


class SLOMonitor:
    """Evaluates SLOs against live probes and emits structured breach events.

    Parameters
    ----------
    objectives:
        The :class:`SLO` set to evaluate (may be empty: ``health`` then
        reports healthy with no objectives).
    probes:
        Mapping of SLO kind to a zero-argument measurement callable; every
        objective's kind must have a probe.
    interval:
        Background evaluation cadence in seconds; ``0`` disables the
        background thread (evaluation then happens per ``health()`` call).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving the
        ``repro_slo_breaches_total`` / ``repro_slo_evaluations_total``
        counters.
    recorder:
        Optional :class:`~repro.obs.workload.recorder.QueryLogRecorder`;
        breaches are recorded as capture events when present.
    history:
        Bounded number of recent breach events kept for ``health()``.
    """

    def __init__(
        self,
        objectives=(),
        probes: dict | None = None,
        interval: float = 0.0,
        registry=None,
        recorder=None,
        history: int = 256,
    ) -> None:
        self.objectives = tuple(objectives)
        self.probes = dict(probes or {})
        for objective in self.objectives:
            if objective.kind not in self.probes:
                raise ValueError(f"no probe for SLO kind {objective.kind!r}")
        self.interval = float(interval)
        self.recorder = recorder
        self._lock = threading.Lock()
        self._breaches: list[dict] = []
        self._history = history
        self._breach_total = 0
        self._evaluations = 0
        self._breach_counter = (
            registry.counter("repro_slo_breaches_total", "SLO breaches per objective")
            if registry is not None
            else None
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self) -> list[dict]:
        """Evaluate every objective now; returns one status dict each."""
        statuses = []
        now = time.time()
        for objective in self.objectives:
            value = float(self.probes[objective.kind]())
            ok = objective.ok(value)
            status = {
                "slo": objective.name,
                "kind": objective.kind,
                "value": value,
                "threshold": objective.threshold,
                "ok": ok,
            }
            statuses.append(status)
            if not ok:
                self._breach(objective, value, now)
        with self._lock:
            self._evaluations += 1
        return statuses

    def _breach(self, objective: SLO, value: float, now: float) -> None:
        event = {
            "ts": now,
            "slo": objective.name,
            "kind": objective.kind,
            "value": value,
            "threshold": objective.threshold,
        }
        with self._lock:
            self._breach_total += 1
            self._breaches.append(event)
            if len(self._breaches) > self._history:
                del self._breaches[: len(self._breaches) - self._history]
        if self._breach_counter is not None:
            self._breach_counter.inc(slo=objective.name, kind=objective.kind)
        if self.recorder is not None:
            self.recorder.record_breach(
                objective.name, objective.kind, value, objective.threshold
            )
        logger.warning(
            "SLO breach: %s (%s) value %.6g violates threshold %.6g",
            objective.name, objective.kind, value, objective.threshold,
        )

    def health(self) -> dict:
        """Evaluate now and return the structured health report."""
        statuses = self.evaluate()
        with self._lock:
            breaches_total = self._breach_total
            recent = list(self._breaches[-10:])
            evaluations = self._evaluations
        return {
            "healthy": all(status["ok"] for status in statuses),
            "objectives": statuses,
            "breaches_total": breaches_total,
            "recent_breaches": recent,
            "evaluations": evaluations,
            "monitoring": self._thread is not None and self._thread.is_alive(),
        }

    @property
    def breaches_total(self) -> int:
        """Return the number of breaches observed since construction."""
        with self._lock:
            return self._breach_total

    # ------------------------------------------------------------------ #
    # Background cadence
    # ------------------------------------------------------------------ #
    def start(self) -> bool:
        """Start the background evaluation thread (no-op without objectives
        or with a zero interval); returns whether monitoring runs."""
        if not self.objectives or self.interval <= 0:
            return False
        if self._thread is not None and self._thread.is_alive():
            return True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="bandjoin-slo-monitor", daemon=True
        )
        self._thread.start()
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.evaluate()
            except Exception:  # noqa: BLE001 - monitoring must never kill serving
                logger.exception("SLO evaluation failed")

    def stop(self) -> None:
        """Stop the background thread (if running) and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __repr__(self) -> str:
        return (
            f"SLOMonitor(objectives={[o.name for o in self.objectives]}, "
            f"interval={self.interval}, breaches={self.breaches_total})"
        )
