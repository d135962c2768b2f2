"""Thread-safe metrics registry: counters, gauges and labeled histograms.

One :class:`MetricsRegistry` holds every metric of one scope (the service
creates a per-instance registry; the kernel layer publishes into the global
one from :mod:`repro.obs.globals`).  All metrics support labels — a metric
name maps to one value *per label set* — and every mutation is guarded by a
per-metric lock, so concurrently served queries, backend threads and the
scrape path never race.

Histograms use **fixed log-scale buckets** (:func:`log_buckets`): observation
is one binary search plus three adds, quantiles are estimated by linear
interpolation inside the target bucket, and two histograms with the same
bucket bounds aggregate by summing counts.

:func:`percentile` is the shared exact-quantile helper over raw sample
windows; it preserves the nearest-rank semantics the scheduler historically
used so latency reports stay comparable across versions.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

__all__ = [
    "percentile",
    "log_buckets",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def percentile(values, q: float) -> float:
    """Return the ``q``-th percentile of ``values`` (nearest rank).

    Matches the scheduler's historical ``_percentile``: the empty input
    answers 0.0 and the rank is ``round(q/100 * (n-1))``, clamped.
    """
    values = list(values)
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return float(ordered[index])


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Return log-spaced bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per factor of ten, snapped to powers of
    ``10**(1/per_decade)`` so histograms built from the same spec always
    align (and therefore aggregate by summing counts).
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("log_buckets needs 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    start = math.floor(round(math.log10(lo) * per_decade, 9))
    end = math.ceil(round(math.log10(hi) * per_decade, 9))
    return tuple(float(f"{10 ** (k / per_decade):.6g}") for k in range(start, end + 1))


#: Default latency buckets: 10 microseconds to 100 seconds, 3 per decade.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = log_buckets(1e-5, 100.0, per_decade=3)

#: Default buckets for dimensionless ratios (expansion factors, utilization).
DEFAULT_RATIO_BUCKETS: tuple[float, ...] = log_buckets(1e-3, 1e3, per_decade=2)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_labels(key: tuple, extra: tuple = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    parts = []
    for name, value in items:
        text = str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{name}="{text}"')
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Common state of one named metric: per-labelset values plus a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict = {}


class Counter(_Metric):
    """Monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def items(self) -> list[tuple[dict, float]]:
        with self._lock:
            return [(dict(key), value) for key, value in self._values.items()]

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [{"labels": labels, "value": v} for labels, v in self.items()],
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        with self._lock:
            for key, value in self._values.items():
                lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Gauge(_Metric):
    """Point-in-time value: set directly or observed through a callback.

    ``set_function`` registers a zero-argument callable evaluated at scrape
    time — the adapter pattern that absorbs pre-existing stats objects
    (plan-cache counters, result-cache accounting) without any hot-path
    writes.
    """

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            current = self._values.get(key, 0.0)
            self._values[key] = (current if not callable(current) else 0.0) + amount

    def set_function(self, fn, **labels) -> None:
        """Evaluate ``fn()`` at scrape time for this label set."""
        with self._lock:
            self._values[_label_key(labels)] = fn

    def value(self, **labels) -> float:
        with self._lock:
            raw = self._values.get(_label_key(labels), 0.0)
        return float(raw()) if callable(raw) else float(raw)

    def items(self) -> list[tuple[dict, float]]:
        with self._lock:
            pairs = list(self._values.items())
        return [
            (dict(key), float(raw()) if callable(raw) else float(raw))
            for key, raw in pairs
        ]

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [{"labels": labels, "value": v} for labels, v in self.items()],
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        for labels, value in self.items():
            lines.append(f"{self.name}{_render_labels(_label_key(labels))} {value:g}")
        return lines


class Histogram(_Metric):
    """Fixed-bucket histogram with per-labelset counts, sum and count.

    Bucket bounds are upper bounds (``value <= bound``); one implicit
    overflow bucket catches everything beyond the last bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in bounds)

    def _series(self, key: tuple) -> list:
        series = self._values.get(key)
        if series is None:
            # [per-bucket counts (+1 overflow), sum, count]
            series = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._values[key] = series
        return series

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        key = _label_key(labels)
        with self._lock:
            series = self._series(key)
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels) -> int:
        with self._lock:
            series = self._values.get(_label_key(labels))
            return int(series[2]) if series else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._values.get(_label_key(labels))
            return float(series[1]) if series else 0.0

    def quantile(self, q: float, **labels) -> float:
        """Estimate the ``q``-th percentile by interpolating in the target bucket.

        Values past the last bound answer the last finite bound (the estimate
        is a lower bound there).  Empty series answer 0.0.
        """
        with self._lock:
            series = self._values.get(_label_key(labels))
            if series is None or series[2] == 0:
                return 0.0
            counts = list(series[0])
            total = series[2]
        rank = q / 100.0 * total
        cumulative = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                hi = self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
                lo = self.buckets[i - 1] if 0 < i <= len(self.buckets) else 0.0
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += n
        return self.buckets[-1]

    def items(self) -> list[tuple[dict, dict]]:
        with self._lock:
            pairs = [
                (dict(key), {"counts": list(s[0]), "sum": float(s[1]), "count": int(s[2])})
                for key, s in self._values.items()
            ]
        return pairs

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": [{"labels": labels, **series} for labels, series in self.items()],
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        for labels, series in self.items():
            key = _label_key(labels)
            cumulative = 0
            for bound, n in zip(self.buckets, series["counts"]):
                cumulative += n
                lines.append(
                    f"{self.name}_bucket{_render_labels(key, (('le', f'{bound:g}'),))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{self.name}_bucket{_render_labels(key, (('le', '+Inf'),))} "
                f"{series['count']}"
            )
            lines.append(f"{self.name}_sum{_render_labels(key)} {series['sum']:g}")
            lines.append(f"{self.name}_count{_render_labels(key)} {series['count']}")
        return lines


class MetricsRegistry:
    """Named collection of metrics with get-or-create registration.

    Registering the same name twice returns the existing metric (so modules
    can idempotently declare what they publish); re-registering under a
    different kind or bucket layout is an error — silent aliasing would
    corrupt both series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and tuple(buckets) != existing.buckets:
                    raise ValueError(f"metric {name!r} re-registered with other buckets")
                return existing
            metric = cls(name, help, **kwargs) if kwargs else cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Return a JSON-friendly dump of every metric (callbacks evaluated)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def render_prometheus(self) -> str:
        """Return the Prometheus text exposition of every metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        lines: list[str] = []
        for _, metric in sorted(metrics):
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
