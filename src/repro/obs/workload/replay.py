"""Deterministic capture/replay: turn a spooled traffic log into a test.

:func:`replay_log` reads a JSONL capture (written by a
:class:`~repro.obs.workload.recorder.QueryLogRecorder` with a spool path),
reconstructs the catalog state — every ``register`` and ``append`` event
carries its column data — and re-issues the captured request stream in
arrival order against a fresh :class:`~repro.service.service.BandJoinService`
(optionally a differently configured one: another backend, another
scheduler width).  Every completed query event carries the
order-independent result fingerprint taken at capture time; the replay
recomputes it and reports mismatches, so a passing replay proves the new
configuration answers the *exact same pair sets* the capture saw — every
captured workload doubles as a deterministic integration test and a
benchmark input.

``speed`` re-creates the capture's arrival timing: ``None``/``0`` replays
as fast as the service answers, ``1.0`` paces requests at the original
wall-clock gaps, ``2.0`` twice as fast, and so on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.exceptions import ServiceError, ServiceOverloadError
from repro.obs.logconf import get_logger
from repro.obs.workload.recorder import pair_fingerprint

__all__ = ["ReplayMismatch", "ReplayReport", "load_events", "replay_events", "replay_log"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class ReplayMismatch:
    """One replayed query whose result diverged from the capture."""

    seq: int
    query: str
    expected_pairs: int
    replayed_pairs: int
    expected_fingerprint: str
    replayed_fingerprint: str


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    events: int = 0
    registered: int = 0
    appended: int = 0
    prepared: int = 0
    queries: int = 0
    verified: int = 0
    skipped: int = 0
    rejected: int = 0
    degraded: int = 0
    mismatches: list[ReplayMismatch] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Firing statistics of the installed fault injector, when the replay
    #: ran under chaos (``repro-bandjoin replay --inject-fault ...``).
    fault_stats: dict | None = None

    @property
    def ok(self) -> bool:
        """Return whether every verifiable query matched its capture."""
        return not self.mismatches

    def describe(self) -> str:
        lines = [
            f"replayed {self.events} events in {self.wall_seconds:.2f}s: "
            f"{self.registered} register, {self.appended} append, "
            f"{self.prepared} prepare, {self.queries} queries "
            f"({self.verified} fingerprint-verified, {self.skipped} skipped, "
            f"{self.rejected} rejected, {self.degraded} stale-degraded)",
        ]
        if self.fault_stats is not None:
            lines.append(f"fault injection: {self.fault_stats}")
        if self.mismatches:
            lines.append(f"FINGERPRINT MISMATCHES: {len(self.mismatches)}")
            for mismatch in self.mismatches[:10]:
                lines.append(
                    f"  seq {mismatch.seq} {mismatch.query}: expected "
                    f"{mismatch.expected_pairs} pairs ({mismatch.expected_fingerprint}), "
                    f"got {mismatch.replayed_pairs} ({mismatch.replayed_fingerprint})"
                )
        else:
            lines.append("all replayed results match the captured fingerprints")
        return "\n".join(lines)


def load_events(path) -> list[dict]:
    """Load a JSONL capture log, ordered by capture sequence number."""
    events = []
    with open(path, encoding="utf-8") as spool:
        for lineno, line in enumerate(spool, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ServiceError(f"{path}:{lineno}: invalid capture line: {exc}") from None
    events.sort(key=lambda event: event.get("seq", 0))
    return events


def _columns(event: dict) -> dict:
    columns = event.get("columns")
    if columns is None:
        raise ServiceError(
            f"capture event seq={event.get('seq')} ({event['type']} "
            f"{event.get('name')!r}) has no column data; replay needs a capture "
            "written with a spool log (ServiceConfig.capture_log / serve --capture)"
        )
    return {name: np.asarray(values) for name, values in columns.items()}


def replay_events(events, service, speed: float | None = None) -> ReplayReport:
    """Re-issue captured events against ``service`` and verify fingerprints.

    The service should be fresh (empty catalog); pass ``speed`` to pace the
    stream at (a multiple of) the captured arrival times.  Requests the
    capture saw rejected or failed are skipped — they carry no result to
    verify — and deduplicated arrivals are re-issued but only verified when
    they carry a fingerprint.
    """
    report = ReplayReport()
    start = time.perf_counter()
    first_ts: float | None = None
    for event in events:
        report.events += 1
        if speed and first_ts is None and "ts" in event:
            first_ts = event["ts"]
        if speed and first_ts is not None:
            offset = (event["ts"] - first_ts) / speed
            lag = offset - (time.perf_counter() - start)
            if lag > 0:
                time.sleep(lag)
        kind = event["type"]
        if kind == "register":
            service.register(event["name"], _columns(event), replace=True)
            report.registered += 1
        elif kind == "append":
            service.append(event["name"], _columns(event))
            report.appended += 1
        elif kind == "prepare":
            service.prepare(
                event["query"],
                event["s"],
                event["t"],
                attributes=event["attributes"],
                epsilons=event.get("epsilons"),
                workers=event.get("workers"),
                replace=True,
            )
            report.prepared += 1
        elif kind == "query":
            outcome = event.get("outcome", "ok")
            if outcome in ("rejected", "failed"):
                report.skipped += 1
                continue
            report.queries += 1
            try:
                result = service.query(event["query"], event.get("epsilons"))
            except ServiceOverloadError:
                # The replay target may be narrower than the capture source
                # (admission limits); an overload is a skipped verification,
                # not a determinism failure.
                report.rejected += 1
                continue
            if getattr(result, "stale", False):
                # A degraded (version-stale) answer is honest about being
                # stale, so it must never be held against the fingerprint
                # of the fresh captured result.
                report.degraded += 1
                continue
            expected = event.get("fingerprint")
            if expected is None:
                report.skipped += 1
                continue
            # Rehash the pairs rather than read ``result.fingerprint()``: the
            # served hash is a chained sum, and replay must check it afresh.
            replayed = pair_fingerprint(result.pairs)
            report.verified += 1
            if replayed != expected:
                report.mismatches.append(
                    ReplayMismatch(
                        seq=event.get("seq", 0),
                        query=event["query"],
                        expected_pairs=int(event.get("pairs", -1)),
                        replayed_pairs=result.n_pairs,
                        expected_fingerprint=expected,
                        replayed_fingerprint=replayed,
                    )
                )
        # Unknown event types (slo_breach, future additions) replay as no-ops.
    report.wall_seconds = time.perf_counter() - start
    injector = faults.active()
    if injector is not None:
        report.fault_stats = injector.stats()
    if report.mismatches:
        logger.warning(
            "replay diverged: %d of %d verified queries mismatched",
            len(report.mismatches), report.verified,
        )
    return report


def replay_log(path, service=None, config=None, speed: float | None = None) -> ReplayReport:
    """Replay a spooled capture log; builds a fresh service when none given.

    The internally built service disables its own capture (a replay should
    not re-record itself) and uses synchronous compaction so replays are
    single-threaded-deterministic; pass an explicit ``service`` (or a
    ``config``) to replay onto other backends, schedulers or SLO setups.
    """
    from repro.config import ServiceConfig
    from repro.service.service import BandJoinService

    events = load_events(Path(path))
    if service is not None:
        return replay_events(events, service, speed=speed)
    if config is None:
        # degraded_mode="reject" keeps verification sound: a stale-served
        # answer could never match the captured fresh fingerprint.
        config = ServiceConfig(capture=False, compaction="sync", degraded_mode="reject")
    with BandJoinService(config=config) as fresh:
        return replay_events(events, fresh, speed=speed)
