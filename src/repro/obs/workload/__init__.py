"""Workload observatory: traffic capture, snapshots, SLOs and replay.

The observatory closes the loop between serving and understanding what was
served: :class:`QueryLogRecorder` captures per-request structured events at
negligible cost, :class:`Workload` condenses a captured period into a
comparable snapshot (arrival process, epsilon mix, table-size trajectory,
hot-key skew) with a drift metric, :class:`SLOMonitor` turns declarative
objectives into breach events on a background cadence, and
:func:`replay_log` replays a spooled capture deterministically — verifying
result fingerprints — so every capture doubles as an integration test.
"""

from repro.obs.workload.recorder import QueryLogRecorder, pair_fingerprint, pair_hash
from repro.obs.workload.replay import (
    ReplayMismatch,
    ReplayReport,
    load_events,
    replay_events,
    replay_log,
)
from repro.obs.workload.slo import SLO, SLO_KINDS, SLOMonitor, service_probes
from repro.obs.workload.snapshot import DRIFT_COMPONENTS, Workload

__all__ = [
    "DRIFT_COMPONENTS",
    "QueryLogRecorder",
    "ReplayMismatch",
    "ReplayReport",
    "SLO",
    "SLO_KINDS",
    "SLOMonitor",
    "Workload",
    "load_events",
    "pair_fingerprint",
    "pair_hash",
    "replay_events",
    "replay_log",
    "service_probes",
]
