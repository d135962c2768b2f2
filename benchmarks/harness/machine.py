"""The ``machine`` block recorded beside every result, and process probes.

A number means little without the box it came from: core count, affinity,
interpreter and numpy versions, and the time of a fixed numpy loop taken
before and after each workload, so a drifting box shows up next to the
numbers instead of looking like a regression.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def available_cpus() -> int:
    """Return the number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def reference_loop_seconds() -> float:
    """Time a fixed sort + ``searchsorted`` loop (median of five rounds)."""
    values = np.random.default_rng(20200614).random(200_000)
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        ordered = np.sort(values)
        np.searchsorted(ordered, values)
        rounds.append(time.perf_counter() - start)
    return sorted(rounds)[2]


def _git_sha(root) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def describe(root) -> dict:
    """Return the static part of the machine block."""
    return {
        "nproc": os.cpu_count(),
        "affinity": available_cpus(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
    }


def child_pids() -> list[int]:
    """Return the pids whose parent is this process (zombies included)."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone between the listing and the read
        if parent == me:
            children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The ``processes`` backend's shared memory starts multiprocessing's
    resource tracker, which otherwise outlives the interpreter by a moment:
    closing its pipe and waiting for it here means nothing of a run is left
    when the run's process exits.  Anything else still a child by now is a
    leftover of a failed pass and is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def cpu_seconds(pid: int | None = None) -> float:
    """Return user + system CPU seconds of this process or of ``pid``."""
    if pid is None:
        times = os.times()
        return times.user + times.system
    with open(f"/proc/{pid}/stat") as stat:
        # The command name may hold spaces; the numeric fields follow ")".
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def peak_rss_mb(pid: int | None = None) -> float:
    """Return the peak resident set size (VmHWM) of a process in MB."""
    with open(f"/proc/{pid or 'self'}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


class PeakRss:
    """Peak resident memory of a process, one reading per op or step.

    The whole-run VmHWM is a maximum over everything that happened to
    overlap, and moved by a fifth between identical runs of ``serve-mix``.
    Resetting the mark after each reading (``5`` into
    ``/proc/<pid>/clear_refs``) gives the peak of each interval instead, and
    their median is steady.  Where the reset is not permitted the whole-run
    VmHWM is reported.
    """

    def __init__(self, pid: int | None = None) -> None:
        self.pid = pid
        self.readings: list[float] = []
        self.resettable = self._reset()

    def _reset(self) -> bool:
        try:
            with open(f"/proc/{self.pid or 'self'}/clear_refs", "w") as refs:
                refs.write("5")
        except OSError:
            return False
        return True

    def read(self) -> None:
        """Record the peak since the last reading and start a new interval."""
        self.readings.append(peak_rss_mb(self.pid))
        self._reset()

    def metric(self) -> dict:
        if self.resettable and self.readings:
            return {"value": statistics.median(self.readings), "samples": len(self.readings)}
        return {"value": peak_rss_mb(self.pid)}
