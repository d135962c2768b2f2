"""Fault-tolerance tests: chaos injection, crash recovery, crash-safe storage.

The invariant every test here defends: **correctness is never sacrificed
for availability**.  Whatever faults fire — worker crashes (injected or a
real SIGKILL), stragglers, torn segment writes — a query either answers
with the exact pair set the serial reference produces, or fails with a
classified error.  Degraded answers are explicitly marked stale; corrupt
segments surface as ``CorruptSegmentError``, never as wrong data.
"""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.config import ServiceConfig
from repro.data.generators import correlated_pair
from repro.data.relation import Relation
from repro.data.storage import TMP_SUFFIX, MmapColumnStore, recover_spill_dir
from repro.engine import ParallelJoinEngine
from repro.engine import deadline as deadline_mod
from repro.engine.backends import (
    MAX_TASK_RETRIES,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exceptions import (
    CorruptSegmentError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadError,
)
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.service import BandJoinService
from repro.service.catalog import RelationCatalog
from repro.service.prepared import PATH_STALE, QueryResult
from repro.service.scheduler import QueryScheduler


@pytest.fixture(autouse=True)
def _clean_injector():
    """No test may leak an installed injector into the next."""
    yield
    faults.uninstall()


def _problem(seed: int = 7, n: int = 900, dims: int = 1):
    s, t = correlated_pair(n, n + 100, dimensions=dims, z=1.4, seed=seed)
    condition = BandCondition.symmetric([f"A{i + 1}" for i in range(dims)], 0.05)
    return s, t, condition


def _serial_pairs(s, t, condition) -> np.ndarray:
    with faults.suppressed():
        engine = ParallelJoinEngine(backend="serial")
        return canonical_pair_order(
            engine.join(s, t, condition, workers=4, materialize=True).pairs
        )


# ---------------------------------------------------------------------- #
# Injector mechanics
# ---------------------------------------------------------------------- #
class TestFaultSpec:
    def test_parse_full_spec(self):
        rates = faults.parse_fault_spec("worker_crash:0.1,task_slow:0.05,spill_torn:1")
        assert rates == {"worker_crash": 0.1, "task_slow": 0.05, "spill_torn": 1.0}

    def test_missing_rate_means_certain(self):
        assert faults.parse_fault_spec("worker_crash") == {"worker_crash": 1.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_fault_spec("disk_melt:0.5")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            faults.parse_fault_spec("worker_crash:1.5")

    def test_garbage_rate_rejected(self):
        with pytest.raises(ValueError, match="invalid fault rate"):
            faults.parse_fault_spec("worker_crash:often")


class TestFaultInjector:
    def test_decisions_are_deterministic_in_seed_and_key(self):
        a = faults.FaultInjector({"worker_crash": 0.5}, seed=1)
        b = faults.FaultInjector({"worker_crash": 0.5}, seed=1)
        keys = [("w", i, attempt) for i in range(64) for attempt in range(3)]
        assert [a.should_fire("worker_crash", *k) for k in keys] == [
            b.should_fire("worker_crash", *k) for k in keys
        ]
        c = faults.FaultInjector({"worker_crash": 0.5}, seed=2)
        assert [a.should_fire("worker_crash", *k) for k in keys] != [
            c.should_fire("worker_crash", *k) for k in keys
        ]

    def test_rate_extremes(self):
        injector = faults.FaultInjector({"worker_crash": 1.0})
        assert all(injector.should_fire("worker_crash", i) for i in range(16))
        assert not any(injector.should_fire("task_slow", i) for i in range(16))

    def test_rate_roughly_honored(self):
        injector = faults.FaultInjector({"worker_crash": 0.2}, seed=3)
        fired = sum(injector.should_fire("worker_crash", i) for i in range(2000))
        assert 0.12 < fired / 2000 < 0.28

    def test_suppression_masks_thread_locally(self):
        injector = faults.install(faults.FaultInjector({"worker_crash": 1.0}))
        assert faults.active() is injector
        with faults.suppressed():
            assert faults.active() is None
            seen_in_thread = []
            worker = threading.Thread(
                target=lambda: seen_in_thread.append(faults.active())
            )
            worker.start()
            worker.join()
            # Other threads are unaffected by this thread's suppression.
            assert seen_in_thread == [injector]
        assert faults.active() is injector

    def test_fire_accounts(self):
        injector = faults.FaultInjector({"spill_torn": 1.0})
        assert injector.fire("spill_torn", "d", 0)
        assert not injector.fire("worker_crash", "d", 0)
        stats = injector.stats()
        assert stats["fired"] == {"spill_torn": 1}
        assert stats["checked"] == {"spill_torn": 1, "worker_crash": 1}

    def test_maybe_slow_sleeps_when_fired(self):
        faults.install(
            faults.FaultInjector({"task_slow": 1.0}, slow_seconds=0.01)
        )
        start = time.perf_counter()
        assert faults.maybe_slow("chunk", 0)
        assert time.perf_counter() - start >= 0.01
        faults.uninstall()
        assert not faults.maybe_slow("chunk", 0)


class TestDeadline:
    def test_no_scope_is_unbounded(self):
        assert deadline_mod.remaining() is None
        deadline_mod.check()  # must not raise

    def test_scope_bounds_and_restores(self):
        with deadline_mod.deadline_scope(time.monotonic() + 5.0):
            remaining = deadline_mod.remaining()
            assert remaining is not None and 4.0 < remaining <= 5.0
            with deadline_mod.deadline_scope(time.monotonic() + 1.0):
                assert deadline_mod.remaining() <= 1.0
            assert deadline_mod.remaining() > 4.0
        assert deadline_mod.remaining() is None

    def test_nested_scope_never_loosens(self):
        with deadline_mod.deadline_scope(time.monotonic() + 0.5):
            with deadline_mod.deadline_scope(time.monotonic() + 60.0):
                assert deadline_mod.remaining() <= 0.5

    def test_check_raises_after_expiry(self):
        with deadline_mod.deadline_scope(time.monotonic() - 0.001):
            assert deadline_mod.remaining() == 0.0
            with pytest.raises(DeadlineExceededError, match="during execution"):
                deadline_mod.check()

    def test_serial_backend_honors_deadline(self):
        s, t, condition = _problem(n=400)
        faults.install(
            faults.FaultInjector({"task_slow": 1.0}, slow_seconds=0.05)
        )
        engine = ParallelJoinEngine(backend="serial")
        with deadline_mod.deadline_scope(time.monotonic() + 0.02):
            with pytest.raises(DeadlineExceededError):
                engine.join(s, t, condition, workers=4, materialize=True)


# ---------------------------------------------------------------------- #
# Backend crash recovery: identical answers under injected faults
# ---------------------------------------------------------------------- #
class TestThreadBackendRecovery:
    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_injected_crashes_never_change_answers(self, rate):
        s, t, condition = _problem(seed=11)
        expected = _serial_pairs(s, t, condition)
        faults.install(faults.FaultInjector({"worker_crash": rate}, seed=5))
        # max_parallelism forces a real pool even on single-CPU hosts (the
        # default would quietly take the serial shortcut and test nothing).
        engine = ParallelJoinEngine(backend="threads", max_parallelism=4)
        result = engine.join(s, t, condition, workers=4, materialize=True)
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), expected)

    def test_retries_are_counted(self):
        from repro.obs.globals import registry

        s, t, condition = _problem(seed=12)
        before = registry().counter("repro_task_retries_total").value(backend="threads")
        faults.install(faults.FaultInjector({"worker_crash": 1.0}, seed=6))
        ParallelJoinEngine(backend="threads", max_parallelism=4).join(
            s, t, condition, workers=4, materialize=True
        )
        after = registry().counter("repro_task_retries_total").value(backend="threads")
        assert after > before


class TestProcessBackendRecovery:
    @pytest.mark.parametrize("rate", [0.4, 1.0])
    def test_injected_process_deaths_never_change_answers(self, rate):
        """Workers really die (os._exit) — recovery retries, then falls back."""
        s, t, condition = _problem(seed=13, n=500)
        expected = _serial_pairs(s, t, condition)
        faults.install(faults.FaultInjector({"worker_crash": rate}, seed=7))
        engine = ParallelJoinEngine(backend="processes", max_parallelism=2)
        result = engine.join(s, t, condition, workers=3, materialize=True)
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), expected)

    def test_sigkill_mid_join_yields_identical_pairs(self):
        """A real SIGKILL of a live pool child mid-join must only cost time."""
        s, t, condition = _problem(seed=14, n=2000)
        expected = _serial_pairs(s, t, condition)
        # Stretch every chunk so the driver reliably observes live workers.
        faults.install(
            faults.FaultInjector({"task_slow": 1.0}, slow_seconds=0.02)
        )
        backend = ProcessPoolBackend(max_workers=2)
        engine = ParallelJoinEngine(backend=backend)
        outcome: dict = {}

        def run():
            outcome["result"] = engine.join(
                s, t, condition, workers=4, materialize=True
            )

        driver = threading.Thread(target=run)
        driver.start()
        killed = False
        for _ in range(600):
            pids = backend.live_worker_pids
            if pids:
                try:
                    os.kill(pids[0], signal.SIGKILL)
                    killed = True
                    break
                except ProcessLookupError:  # worker already gone; try again
                    pass
            if not driver.is_alive():
                break
            time.sleep(0.01)
        driver.join(timeout=120)
        assert not driver.is_alive()
        assert killed, "never observed a live pool worker to kill"
        np.testing.assert_array_equal(
            canonical_pair_order(outcome["result"].pairs), expected
        )

    def test_hang_detection_recovers_via_fallback(self):
        """A stalled pool (every chunk sleeping past task_timeout) is killed
        and the dispatch completes on the in-driver fallback chain."""
        s, t, condition = _problem(seed=15, n=250)
        expected = _serial_pairs(s, t, condition)
        faults.install(
            faults.FaultInjector({"task_slow": 1.0}, slow_seconds=0.75)
        )
        backend = ProcessPoolBackend(
            max_workers=2, task_timeout=0.15, max_task_retries=0
        )
        engine = ParallelJoinEngine(backend=backend)
        result = engine.join(s, t, condition, workers=2, materialize=True)
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), expected)

    def test_max_retries_bounds_crash_rounds(self):
        assert MAX_TASK_RETRIES >= 1
        with pytest.raises(Exception):
            ProcessPoolBackend(max_task_retries=-1)


# ---------------------------------------------------------------------- #
# Crash-safe storage
# ---------------------------------------------------------------------- #
def _chunks(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    yield {"A1": rng.normal(size=n), "A2": rng.normal(size=n)}
    yield {"A1": rng.normal(size=n), "A2": rng.normal(size=n)}


class TestCrashSafeStorage:
    def test_write_is_verified_and_checksummed(self, tmp_path):
        store = MmapColumnStore.write(
            str(tmp_path / "seg"), _chunks(), segment_bytes=16 * 1024
        )
        assert store.validate() > 0
        assert store.verify() > 0
        for segment in store.segments:
            assert set(segment.checksums) == {"A1", "A2"}
        assert not glob.glob(str(tmp_path / "seg" / f"*{TMP_SUFFIX}"))

    def test_truncated_segment_raises_corrupt_error(self, tmp_path):
        store = MmapColumnStore.write(
            str(tmp_path / "seg"), _chunks(), segment_bytes=16 * 1024
        )
        victim = store.segments[0].files["A1"]
        spec = store.spec()
        os.truncate(victim, os.path.getsize(victim) - 32)
        reopened = MmapColumnStore.from_spec(spec)
        with pytest.raises(CorruptSegmentError):
            reopened.validate()

    def test_bit_rot_caught_by_deep_verify(self, tmp_path):
        """A flipped payload byte keeps shape metadata intact — only the
        checksum pass can catch it, and it must never be served silently."""
        store = MmapColumnStore.write(
            str(tmp_path / "seg"), _chunks(), segment_bytes=1 << 30
        )
        victim = store.segments[0].files["A2"]
        size = os.path.getsize(victim)
        with open(victim, "r+b") as handle:
            handle.seek(size - 11)
            original = handle.read(1)
            handle.write(bytes([original[0] ^ 0xFF]))
        reopened = MmapColumnStore.from_spec(store.spec())
        reopened.validate()  # metadata still consistent
        with pytest.raises(CorruptSegmentError, match="checksum"):
            reopened.verify()

    def test_missing_file_raises_corrupt_error(self, tmp_path):
        store = MmapColumnStore.write(
            str(tmp_path / "seg"), _chunks(), segment_bytes=1 << 30
        )
        os.unlink(store.segments[0].files["A1"])
        with pytest.raises(CorruptSegmentError, match="missing"):
            MmapColumnStore.from_spec(store.spec()).validate()

    def test_torn_write_injection_fails_loudly(self, tmp_path):
        faults.install(faults.FaultInjector({"spill_torn": 1.0}))
        with pytest.raises(CorruptSegmentError):
            MmapColumnStore.write(
                str(tmp_path / "seg"), _chunks(), segment_bytes=1 << 30
            )

    def test_recover_spill_dir_sweeps_orphans(self, tmp_path):
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        orphan = nested / f"seg00000__A1.npy{TMP_SUFFIX}"
        orphan.write_bytes(b"partial write")
        survivor = nested / "seg00000__A1.npy"
        survivor.write_bytes(b"complete")
        removed = recover_spill_dir(str(tmp_path))
        assert removed == [str(orphan)]
        assert not orphan.exists() and survivor.exists()

    def test_catalog_retries_torn_spills_into_fresh_dirs(self, tmp_path):
        """spill_torn at rate 1.0: two attempts fail, the suppressed final
        attempt lands — registration still succeeds, on mmap storage."""
        faults.install(faults.FaultInjector({"spill_torn": 1.0}))
        catalog = RelationCatalog(
            storage="mmap",
            spill_dir=str(tmp_path),
            spill_threshold_bytes=1,
        )
        rng = np.random.default_rng(1)
        snapshot = catalog.register("S", {"A1": rng.normal(size=500)})
        assert snapshot.storage == "mmap"
        assert snapshot.rows == 500

    def test_catalog_startup_sweeps_orphaned_tmp(self, tmp_path):
        orphan = tmp_path / f"seg00000__A1.npy{TMP_SUFFIX}"
        orphan.write_bytes(b"torn")
        RelationCatalog(storage="mmap", spill_dir=str(tmp_path))
        assert not orphan.exists()


# ---------------------------------------------------------------------- #
# Scheduler robustness: classification, deadlines, degradation, drain
# ---------------------------------------------------------------------- #
class _FailingPrepared:
    """Stub whose execution raises a chosen exception."""

    def __init__(self, exc):
        self.key = ("failing",)
        self.exc = exc
        self.attributes = ("A1",)

    def epsilon_key(self, epsilons=None):
        return ((0.1, 0.1),)

    def current_versions(self):
        return (1, 1)

    def execute(self, epsilons=None):
        raise self.exc


class _BlockingPrepared:
    """Stub that blocks on a gate, with an optional stale-servable cache."""

    def __init__(self, gate, stale=None, name="blocking"):
        self.key = (name,)
        self.gate = gate
        self.stale = stale
        self.attributes = ("A1",)
        self.started = threading.Event()

    def epsilon_key(self, epsilons=None):
        value = 0.1 if epsilons is None else float(epsilons)
        return ((value, value),)

    def current_versions(self):
        return (3, 3)

    def execute(self, epsilons=None):
        self.started.set()
        self.gate.wait(timeout=30)
        return QueryResult(
            segments=(),
            path="cold",
            s_name="S",
            t_name="T",
            s_version=3,
            t_version=3,
            seconds=0.0,
        )

    def stale_result(self, ekey):
        return self.stale


def _stale_result():
    return QueryResult(
        segments=(np.array([[0, 1]], dtype=np.int64),),
        path=PATH_STALE,
        s_name="S",
        t_name="T",
        s_version=1,
        t_version=2,
        seconds=0.0,
        stale=True,
        version_lag=3,
    )


class TestSchedulerRobustness:
    def test_failures_are_classified(self):
        cases = [
            (ValueError("boom"), "internal"),
            (CorruptSegmentError("torn"), "corrupt_segment"),
            (DeadlineExceededError("late"), "timeout"),
        ]
        with QueryScheduler(max_workers=1, max_pending=8) as scheduler:
            for i, (exc, cause) in enumerate(cases):
                stub = _FailingPrepared(exc)
                stub.key = (f"failing-{i}",)
                future = scheduler.submit(stub)
                with pytest.raises(type(exc)):
                    future.result(timeout=30)
                assert scheduler.metrics.snapshot()["failures"].get(cause, 0) >= 1
            assert scheduler.metrics.snapshot()["failed"] == len(cases)

    def test_overload_rejections_count_as_overload_failures(self):
        gate = threading.Event()
        stub = _BlockingPrepared(gate)
        scheduler = QueryScheduler(
            max_workers=1, max_pending=1, degraded_mode="reject"
        )
        try:
            first = scheduler.submit(stub, 0.1)
            with pytest.raises(ServiceOverloadError):
                scheduler.submit(stub, 0.2)
            assert scheduler.metrics.snapshot()["failures"].get("overload", 0) == 1
            gate.set()
            first.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_overload_serves_marked_stale_result(self):
        gate = threading.Event()
        stale = _stale_result()
        blocker = _BlockingPrepared(gate, name="hog")
        victim = _BlockingPrepared(gate, stale=stale, name="victim")
        scheduler = QueryScheduler(max_workers=1, max_pending=1)
        try:
            hog = scheduler.submit(blocker, 0.1)
            served = scheduler.submit(victim, 0.2).result(timeout=5)
            assert served.stale and served.path == PATH_STALE
            assert served.version_lag == 3
            assert scheduler.metrics.snapshot()["degraded"] == 1
            gate.set()
            hog.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_degraded_mode_reject_never_serves_stale(self):
        gate = threading.Event()
        blocker = _BlockingPrepared(gate, name="hog2")
        victim = _BlockingPrepared(gate, stale=_stale_result(), name="victim2")
        scheduler = QueryScheduler(
            max_workers=1, max_pending=1, degraded_mode="reject"
        )
        try:
            hog = scheduler.submit(blocker, 0.1)
            with pytest.raises(ServiceOverloadError):
                scheduler.submit(victim, 0.2)
            assert scheduler.metrics.snapshot()["degraded"] == 0
            gate.set()
            hog.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_no_stale_cache_still_rejects(self):
        gate = threading.Event()
        blocker = _BlockingPrepared(gate, name="hog3")
        victim = _BlockingPrepared(gate, stale=None, name="victim3")
        scheduler = QueryScheduler(max_workers=1, max_pending=1)
        try:
            hog = scheduler.submit(blocker, 0.1)
            with pytest.raises(ServiceOverloadError):
                scheduler.submit(victim, 0.2)
            gate.set()
            hog.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_deadline_expired_in_queue_fails_fast(self):
        gate = threading.Event()
        hog = _BlockingPrepared(gate, name="hog4")
        late = _BlockingPrepared(gate, name="late")
        scheduler = QueryScheduler(
            max_workers=1, max_pending=8, degraded_mode="reject"
        )
        try:
            first = scheduler.submit(hog, 0.1)
            assert hog.started.wait(timeout=30)
            future = scheduler.submit(late, 0.2, deadline=0.05)
            time.sleep(0.15)  # let the deadline lapse while queued
            gate.set()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            first.result(timeout=30)
            assert scheduler.metrics.snapshot()["failures"].get("timeout", 0) == 1
        finally:
            gate.set()
            scheduler.close()

    def test_invalid_deadline_rejected(self):
        with QueryScheduler(max_workers=1, max_pending=2) as scheduler:
            with pytest.raises(ServiceError, match="positive"):
                scheduler.submit(_BlockingPrepared(threading.Event()), 0.1, deadline=0)

    def test_graceful_close_drains_inflight(self):
        gate = threading.Event()
        stub = _BlockingPrepared(gate, name="draining")
        scheduler = QueryScheduler(max_workers=1, max_pending=8, drain_timeout=10.0)
        future = scheduler.submit(stub, 0.1)
        assert stub.started.wait(timeout=30)
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        time.sleep(0.05)
        gate.set()  # the in-flight request finishes during the drain window
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert future.result(timeout=1).path == "cold"

    def test_close_without_drain_fails_queued_requests(self):
        gate = threading.Event()
        hog = _BlockingPrepared(gate, name="hog5")
        queued = _BlockingPrepared(gate, name="queued")
        scheduler = QueryScheduler(max_workers=1, max_pending=8, drain_timeout=0.0)
        running = scheduler.submit(hog, 0.1)
        assert hog.started.wait(timeout=30)
        victim = scheduler.submit(queued, 0.2)
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        time.sleep(0.1)
        gate.set()
        closer.join(timeout=30)
        with pytest.raises(ServiceError, match="shut down"):
            victim.result(timeout=1)
        running.result(timeout=1)


# ---------------------------------------------------------------------- #
# End-to-end: the served fault matrix
# ---------------------------------------------------------------------- #
def _service_columns(rng, n):
    return {"A1": rng.normal(size=n)}


class TestServiceChaos:
    @pytest.mark.parametrize(
        "backend,spec",
        [
            ("threads", "worker_crash:0.5"),
            ("threads", "worker_crash:1"),
            ("threads", "worker_crash:0.3,task_slow:0.2"),
            ("processes", "worker_crash:0.5"),
        ],
    )
    def test_fault_matrix_preserves_answers(self, backend, spec):
        # A served query joins inline on its calling thread: worker crashes
        # (pool-only, see TestThreadBackendRecovery / TestProcessBackendRecovery)
        # never reach it, slow tasks do.
        rng = np.random.default_rng(23)
        s_cols = _service_columns(rng, 500)
        t_cols = _service_columns(rng, 550)

        with BandJoinService(
            ServiceConfig(backend="serial", compaction="sync", capture=False)
        ) as reference_service:
            reference_service.register("S", dict(s_cols))
            reference_service.register("T", dict(t_cols))
            reference_service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.05)
            expected = canonical_pair_order(reference_service.query("q").pairs)

        config = ServiceConfig(
            backend=backend,
            compaction="sync",
            capture=False,
            inject_faults=spec,
            fault_seed=99,
        )
        with BandJoinService(config) as chaotic:
            chaotic.register("S", dict(s_cols))
            chaotic.register("T", dict(t_cols))
            chaotic.prepare("q", "S", "T", attributes=["A1"], epsilons=0.05)
            result = chaotic.query("q")
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs), expected
            )
            assert not result.stale and result.base_job.n_workers == 1
            health = chaotic.health()
            assert health["fault_injection"]["rates"]
        assert faults.active() is None  # close() uninstalled the injector

    def test_torn_spills_under_service_still_answer(self, tmp_path):
        rng = np.random.default_rng(29)
        config = ServiceConfig(
            backend="serial",
            compaction="sync",
            capture=False,
            storage="mmap",
            spill_dir=str(tmp_path),
            spill_threshold_bytes=1,
            inject_faults="spill_torn:1",
        )
        with BandJoinService(config) as service:
            service.register("S", _service_columns(rng, 400))
            service.register("T", _service_columns(rng, 420))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.05)
            result = service.query("q")
            assert result.n_pairs > 0

    def test_health_surfaces_classified_failures(self):
        with BandJoinService(
            ServiceConfig(backend="serial", compaction="sync", capture=False)
        ) as service:
            health = service.health()
            assert "failures" in health
            assert health["degraded_responses"] == 0
