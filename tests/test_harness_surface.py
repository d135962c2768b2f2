"""The benchmark harness replays a join through the program's public
functions (``benchmarks/harness/{layers,batch,serve}.py``), so those names are
a frozen surface: renaming one must fail here, in tier-1, not in the
benchmark run after the change is written.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.generators import correlated_pair
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "harness"


@pytest.fixture
def harness(monkeypatch):
    """Import the harness modules by their bare names, as its scripts do."""
    monkeypatch.syspath_prepend(str(HARNESS))
    before = set(sys.modules)
    yield {name: importlib.import_module(name) for name in ("layers", "batch", "serve")}
    for name in set(sys.modules) - before:
        if getattr(sys.modules[name], "__file__", None) and Path(
            sys.modules[name].__file__
        ).parent == HARNESS:
            del sys.modules[name]


def test_harness_modules_import(harness):
    assert callable(harness["layers"].replay_join)
    assert "batch-d2-kernel" in harness["batch"].SHAPES
    assert callable(harness["serve"].handle_request)


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_step_by_step_replay_matches_the_engine(harness, storage, tmp_path):
    """``replay_join`` drives route_side / build_worker_tasks /
    stream_worker_tasks / backend.run itself; its pairs must be the engine's."""
    spans = importlib.import_module("spans")
    s, t = correlated_pair(600, 650, dimensions=1, z=1.5, seed=3)
    if storage == "mmap":
        s, t = s.spill(str(tmp_path / "s")), t.spill(str(tmp_path / "t"))
    condition = BandCondition.symmetric(["A1"], 0.01)
    engine = ParallelJoinEngine(backend="threads", max_parallelism=2)
    recorder = spans.SpanRecorder()
    replay = harness["layers"].replay_join(
        recorder, engine, s, t, condition, 4, np.random.default_rng(0)
    )
    result = engine.execute(
        s, t, condition, replay.partitioning, materialize=True, verify="pairs"
    )
    np.testing.assert_array_equal(
        canonical_pair_order(replay.pairs), canonical_pair_order(result.pairs)
    )
    assert replay.job.total_input == result.total_input
    recorded = {span["name"] for span in recorder.spans}
    routed = "routing.route" if storage == "memory" else "routing.stream_route"
    assert {"core.partition", routed, "backends.gather", "backends.run"} <= recorded
