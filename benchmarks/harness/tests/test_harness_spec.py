"""``BENCHMARK.json``, ``spec.py`` and the README name the same things."""

import json
from pathlib import Path

import spec

HARNESS = Path(__file__).resolve().parent.parent
ROOT = HARNESS.parent.parent


def test_benchmark_json_is_what_the_spec_says():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == spec.benchmark_json(
        recorded["command"], recorded["paths"], recorded["run_seconds"]
    )
    assert recorded["command"] == ["python3", "benchmarks/harness/run.py"]
    assert recorded["paths"] == ["benchmarks/harness"]


def test_names_are_unique_and_bounds_are_legal():
    names = [m.name for m in spec.END_TO_END + spec.TRACE_METRICS] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    assert "setup_s" in {m.name for m in spec.END_TO_END}
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert max(m.bound for m in spec.END_TO_END) == next(
        m.bound for m in spec.END_TO_END if m.name == "setup_s"
    )
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())


def test_readme_explains_every_name():
    readme = (HARNESS / "README.md").read_text()
    for name in list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END + spec.TRACE_METRICS]:
        assert f"`{name}`" in readme, name
