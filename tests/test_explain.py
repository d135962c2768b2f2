"""Tests for EXPLAIN / EXPLAIN ANALYZE and the estimate-accuracy tracker.

The load-bearing properties: EXPLAIN never executes anything; EXPLAIN
ANALYZE's actual pair counts match the executed pair-set sizes exactly (for
every backend and local kernel), with finite q-errors — exactly 1.0 in the
deterministic cases (1-D inputs small enough that the selectivity probe
samples the full relations, and analyzed runs served from the result
cache); and the only price in seconds on the tree is the ``inline`` node's,
the one the cold path is decided with.
"""

from __future__ import annotations

import io
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.obs.explain import (
    EstimateAccuracyTracker,
    PlanNode,
    format_plan_tree,
    qerror,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.workload.slo import SLO, SLO_KINDS, SLOMonitor
from repro.service import BandJoinService, serve_lines


def explain_service(**overrides) -> BandJoinService:
    defaults = dict(
        backend="serial", compaction="sync", scheduler_workers=2, slo_interval=0.0
    )
    defaults.update(overrides)
    return BandJoinService(ServiceConfig(**defaults))


def planned_service(**overrides) -> BandJoinService:
    """A service whose cold queries can plan: a threads engine pinned to a
    pool of 4, so p > 1 on any machine (a serial engine has p = 1 and always
    joins inline)."""
    service = explain_service(backend="threads", **overrides)
    service.engine.backend.max_workers = 4
    return service


def register_pair(service, rng, n_s=300, n_t=300, dims=1):
    names = [f"A{i + 1}" for i in range(dims)]
    service.register("S", {a: rng.uniform(0, 1, n_s) for a in names})
    service.register("T", {a: rng.uniform(0, 1, n_t) for a in names})
    service.prepare("q", "S", "T", attributes=names, epsilons=0.05)
    return names


class TestQError:
    def test_perfect_estimate(self):
        assert qerror(10, 10) == 1.0

    def test_symmetric(self):
        assert qerror(5, 20) == qerror(20, 5) == 4.0

    def test_both_zero_agree(self):
        assert qerror(0, 0) == 1.0

    def test_one_zero_is_infinite(self):
        assert math.isinf(qerror(0, 7))
        assert math.isinf(qerror(7, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            qerror(-1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        estimate=st.floats(1e-6, 1e12),
        actual=st.floats(1e-6, 1e12),
    )
    def test_at_least_one_and_symmetric(self, estimate, actual):
        q = qerror(estimate, actual)
        assert q >= 1.0
        assert q == qerror(actual, estimate)


class TestPlanNode:
    def test_qerrors_only_for_shared_keys(self):
        node = PlanNode("n").estimate(a=10, b=5).actual(a=20)
        assert node.qerrors() == {"a": 2.0}

    def test_none_values_skipped(self):
        node = PlanNode("n").estimate(a=None, b=3).actual(b=None)
        assert node.estimates == {"b": 3.0} and node.actuals == {}

    def test_max_qerror_recurses(self):
        root = PlanNode("root").estimate(x=1).actual(x=1)
        child = root.child("child").estimate(y=2).actual(y=8)
        child.child("leaf").estimate(z=3).actual(z=9)
        assert root.max_qerror() == 4.0

    def test_max_qerror_none_without_pairs(self):
        root = PlanNode("root").estimate(x=1)
        root.child("child")
        assert root.max_qerror() is None

    def test_to_dict_serializes_inf(self):
        node = PlanNode("n").estimate(a=0).actual(a=5)
        assert node.to_dict()["qerrors"]["a"] == "inf"


class TestSampledEstimateMemo:
    def test_estimate_pairs_samples_once(self, rng, monkeypatch):
        """Satellite fix: repeated estimate calls must not re-sample."""
        import repro.service.prepared as prepared_mod

        with explain_service() as service:
            register_pair(service, rng)
            prepared = service.prepared("q")
            calls = {"n": 0}
            real = prepared_mod.sampled_join_matrix

            def counting(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(prepared_mod, "sampled_join_matrix", counting)
            first = prepared.estimate_pairs()
            sampled_once = calls["n"]
            assert sampled_once == 2  # one gather per side
            assert prepared.estimate_pairs() == first
            assert prepared.sampled_estimate() == first
            assert calls["n"] == sampled_once

    def test_append_invalidates_the_memo(self, rng):
        with explain_service(staleness_threshold=10.0) as service:
            register_pair(service, rng)
            prepared = service.prepared("q")
            before = prepared.sampled_estimate()
            service.append("S", {"A1": rng.uniform(0, 1, 200)})
            after = prepared.sampled_estimate()
            # New catalog version -> new memo entry over more rows.
            assert after != pytest.approx(before)

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_sampling_a_snapshot_with_a_delta_copies_no_relation(
        self, rng, monkeypatch, storage, tmp_path
    ):
        """The sampled rows are gathered from base and delta separately: a
        cold query and an EXPLAIN after an append concatenate nothing, and
        the estimate equals the one sampled from the concatenated relation."""
        import repro.service.prepared as prepared_mod
        from repro.data.relation import Relation
        from repro.service import PATH_COLD

        with explain_service(
            staleness_threshold=10.0, storage=storage, spill_dir=str(tmp_path),
            spill_threshold_bytes=1,
        ) as service:
            names = register_pair(service, rng, n_s=1500, n_t=1200, dims=2)
            service.append("S", {a: rng.uniform(0, 1, 300) for a in names})
            service.append("T", {a: rng.uniform(0, 1, 40) for a in names})
            calls = []
            real_concat = Relation.concat

            def counting(self, other):
                calls.append((self.name, len(self), len(other)))
                return real_concat(self, other)

            monkeypatch.setattr(Relation, "concat", counting)
            assert service.query("q").path == PATH_COLD
            service.explain("q")
            assert calls == []
            prepared = service.prepared("q")
            estimate = prepared.sampled_estimate()
            prepared._sampled_estimates.clear()
            monkeypatch.setattr(
                prepared_mod, "gather_snapshot_rows",
                lambda snap, attributes, rows: prepared_mod.gather_rows(
                    snap.full, attributes, rows
                ),
            )
            assert prepared.sampled_estimate() == estimate
            assert calls  # the reference did sample the concatenation

    def test_sampled_estimate_ignores_result_cache(self, rng):
        """The planner's belief must survive the exact answer being cached."""
        with explain_service() as service:
            register_pair(service, rng)
            prepared = service.prepared("q")
            sampled = prepared.sampled_estimate()
            result = service.query("q")
            assert prepared.estimate_pairs() == float(result.n_pairs)  # exact-first
            assert prepared.sampled_estimate() == sampled


class TestExplain:
    def test_explain_does_not_execute(self, rng):
        with explain_service() as service:
            register_pair(service, rng)
            report = service.explain("q")
            assert not report.analyze and report.path is None
            assert service.prepared("q").stats.executions == 0
            assert report.root.estimates["pairs"] > 0
            assert report.root.actuals == {}

    def test_plan_cache_provenance(self, rng):
        with planned_service() as service:
            register_pair(service, rng)
            first = service.explain("q")
            second = service.explain("q")

            def plan_node(report):
                return next(c for c in report.root.children if c.name == "partitioning")

            assert plan_node(first).attrs["plan_cached"] is False
            assert plan_node(second).attrs["plan_cached"] is True

    def test_selector_node_reports_kernel_and_window_fractions(self, rng):
        with explain_service() as service:
            register_pair(service, rng, dims=2)
            report = service.explain("q")
            selector = next(c for c in report.root.children if c.name == "selector")
            assert selector.attrs["algorithm"] == "index-nested-loop"
            fractions = selector.attrs["window_fractions"]
            assert len(fractions) == 2 and all(0 < f < 1 for f in fractions)

    def test_analyze_actual_pairs_match_execution_exactly(self, rng):
        with explain_service() as service:
            register_pair(service, rng)
            report = service.explain("q", analyze=True)
            exact = service.query("q").n_pairs
            assert report.analyze and report.path in ("cold", "plan_cache")
            assert report.root.actuals["pairs"] == float(exact)
            worst = report.max_qerror()
            assert worst is not None and math.isfinite(worst)

    def test_deterministic_1d_full_sample_has_unit_qerror(self, rng):
        """1-D inputs within the probe's sample size are estimated exactly."""
        with explain_service() as service:
            register_pair(service, rng, n_s=300, n_t=400)  # both <= 512
            report = service.explain("q", analyze=True)
            assert report.root.qerrors()["pairs"] == 1.0

    def test_analyze_of_a_cached_result_is_exact(self, rng):
        with explain_service() as service:
            register_pair(service, rng, dims=2)
            service.query("q")
            report = service.explain("q", analyze=True)
            assert report.path == "result_cache"
            assert report.root.attrs.get("served_from_cache") is True
            assert report.root.qerrors()["pairs"] == 1.0

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_analyze_matches_pair_sets_across_backends(self, backend):
        """Randomized property: analyzed actuals == executed pair-set sizes."""
        for seed in (3, 11):
            rng = np.random.default_rng(seed)
            with explain_service(backend=backend) as service:
                dims = int(rng.integers(1, 3))
                register_pair(
                    service,
                    rng,
                    n_s=int(rng.integers(50, 400)),
                    n_t=int(rng.integers(50, 400)),
                    dims=dims,
                )
                eps = float(rng.uniform(0.005, 0.1))
                report = service.explain("q", epsilons=eps, analyze=True)
                expected = service.query("q", epsilons=eps).n_pairs
                assert report.root.actuals["pairs"] == float(expected)
                worst = report.max_qerror()
                assert worst is not None and math.isfinite(worst)
                if dims == 1:
                    assert report.root.qerrors()["pairs"] == 1.0

    def test_candidate_estimate_follows_the_bucketed_kernel_plan(self, rng):
        """Past the kernel's size gate candidates are ~2 per pair at d=2, not
        the 1-D window (here 25x the output) the estimate used to price."""
        with explain_service() as service:
            names = ["A1", "A2"]
            service.register("S", {a: rng.uniform(0, 1, 20_000) for a in names})
            service.register("T", {a: rng.uniform(0, 1, 20_000) for a in names})
            service.prepare("q", "S", "T", attributes=names, epsilons=0.02)
            report = service.explain("q", analyze=True)
            kernel_node = next(c for c in report.root.children if c.name == "kernels")
            assert kernel_node.actuals["candidates"] <= 3 * kernel_node.actuals["pairs"]
            assert kernel_node.qerrors()["candidates"] < 1.5

    def test_kernel_chunks_are_priced_at_each_tasks_budget_share(self, rng):
        """A planned query's p tasks each run with ``budget // p`` bytes
        (``ExecutionBackend._budgeted``), so each worker's chunk estimate is
        its candidates over that share's capacity, not the whole budget's."""
        from repro.local_join import kernels

        budget = 4 * 100 * kernels.CANDIDATE_BYTES  # 100 candidates per task chunk
        with explain_service(backend="threads", workers=8, kernel_memory_budget=budget) as service:
            service.engine.backend.max_workers = 4
            register_pair(service, rng, n_s=2000, n_t=2000, dims=2)
            prepared = service.prepared("q")
            prepared.prices.seconds_per_load = 1.0  # a free plan: the query plans
            prepared.prices.plan_seconds[prepared.price_key] = 0.0
            report = service.explain("q")
            inline = next(c for c in report.root.children if c.name == "inline")
            assert inline.attrs["chosen"] is False and inline.attrs["parallelism"] == 4
            plan = next(c for c in report.root.children if c.name == "partitioning")
            workers = [c.estimates for c in plan.children if c.name.startswith("worker")]
            capacity = kernels.max_candidates(budget // 4)
            assert any(w["kernel_chunks"] > 1 for w in workers)
            for w in workers:
                assert w["kernel_chunks"] == math.ceil(w["candidates"] / capacity)

    def test_kernel_chunks_count_one_call_per_unit(self, rng):
        """The engine runs one kernel call per unit, so a worker owning many
        small units emits a chunk for each even when all its candidates fit
        in one chunk: Grid-eps here makes ~100 units under 8 workers."""
        from repro.baselines.grid import GridEpsilonPartitioner

        with planned_service() as service:
            service.register("S", {"A1": rng.uniform(0, 1, 4000)})
            service.register("T", {"A1": rng.uniform(0, 1, 4000)})
            service.prepare(
                "q", "S", "T", attributes=["A1"], epsilons=0.01,
                partitioner=GridEpsilonPartitioner(),
            )
            prepared = service.prepared("q")
            prepared.prices.seconds_per_load = 1.0  # a free plan: the query plans
            prepared.prices.plan_seconds[prepared.price_key] = 0.0
            report = service.explain("q", analyze=True)
            kernel_node = next(c for c in report.root.children if c.name == "kernels")
            assert kernel_node.actuals["chunks"] > 4 * report.root.attrs["workers"]
            assert kernel_node.qerrors()["chunks"] < 1.5

    def test_per_worker_nodes_carry_estimates_and_actuals(self, rng):
        with planned_service() as service:
            register_pair(service, rng)
            report = service.explain("q", analyze=True)
            plan = next(c for c in report.root.children if c.name == "partitioning")
            workers = [c for c in plan.children if c.name.startswith("worker")]
            assert workers
            for node in workers:
                assert "input" in node.estimates and "input" in node.actuals
                assert node.qerrors()["input"] >= 1.0

    def test_pure_delta_answer_reports_one_inline_join(self, rng):
        """No partitioned dispatch runs on the delta path: the workers carry
        no actuals, and the inline join of the new rows has its own node."""
        with planned_service() as service:
            register_pair(service, rng)
            before = service.query("q").n_pairs
            service.append("S", {"A1": rng.uniform(0, 1, 30)})
            report = service.explain("q", analyze=True)
            assert report.path == "delta"
            nodes = {c.name: c for c in report.root.children}
            delta = nodes["delta_join"]
            assert delta.actuals["output"] == report.root.actuals["pairs"] - before
            assert delta.actuals["input"] >= 30 and delta.actuals["seconds"] >= 0
            plan = nodes["partitioning"]
            assert plan.actuals == {}
            assert all(worker.actuals == {} for worker in plan.children)
            assert "kernels" not in nodes
            assert "served_from_cache" not in report.root.attrs

    def test_base_join_extended_by_a_delta_keeps_the_two_apart(self, rng):
        """The workers report the base join alone; the delta join of the rows
        appended before the first query is reported beside them."""
        with planned_service() as service:
            register_pair(service, rng)
            service.append("T", {"A1": rng.uniform(0, 1, 30)})
            report = service.explain("q", analyze=True)
            assert report.path == "plan_cache"  # EXPLAIN built the plan first
            nodes = {c.name: c for c in report.root.children}
            plan, delta = nodes["partitioning"], nodes["delta_join"]
            workers = [c for c in plan.children if c.name.startswith("worker")]
            assert sum(w.actuals["output"] for w in workers) == plan.actuals["output"]
            assert sum(w.actuals["input"] for w in workers) == plan.actuals["total_input"]
            assert (
                plan.actuals["output"] + delta.actuals["output"]
                == report.root.actuals["pairs"]
            )
            assert delta.actuals["input"] >= 30

    @pytest.mark.parametrize("analyze", [False, True], ids=["explain", "analyze"])
    def test_only_the_inline_node_prices_in_seconds(self, rng, analyze):
        """The cold decision's κ·L is the tree's one time estimate: there is
        no second, load-unit cost-model node beside it."""
        with explain_service() as service:
            register_pair(service, rng)
            service.query("q", epsilons=0.02)  # measures κ, so κ·L is priced
            report = service.explain("q", analyze=analyze)

            def walk(node):
                yield node
                for child in node.children:
                    yield from walk(child)

            nodes = list(walk(report.root))
            assert "cost_model" not in {node.name for node in nodes}
            priced = [node.name for node in nodes if "seconds" in node.estimates]
            assert priced == ["inline"]

    def test_report_serialization_and_render(self, rng):
        with planned_service() as service:
            register_pair(service, rng)
            report = service.explain("q", analyze=True)
            payload = json.loads(json.dumps(report.to_dict()))
            assert payload["analyze"] is True
            assert payload["plan"]["name"] == "band_join"
            text = format_plan_tree(payload)
            assert text.startswith("EXPLAIN ANALYZE q")
            assert "partitioning" in text and "(actual" in text and "q=" in text
            assert report.render() == text


class TestEstimateAccuracyTracker:
    def test_service_records_executed_queries_only(self, rng):
        with explain_service() as service:
            register_pair(service, rng)
            service.query("q")  # cold: executed
            assert service.calibration.observed == 1
            service.query("q")  # result cache: skipped
            assert service.calibration.observed == 1

    def test_a_cold_answer_is_accounted_against_its_decision_estimate(self, rng):
        """The q-error compares the estimate the cold decision priced, over
        the snapshots the answer covers, with the answer's pair count; an
        append after the answer changes neither."""
        with explain_service(staleness_threshold=10.0) as service:
            register_pair(service, rng, n_s=2000, n_t=1500)
            prepared = service.prepared("q")
            snapshots = prepared.snapshots()
            result = service.query("q")
            assert result.path == "cold"
            service.append("S", {"A1": rng.uniform(0, 1, 300)})
            prepared._sampled_estimates.clear()  # recompute, not recall
            expected = prepared.sampled_estimate(snapshots=snapshots)
            assert result.estimated_pairs == expected
            assert prepared.sampled_estimate() != expected  # the append mattered
            info = service.stats()["calibration"]
            assert info["observed"] == 1
            assert info["mean_qerror"] == qerror(expected, result.n_pairs)

    def test_cached_stale_and_delta_answers_are_not_accounted(self, rng, monkeypatch):
        with explain_service(
            staleness_threshold=10.0, scheduler_workers=1, max_pending=1
        ) as service:
            register_pair(service, rng)
            prepared = service.prepared("q")
            for eps in (0.01, 0.02):
                assert service.query("q", eps).path == "cold"
            answers = [service.query("q", 0.01)]
            service.append("S", {"A1": rng.uniform(0, 1, 30)})
            # While the only slot runs a delta answer at 0.02, a query at
            # 0.01 is answered from its stale cached result.
            gate = threading.Event()
            execute = prepared.execute

            def held(epsilons=None):
                gate.wait(timeout=30)
                return execute(epsilons)

            monkeypatch.setattr(prepared, "execute", held)
            blocker = service.submit("q", 0.02)
            answers.append(service.query("q", 0.01))
            gate.set()
            answers.append(blocker.result(timeout=60))
            assert [a.path for a in answers] == ["result_cache", "stale", "delta"]
            assert [a.estimated_pairs for a in answers] == [None] * 3
            assert service.calibration.observed == 2

    def test_a_synchronous_query_starts_no_scheduler_thread(self, rng):
        """The query runs, and its estimate is accounted, on the calling
        thread: no scheduler or accounting thread is started."""
        before = set(threading.enumerate())
        with explain_service(scheduler_workers=3) as service:
            register_pair(service, rng)
            service.query("q")
            assert service.calibration.observed == 1
            started = {t.name for t in threading.enumerate() if t not in before}
            assert not [t for t in threading.enumerate() if "accounting" in t.name]
        assert not [name for name in started if name.startswith("bandjoin-")]

    def test_qerror_histogram_in_prometheus(self, rng):
        with explain_service() as service:
            register_pair(service, rng)
            service.query("q")
            exposition = service.prometheus()
            assert 'repro_estimate_qerror_count{query="q"} 1' in exposition

    def test_mean_qerror_defaults_to_one(self):
        tracker = EstimateAccuracyTracker(registry=MetricsRegistry())
        assert tracker.mean_qerror() == 1.0

    def test_stats_surface_includes_calibration(self, rng):
        with explain_service() as service:
            register_pair(service, rng)
            service.query("q")
            info = service.stats()["calibration"]
            assert info["observed"] == 1
            assert info["mean_qerror"] >= 1.0
            assert set(info) == {"observed", "mean_qerror", "window"}


class TestEstimateQErrorSLO:
    def test_kind_registered(self):
        assert SLO_KINDS["estimate_qerror"] == "max"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(slo_max_estimate_qerror=0.5)

    def test_monitor_breaches_on_sustained_miscalibration(self):
        monitor = SLOMonitor(
            objectives=[SLO("estimate_qerror", "estimate_qerror", 2.0)],
            probes={"estimate_qerror": lambda: 5.0},
        )
        health = monitor.health()
        assert not health["healthy"]
        assert health["objectives"][0]["kind"] == "estimate_qerror"

    def test_service_objective_wiring(self, rng):
        with explain_service(slo_max_estimate_qerror=1e9) as service:
            register_pair(service, rng)
            service.query("q")
            health = service.health()
            kinds = {s["kind"] for s in health["objectives"]}
            assert "estimate_qerror" in kinds
            assert health["healthy"]


class TestProtocolAndCli:
    def test_explain_op_round_trip(self, rng):
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": rng.random(200).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(200).tolist()}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.05]},
            {"op": "explain", "query": "q"},
            {"op": "explain", "query": "q", "analyze": True, "epsilons": [0.02]},
            {"op": "quit"},
        ]
        out = io.StringIO()
        with explain_service() as service:
            serve_lines(service, [json.dumps(r) for r in requests], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        plain, analyzed = responses[3]["explain"], responses[4]["explain"]
        assert plain["analyze"] is False and plain["path"] is None
        assert analyzed["analyze"] is True
        assert analyzed["path"] in ("cold", "plan_cache")
        assert analyzed["plan"]["actuals"]["pairs"] >= 0
        assert analyzed["max_qerror"] is not None

    def test_cli_explain_over_tcp(self, rng, capsys):
        import socket
        import threading

        from repro import cli
        from repro.service import LineProtocolServer

        with planned_service() as service:
            register_pair(service, rng)
            server = LineProtocolServer(("127.0.0.1", 0), service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = str(server.server_address[1])
                assert cli.main(["explain", "q", "--port", port]) == 0
                text = capsys.readouterr().out
                assert text.startswith("EXPLAIN q") and "partitioning" in text
                assert cli.main(
                    ["explain", "q", "--port", port, "--analyze", "--json"]
                ) == 0
                payload = json.loads(capsys.readouterr().out)
                assert payload["analyze"] is True
                assert payload["plan"]["actuals"]["pairs"] >= 0
                assert cli.main(
                    ["explain", "q", "--port", port, "--epsilons", "bogus"]
                ) == 2
                capsys.readouterr()
            finally:
                server.shutdown()
                server.server_close()


class TestSharedRenderer:
    def test_trace_and_plan_trees_share_the_renderer(self):
        from repro.obs.render import format_attrs, render_tree

        lines = ["header"]
        render_tree(
            {"name": "root", "children": [{"name": "leaf"}]},
            lambda node, depth: node["name"] + format_attrs({"k": 1} if depth else None),
            lines=lines,
        )
        assert lines == ["header", "root", "  - leaf  [k=1]"]

    def test_format_trace_tree_unchanged(self):
        from repro.obs import format_trace_tree

        trace = {
            "trace_id": "t1",
            "root": {
                "name": "request",
                "duration": 0.01,
                "attrs": {},
                "children": [
                    {"name": "execute", "duration": 0.005, "attrs": {"path": "cold"},
                     "children": []}
                ],
            },
        }
        text = format_trace_tree(trace)
        assert "request 10.000 ms" in text
        assert "- execute 5.000 ms (50.0%)  [path=cold]" in text
