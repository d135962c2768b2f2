"""The two over-the-wire workloads: ``serve-mix`` and ``serve-append-mmap``.

Both start ``python -m repro serve --port 0`` as a subprocess and talk to it
over TCP with closed-loop clients: a client sends its next request only when
the previous answer has arrived.  Each client owns its relations and its
prepared query, so the path every query takes is fixed by the schedule, while
the scheduler, the plan cache, the pools and the interpreter lock are shared.

A schedule is a sequence of *cycles*.  A cycle ends by registering the
client's relations again (``"replace": true``), which puts the server back in
the state the cycle started from, so every cycle does the same work and a run
may stop after any step of it.

``serve-mix`` cycle, per client: three rounds of 4 never-seen epsilons
(``cold``), each re-queried 20 times (``result_cache``), an append of 0.5% to
S and the 4 epsilons again (``delta``); in the third round the query is
prepared again and the 4 epsilons run once more (``plan_cache``).

``serve-append-mmap`` cycle: 26 times append 2% (S and T in turn) then query.
The 13th append to a relation crosses the server's staleness threshold; the
client then polls ``catalog`` until the compaction has landed, so the query
that follows is ``cold`` and everything else ``delta``.  Each cycle registers
the base rows rotated by one more position: the pair count is the same, but
the content fingerprint is new, so no plan is ever reused across cycles.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

import machine
import oracle
import spec
from batch import pareto_columns
from layers import layer_of, replay_join, replay_metrics
import repro.obs as obs
from repro.config import ServiceConfig
from repro.exceptions import ReproError
from repro.geometry.band import BandCondition
from repro.service import BandJoinService
from repro.service.prepared import PreparedQuery
from repro.service.server import handle_request
from spans import SpanRecorder
from summary import coverage, layer_medians, median, tail

END_TO_END_NAMES = {metric.name for metric in spec.END_TO_END}

#: ``repro serve`` compacts a relation once its delta reaches this share of
#: its base (the server's default; the harness only reads it off the answers).
STALENESS_THRESHOLD = 0.25


@dataclass(frozen=True)
class ServeShape:
    clients: int
    rows: int
    dims: int
    chunk_rows: int
    s_chunks: int
    t_chunks: int
    eps_range: tuple[float, float]
    mmap: bool


SHAPES = {
    "serve-mix": ServeShape(
        clients=2, rows=20_000, dims=2, chunk_rows=100, s_chunks=3, t_chunks=0,
        eps_range=(0.005, 0.02), mmap=False,
    ),
    "serve-append-mmap": ServeShape(
        clients=1, rows=100_000, dims=1, chunk_rows=2_000, s_chunks=13, t_chunks=13,
        eps_range=(2e-5, 2e-5), mmap=True,
    ),
}

MIX_ROUNDS = 3
MIX_EPSILONS = 4
MIX_REPEATS = 20


# ---------------------------------------------------------------------- #
# Inputs and schedules
# ---------------------------------------------------------------------- #
class ClientData:
    """One client's relations, the rows it will append, and its oracle."""

    def __init__(self, shape: ServeShape, seed: int, client: int) -> None:
        self.shape = shape
        self.seed = seed
        self.client = client
        rng = np.random.default_rng([seed, 2, client])
        self.attributes = [f"A{k + 1}" for k in range(shape.dims)]
        self.s_base = np.column_stack(pareto_columns(rng, shape.rows, shape.dims))
        self.t_base = np.column_stack(pareto_columns(rng, shape.rows, shape.dims))
        self.s_chunks = [
            np.column_stack(pareto_columns(rng, shape.chunk_rows, shape.dims))
            for _ in range(shape.s_chunks)
        ]
        self.t_chunks = [
            np.column_stack(pareto_columns(rng, shape.chunk_rows, shape.dims))
            for _ in range(shape.t_chunks)
        ]
        self.names = {"S": f"S{client}", "T": f"T{client}", "query": f"q{client}"}
        self._reference: oracle.CountReference | None = None

    def columns(self, matrix: np.ndarray) -> dict:
        return {a: matrix[:, k].tolist() for k, a in enumerate(self.attributes)}

    def base(self, side: str, cycle: int) -> np.ndarray:
        """Return the rows registered for ``cycle``: rotated under mmap."""
        matrix = self.s_base if side == "S" else self.t_base
        return np.roll(matrix, cycle, axis=0) if self.shape.mmap else matrix

    def full(self, side: str, cycle: int) -> np.ndarray:
        """Return the base of ``cycle`` followed by every chunk, in append order."""
        chunks = self.s_chunks if side == "S" else self.t_chunks
        return np.concatenate([self.base(side, cycle), *chunks])

    def reference(self) -> oracle.CountReference:
        if self._reference is None:
            self._reference = oracle.CountReference.build(
                self.full("S", 0), self.full("T", 0), self.shape.eps_range[1]
            )
        return self._reference

    # -- requests ------------------------------------------------------- #
    def register(self, side: str, cycle: int) -> tuple:
        request = {
            "op": "register", "name": self.names[side], "replace": True,
            "columns": self.columns(self.base(side, cycle)),
        }
        return ("register", request)

    def append(self, side: str, index: int) -> tuple:
        chunk = (self.s_chunks if side == "S" else self.t_chunks)[index]
        return ("append", {"op": "append", "name": self.names[side], "columns": self.columns(chunk)})

    def prepare(self) -> tuple:
        request = {
            "op": "prepare", "query": self.names["query"], "replace": True,
            "s": self.names["S"], "t": self.names["T"], "attributes": self.attributes,
        }
        return ("prepare", request)

    def query(self, eps: float) -> tuple:
        request = {
            "op": "query", "query": self.names["query"],
            "epsilons": [eps] * self.shape.dims, "sample": 3,
        }
        return ("query", request)

    # -- schedule ------------------------------------------------------- #
    def cycle(self, cycle: int):
        """Yield the steps of one cycle, each a list of ``(cycle, kind, request)``.

        A run may stop after any step.  The cycle tagged on an op is the one
        whose base rows the op works on: the registers that close cycle ``c``
        carry the rows of cycle ``c + 1``.  Cycle 0 is the warm-up cycle.
        """
        if self.shape.mmap:
            eps = self.shape.eps_range[0]
            for index in range(self.shape.s_chunks):
                for side in ("S", "T"):
                    yield [(cycle, *self.append(side, index)), (cycle, *self.query(eps))]
        else:
            for round_index in range(MIX_ROUNDS):
                yield self._mix_round(cycle, round_index, round_index == MIX_ROUNDS - 1)
        yield [(cycle + 1, *self.register("S", cycle + 1)), (cycle + 1, *self.register("T", cycle + 1))]

    def _mix_round(self, cycle: int, round_index: int, prepare_again: bool) -> list:
        """One ``serve-mix`` round: cold, result-cache and delta queries on 4
        fresh epsilons, and plan-cache queries when the query is prepared again."""
        low, high = self.shape.eps_range
        draws = np.random.default_rng([self.seed, 3, self.client, cycle, round_index])
        epsilons = [float(e) for e in draws.uniform(low, high, size=MIX_EPSILONS)]
        ops = [self.query(eps) for eps in epsilons]
        ops += [self.query(eps) for eps in epsilons for _ in range(MIX_REPEATS)]
        ops.append(self.append("S", round_index))
        ops += [self.query(eps) for eps in epsilons]
        if prepare_again:
            ops.append(self.prepare())
            ops += [self.query(eps) for eps in epsilons]
        return [(cycle, *op) for op in ops]

    def warm_up(self) -> list:
        """Return the steps that register, prepare and then touch every op
        type at least twice, closed by the registers every cycle ends with."""
        opening = [(0, *self.register("S", 0)), (0, *self.register("T", 0)), (0, *self.prepare())]
        steps = list(self.cycle(0))
        body = steps[:2] if self.shape.mmap else [self._mix_round(0, 0, prepare_again=True)]
        return [opening, *body, steps[-1]]

    def schedule(self):
        """Yield the steps of cycles 1, 2, ... without end."""
        cycle = 1
        while True:
            yield from self.cycle(cycle)
            cycle += 1


def schedule_bytes(name: str, seed: int, client: int, ops: int) -> bytes:
    """Return the first ``ops`` requests of a client's schedule as bytes —
    what ``tests/test_schedule.py`` compares between two builds of one seed."""
    data = ClientData(SHAPES[name], seed, client)
    lines = []
    for step in data.schedule():
        lines.extend(json.dumps(request) for _, _, request in step)
        if len(lines) >= ops:
            return "\n".join(lines[:ops]).encode()


# ---------------------------------------------------------------------- #
# Transports: the same client drives a socket or an in-process service
# ---------------------------------------------------------------------- #
class Wire:
    """One TCP connection speaking the JSON-lines protocol."""

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.socket.makefile("rwb")

    def roundtrip(self, request: dict) -> tuple[dict, float]:
        """Send one request; the clock covers encoding it and waiting for the answer."""
        start = time.perf_counter()
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        elapsed = time.perf_counter() - start
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), elapsed

    def close(self) -> None:
        self.file.close()
        self.socket.close()


class InProcess:
    """The server's request path without the socket, one span per stage."""

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self.service = service
        self.recorder = recorder

    def roundtrip(self, request: dict) -> tuple[dict, float]:
        line = json.dumps(request)
        recorder = self.recorder
        recorder.op_id += 1
        start = time.perf_counter()
        with recorder.span("op") as root:
            if root is not None:
                root["kind"] = request["op"]
            with recorder.span("server.parse"):
                decoded = json.loads(line)
            with recorder.span("server.handle", adopt=True):
                try:
                    response = handle_request(self.service, decoded)
                except ReproError as exc:
                    response = {"ok": False, "error": str(exc)}
            with recorder.span("server.serialize"):
                json.dumps(response)
        return response, time.perf_counter() - start


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root, flags, log_path) -> None:
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True,
        )
        ready = self.process.stdout.readline()
        if not ready:
            self.stop()
            raise RuntimeError("repro serve did not start; see " + str(log_path))
        self.port = json.loads(ready)["port"]
        self.pid = self.process.pid

    def stop(self) -> None:
        """Terminate the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


# ---------------------------------------------------------------------- #
# The closed-loop client
# ---------------------------------------------------------------------- #
class Client:
    """Drives one client's schedule over a transport and logs every op."""

    def __init__(self, data: ClientData, transport) -> None:
        self.data = data
        self.transport = transport
        self.log: list[dict] = []
        #: ``{side: {version: (cycle, rows)}}`` from register / append answers:
        #: what the relation held at each version the server may report.
        self.versions = {"S": {}, "T": {}}
        #: ``(queries, seconds)`` of each step :meth:`run` has done.
        self.steps: list[tuple[int, float]] = []
        #: Called between the steps of :meth:`run`, outside any op's clock.
        self.after_step = lambda: None

    def _send(self, cycle: int, kind: str, request: dict) -> dict:
        response, seconds = self.transport.roundtrip(request)
        entry = {"kind": kind, "cycle": cycle, "seconds": seconds, "ok": bool(response.get("ok"))}
        self.log.append(entry)
        if not entry["ok"]:
            entry["error"] = response.get("error")
            return response
        if kind in ("register", "append"):
            side = "S" if request["name"] == self.data.names["S"] else "T"
            relation = response["relation"]
            # An append belongs to the cycle that registered its base.
            self.versions[side][relation["version"]] = (cycle, relation["rows"])
            entry["rows"] = len(next(iter(request["columns"].values())))
            entry["segments"] = relation["segments"]
            entry["storage"] = relation["storage"]
        elif kind == "query":
            entry.update(
                eps=request["epsilons"][0], pairs=response["pairs"], path=response["path"],
                s_version=response["s"]["version"], t_version=response["t"]["version"],
                sample=response.get("sample", []), stale=bool(response.get("stale")),
            )
        return response

    def _await_compaction(self, cycle: int, name: str) -> None:
        """Poll ``catalog`` until the relation's delta has been merged."""
        start = time.perf_counter()
        while self.transport.roundtrip({"op": "catalog"})[0]["catalog"][name]["delta_rows"]:
            time.sleep(0.001)
        self.log.append(
            {"kind": "compaction", "cycle": cycle, "ok": True, "seconds": time.perf_counter() - start}
        )

    def do(self, step) -> None:
        """Send the ops of one step, waiting out any compaction an append triggers."""
        for cycle, kind, request in step:
            response = self._send(cycle, kind, request)
            if (
                kind == "append" and response.get("ok")
                and response["relation"]["staleness"] >= STALENESS_THRESHOLD
            ):
                self._await_compaction(cycle, request["name"])

    def run(self, seconds: float) -> None:
        """Run the schedule step by step until ``seconds`` have passed."""
        start = time.perf_counter()
        for step in self.data.schedule():
            step_start = time.perf_counter()
            self.do(step)
            queries = sum(1 for _, kind, _ in step if kind == "query")
            self.steps.append((queries, time.perf_counter() - step_start))
            self.after_step()
            if time.perf_counter() - start >= seconds:
                break

    # -- checking (after the clock has stopped) -------------------------- #
    def failures(self) -> int:
        """Return how many logged ops failed, were refused or answered wrong
        (each is also reported on stderr)."""
        reference = self.data.reference()
        dims = self.data.shape.dims
        full: dict[tuple[str, int], np.ndarray] = {}
        bounds: dict[tuple, tuple[int, int]] = {}
        failed = 0
        for entry in self.log:
            if not entry["ok"]:
                print(f"client {self.data.client}: op refused or failed: {entry}", file=sys.stderr)
                failed += 1
                continue
            if entry["kind"] != "query":
                continue
            s_state = self.versions["S"].get(entry["s_version"])
            t_state = self.versions["T"].get(entry["t_version"])
            if entry["stale"] or s_state is None or t_state is None or s_state[0] != t_state[0]:
                print(f"client {self.data.client}: stale or unknown versions: {entry}", file=sys.stderr)
                failed += 1
                continue
            cycle, s_rows, t_rows, eps = s_state[0], s_state[1], t_state[1], entry["eps"]
            key = (s_rows, t_rows, eps)
            if key not in bounds:
                bounds[key] = reference.bounds(s_rows, t_rows, eps)
            least, most = bounds[key]
            good = least <= entry["pairs"] <= most
            for s_row, t_row in entry["sample"]:
                for side in ("S", "T"):
                    if (side, cycle) not in full:
                        full[(side, cycle)] = self.data.full(side, cycle)
                good = good and s_row < s_rows and t_row < t_rows and oracle.satisfies(
                    full[("S", cycle)][s_row], full[("T", cycle)][t_row],
                    [eps] * dims, reference.tolerance,
                )
            if not good:
                print(
                    f"client {self.data.client}: wrong answer, expected {least}..{most} pairs "
                    f"for {s_rows} x {t_rows} rows: {entry}", file=sys.stderr,
                )
                failed += 1
        return failed


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #
class ServeWorkload:
    """One over-the-wire workload over inputs generated from ``seed``."""

    def __init__(self, name: str, seed: int, root, scratch) -> None:
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.root = root
        self.scratch = scratch
        self.server: Server | None = None
        self.spill_dir: str | None = None
        self.clients: list[Client] = []

    def info(self) -> dict:
        return {
            "clients": self.shape.clients, "loop": "closed",
            "server": "python -m repro serve --port 0 " + " ".join(self._flags("<tmp>")),
        }

    def _flags(self, spill_dir: str) -> list[str]:
        if not self.shape.mmap:
            return []
        return ["--storage", "mmap", "--spill-dir", spill_dir, "--spill-threshold-bytes", "1"]

    # -- set-up --------------------------------------------------------- #
    def set_up(self) -> float:
        """Start the server, generate and register the inputs, prepare the
        queries and run the warm-up cycle; return seconds."""
        start = time.perf_counter()
        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
        self.server = Server(
            self.root, self._flags(self.spill_dir), self.scratch / f"server-{self.name}.log"
        )
        self.clients = [
            Client(ClientData(self.shape, self.seed, index), Wire(self.server.port))
            for index in range(self.shape.clients)
        ]
        _in_threads(self._warm_up, self.clients)
        return time.perf_counter() - start

    @staticmethod
    def _warm_up(client: Client) -> None:
        for step in client.data.warm_up():
            client.do(step)
        if client.failures():
            raise RuntimeError(f"warm-up of client {client.data.client} failed: {client.log}")
        client.log.clear()

    def close(self) -> None:
        for client in self.clients:
            client.transport.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None

    # -- the wire pass (both modes) ------------------------------------- #
    def _drive(self, seconds: float) -> dict:
        """Run every client for ``seconds``; return the client-observed numbers."""
        spilled_start = _tree_bytes(self.spill_dir)
        cpu_start = machine.cpu_seconds(self.server.pid)
        # Client 0 marks the memory intervals: a reading covers whatever all
        # clients did during one of its steps.
        peak = machine.PeakRss(self.server.pid)
        self.clients[0].after_step = peak.read
        _in_threads(lambda client: client.run(seconds), self.clients)
        cpu = machine.cpu_seconds(self.server.pid) - cpu_start
        stats = self.clients[0].transport.roundtrip({"op": "stats"})[0]["stats"]
        spilled = _tree_bytes(self.spill_dir) - spilled_start

        log = [entry for client in self.clients for entry in client.log]
        queries = [e for e in log if e["kind"] == "query" and e["ok"]]
        latencies = [e["seconds"] for e in queries]
        n = len(latencies)
        tail_value, tail_percentile = tail(latencies)
        metrics = {
            "op_p50_s": {"value": median(latencies), "samples": n},
            "op_tail_s": {"value": tail_value, "samples": n, "percentile": tail_percentile},
            # The rate is taken per step and the median reported, so a stall
            # of the box moves one reading, not the result.
            "ops_per_s": {
                "value": sum(
                    median([queries / seconds for queries, seconds in client.steps if queries])
                    for client in self.clients
                ),
                "samples": sum(len(client.steps) for client in self.clients),
            },
            "cpu_s_per_op": {"value": cpu / n, "samples": n},
            "peak_rss_mb": peak.metric(),
        }
        paths: dict[str, list[float]] = {}
        for entry in queries:
            paths.setdefault(entry["path"], []).append(entry["seconds"])
        for path, values in paths.items():
            metrics[f"{path}_p50_s"] = {"value": median(values), "samples": len(values)}
        appends = [e for e in log if e["kind"] == "append" and e["ok"]]
        ingests = appends + [e for e in log if e["kind"] == "register" and e["ok"]]
        metrics["append_p50_s"] = {"value": median([e["seconds"] for e in appends]), "samples": len(appends)}
        metrics["ingest_rows_per_s"] = {
            "value": sum(e["rows"] for e in ingests) / sum(e["seconds"] for e in ingests),
            "samples": len(ingests),
        }
        compactions = [e["seconds"] for e in log if e["kind"] == "compaction"]
        prepared = stats["prepared"].values()
        hits = sum(p["result_cache"]["hits"] for p in prepared)
        lookups = hits + sum(p["result_cache"]["misses"] for p in prepared)
        layer = {
            "plan_cache.hit_rate": {"value": stats["plan_cache"]["hit_rate"]},
            "scheduler.queue_s": {
                "value": stats["scheduler"]["latency"]["mean_queue_seconds"],
                "samples": stats["scheduler"]["latency"]["samples"],
            },
            "scheduler.rejected": {"value": stats["scheduler"]["rejected"]},
            "scheduler.deduplicated": {"value": stats["scheduler"]["deduplicated"]},
            "prepared.result_cache_hit_rate": {"value": hits / lookups, "samples": lookups},
            "catalog.compactions": {"value": len(compactions)},
            "storage.segments_max": {"value": max(e["segments"] for e in ingests)},
        }
        if compactions:
            layer["catalog.compact_wait_s"] = {"value": median(compactions), "samples": len(compactions)}
        if self.shape.mmap:
            ingested = 8 * self.shape.dims * sum(e["rows"] for e in ingests)
            layer["storage.bytes_per_user_byte"] = {"value": spilled / ingested}
        return {
            "attempted": len(log),
            "failed": sum(client.failures() for client in self.clients),
            "metrics": metrics,
            "layer": layer,
            "info": {
                "paths": {path: len(values) for path, values in sorted(paths.items())},
                "storage": sorted({e["storage"] for e in ingests}),
                "compactions": len(compactions),
                "cycles": max(e["cycle"] for e in log),
            },
        }

    def timed(self, seconds: float) -> dict:
        outcome = self._drive(seconds)
        outcome.pop("layer")
        return outcome

    # -- traced pass ---------------------------------------------------- #
    def traced(self, seconds: float, trace_path) -> dict:
        """A shorter wire pass for the numbers only the wire has, then client
        0's schedule replayed in process with a span per server stage, then
        the cold queries it met taken apart through the engine's functions."""
        wire = self._drive(0.35 * seconds)
        wire_log = [entry for client in self.clients for entry in client.log if entry["ok"]]
        self.close()  # the replay below is this process's own service

        recorder = SpanRecorder()
        service, client = self._replay_service(recorder)
        try:
            overhead = self._replay(recorder, service, client, 0.35 * seconds)
            apart = self._take_apart(recorder, service, client, 0.3 * seconds)
        finally:
            service.close()
            obs.disable()  # the service switched telemetry on for the process
        recorder.write(trace_path)
        replay_log = [entry for entry in client.log if entry["ok"]]

        kind_of = {s["op_id"]: s.get("kind") for s in recorder.spans if s["name"] == "op"}
        query_ops = {op_id for op_id, kind in kind_of.items() if kind == "query"}
        self_s = layer_medians([s for s in recorder.spans if s["op_id"] in query_ops], layer_of)

        def timing(name, where=lambda span: True):
            values = [s["end"] - s["start"] for s in recorder.spans if s["name"] == name and where(s)]
            return {"value": median(values), "samples": len(values)} if values else None

        # Wire overhead: the same op over the socket and through
        # handle_request.  Result-cache hits where the workload has them (the
        # cheapest answer, so the wire is most of it), appends otherwise.
        def same_op(entry):
            if "result_cache" in wire["info"]["paths"]:
                return entry.get("path") == "result_cache"
            return entry["kind"] == "append"

        over_wire = [e["seconds"] for e in wire_log if same_op(e)]
        in_process = [e["seconds"] for e in replay_log if same_op(e)]
        wire_metrics = wire["metrics"]
        metrics = {
            **wire["layer"],
            **{name: wire_metrics[name] for name in wire_metrics if name not in END_TO_END_NAMES},
            # Parsing matters where requests are big (appends carry rows),
            # serialising where answers are (queries carry pairs).
            "server.parse_s": timing("server.parse", lambda s: kind_of[s["op_id"]] == "append"),
            "server.serialize_s": timing("server.serialize", lambda s: s["op_id"] in query_ops),
            "server.wire_overhead_s": {
                "value": median(over_wire) - median(in_process), "samples": len(over_wire),
            },
            "prepared.delta_execute_s": timing("prepared.execute", lambda s: s.get("path") == "delta"),
            "catalog.register_s": timing("catalog.register"),
            "catalog.append_s": timing("catalog.append"),
            "trace.coverage": {
                "value": coverage(self_s.values(), wire_metrics["op_p50_s"]["value"]),
                "samples": len(query_ops),
            },
            "trace.overhead": overhead,
            **apart["metrics"],
        }
        return {
            "attempted": wire["attempted"] + len(client.log) + apart["attempted"],
            "failed": wire["failed"] + client.failures() + apart["failed"],
            "metrics": {name: value for name, value in metrics.items() if value is not None},
            "info": {
                **wire["info"],
                "layer_self_s": self_s,
                "untraced_op_p50_s": wire_metrics["op_p50_s"]["value"],
                "replayed_ops": len(kind_of),
            },
        }

    def _replay(self, recorder: SpanRecorder, service, client: "Client", budget: float) -> dict:
        """Run client 0's schedule through ``handle_request``, tracing every
        other step; return the tracing overhead on query ops."""
        traced_s, untraced_s = [], []
        start = time.perf_counter()
        trace_next = False
        with _trace_service(recorder, service):
            for step in client.data.schedule():
                # Register steps are rare and hold no query, so they are
                # always traced and do not take a turn.
                registers = step[0][1] == "register"
                if not registers:
                    trace_next = not trace_next
                recorder.enabled = registers or trace_next
                mark = len(client.log)
                client.do(step)
                queries = [e["seconds"] for e in client.log[mark:] if e["kind"] == "query"]
                (traced_s if recorder.enabled else untraced_s).extend(queries)
                if time.perf_counter() - start >= budget and traced_s and untraced_s:
                    break
        recorder.enabled = True
        return {"value": median(traced_s) / median(untraced_s), "samples": len(traced_s)}

    def _replay_service(self, recorder: SpanRecorder):
        """Build this process's own service, configured as the server's flags
        configure it, with client 0 registered, prepared and warmed up."""
        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
        config = (
            ServiceConfig(storage="mmap", spill_dir=self.spill_dir, spill_threshold_bytes=1)
            if self.shape.mmap else ServiceConfig()
        )
        service = BandJoinService(config=config)
        recorder.enabled = False
        client = Client(ClientData(self.shape, self.seed, 0), InProcess(service, recorder))
        self._warm_up(client)
        return service, client

    def _take_apart(self, recorder: SpanRecorder, service, client: "Client", budget: float) -> dict:
        """Replay cold joins of the client's relations through the engine's
        public functions, one traced step at a time, for the epsilons the
        replay met on the cold path."""
        data = client.data
        cold = sorted({e["eps"] for e in client.log if e.get("path") == "cold"})
        replays, failed = [], 0
        first_op = recorder.op_id + 1
        start = time.perf_counter()
        for eps in cold:
            if replays and time.perf_counter() - start >= budget:
                break
            s_base = service.catalog.get(data.names["S"]).base
            t_base = service.catalog.get(data.names["T"]).base
            condition = BandCondition.symmetric(data.attributes, [eps] * data.shape.dims)
            recorder.op_id += 1
            with recorder.span("op"):
                replay = replay_join(
                    recorder, service.engine, s_base, t_base, condition,
                    service.config.workers, None,
                )
            least, most = data.reference().bounds(len(s_base), len(t_base), eps)
            failed += not least <= replay.pairs.shape[0] <= most
            replay.pairs = None
            replays.append(replay)
        return {
            "attempted": len(replays),
            "failed": failed,
            "metrics": replay_metrics(recorder, replays, since=first_op),
        }


class _trace_service:
    """Put spans around the calls the server makes into the layers below it:
    ``PreparedQuery.execute`` (tagged with the path it took) and the catalog's
    ``register`` / ``append``."""

    def __init__(self, recorder: SpanRecorder, service) -> None:
        self.recorder = recorder
        self.service = service

    def __enter__(self):
        recorder = self.recorder
        self._execute = original = PreparedQuery.execute

        def execute(prepared, *args, **kwargs):
            with recorder.span("prepared.execute") as span:
                result = original(prepared, *args, **kwargs)
                if span is not None:
                    span["path"] = result.path
                return result

        PreparedQuery.execute = execute
        catalog = self.service.catalog
        self._catalog = (catalog.register, catalog.append)
        catalog.register = recorder.wrap("catalog.register", catalog.register)
        catalog.append = recorder.wrap("catalog.append", catalog.append)
        return self

    def __exit__(self, *exc_info) -> None:
        PreparedQuery.execute = self._execute
        self.service.catalog.register, self.service.catalog.append = self._catalog


def _in_threads(function, clients) -> None:
    """Run ``function(client)`` for every client at once; re-raise a failure."""
    errors = []

    def guarded(client):
        try:
            function(client)
        except Exception as exc:  # noqa: BLE001 - handed to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _tree_bytes(directory: str) -> int:
    """Return the bytes of all files under ``directory``."""
    total = 0
    for folder, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
