"""Global defaults used across the library.

Every default here can be overridden per call; the constants only centralize
the values so that tests, benchmarks and examples agree on a baseline
configuration.  The values mirror the paper's setup where possible
(``DEFAULT_BETA_RATIO`` = 4 matches the beta2/beta3 ratio profiled on the
paper's EMR cluster) and otherwise pick laptop-scale equivalents
(``DEFAULT_WORKERS`` = 8 instead of the paper's 30 EMR nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default number of simulated workers (the paper uses 15/30/60 EMR nodes).
DEFAULT_WORKERS: int = 8

#: Largest worker budget a served query accepts: 4x the paper's largest
#: cluster (60 nodes).  Planning and routing grow with the budget, so one
#: request naming millions of workers would stall or exhaust the server.
#: Library calls to ``ParallelJoinEngine.join`` are not bounded by it.
MAX_WORKERS: int = 256

#: Default combined sample size ``k`` (input sample + output sample) used by
#: the optimization phase.  The paper samples 100,000 input records from
#: 400M and sizes the output sample so statistics time stays below 5% of join
#: time; for the scaled-down inputs used here a sample of 8192 keeps the
#: per-leaf estimates accurate while optimization still takes well under a
#: second.
DEFAULT_SAMPLE_SIZE: int = 8192

#: Default per-input-tuple load weight (beta2 in the paper's load model).
DEFAULT_BETA_INPUT: float = 4.0

#: Default per-output-tuple load weight (beta3 in the paper's load model).
DEFAULT_BETA_OUTPUT: float = 1.0

#: beta2 / beta3 ratio profiled on the paper's cluster.
DEFAULT_BETA_RATIO: float = DEFAULT_BETA_INPUT / DEFAULT_BETA_OUTPUT

#: Default random seed so that every experiment is reproducible end-to-end.
DEFAULT_SEED: int = 20200413  # arXiv submission date of the paper.

#: Window size multiplier for the applied (cost-model) termination condition:
#: the paper uses a window of the last ``w`` repeat-loop iterations.
TERMINATION_WINDOW_PER_WORKER: int = 1

#: Relative improvement threshold for the applied termination condition.
TERMINATION_IMPROVEMENT_THRESHOLD: float = 0.01

#: A leaf is "small" in a dimension once its extent drops below this multiple
#: of the band width in that dimension (the paper uses twice the band width).
SMALL_PARTITION_FACTOR: float = 2.0

#: Safety cap on RecPart repeat-loop iterations (a small multiple of ``w`` is
#: expected; the cap only guards against pathological configurations).
MAX_ITERATIONS_PER_WORKER: int = 64

#: The :mod:`repro.engine` backends, accepted everywhere an engine choice is
#: taken.
ENGINE_BACKENDS: tuple[str, ...] = ("serial", "threads", "processes")

#: Default backend: tasks run one after another in the driver, which keeps
#: every experiment reproducible run to run.
DEFAULT_ENGINE_BACKEND: str = "serial"

#: Default machine-wide byte budget for the local-join kernels' transient
#: candidate buffers.  Pool-based backends divide it by the pool size so
#: concurrently running kernels do not over-allocate in aggregate.
DEFAULT_KERNEL_MEMORY_BUDGET: int = 256 * 1024 * 1024

#: Default maximum number of materialized results cached per prepared query.
DEFAULT_RESULT_CACHE_SIZE: int = 64

#: Default delta-to-base row fraction past which a catalog relation is
#: considered stale and compaction (merging the delta into the base) is triggered.
DEFAULT_STALENESS_THRESHOLD: float = 0.25

#: Default number of served queries executing at once.
DEFAULT_SCHEDULER_WORKERS: int = 4

#: Default admission-control limit on pending (queued + executing) queries.
DEFAULT_MAX_PENDING: int = 128

#: Default capacity of the workload recorder's in-memory event ring.
DEFAULT_CAPTURE_RING: int = 4096

#: Default background cadence (seconds) of the SLO monitor's evaluations.
DEFAULT_SLO_INTERVAL: float = 5.0

#: Relation storage backends accepted by the catalog and the service:
#: ``"memory"`` keeps every relation on the heap (the historical behavior);
#: ``"mmap"`` spills large relations to memory-mapped ``.npy`` segments so
#: the catalog can hold data bigger than RAM.
STORAGE_BACKENDS: tuple[str, ...] = ("memory", "mmap")

#: Default relation storage backend.
DEFAULT_STORAGE_BACKEND: str = "memory"

#: Default relation byte size past which ``--storage mmap`` spills a
#: registered relation to disk segments (smaller relations stay on the heap
#: — out-of-core machinery only pays off once data is big).
DEFAULT_SPILL_THRESHOLD_BYTES: int = 64 * 1024 * 1024

#: Segment-chain length past which an mmap relation's delta compaction
#: coalesces the chain into evenly sized segments (below it, compaction is a
#: pure O(delta) segment append).
MAX_SEGMENTS_BEFORE_REWRITE: int = 16


@dataclass(frozen=True)
class LoadWeights:
    """Weights of the linear per-worker load model ``L = beta_input * I + beta_output * O``.

    The paper (Section 2) models the load of worker ``i`` as
    ``L_i = beta2 * I_i + beta3 * O_i`` where ``I_i`` is the number of input
    tuples (including duplicates) assigned to the worker and ``O_i`` the
    number of output tuples it produces.
    """

    beta_input: float = DEFAULT_BETA_INPUT
    beta_output: float = DEFAULT_BETA_OUTPUT

    def __post_init__(self) -> None:
        if self.beta_input < 0 or self.beta_output < 0:
            raise ValueError("load weights must be non-negative")
        if self.beta_input == 0 and self.beta_output == 0:
            raise ValueError("at least one load weight must be positive")

    @property
    def ratio(self) -> float:
        """Return ``beta_input / beta_output`` (``inf`` if beta_output is 0)."""
        if self.beta_output == 0:
            return float("inf")
        return self.beta_input / self.beta_output

    def load(self, n_input: float, n_output: float) -> float:
        """Return the load induced by ``n_input`` input and ``n_output`` output tuples."""
        return self.beta_input * n_input + self.beta_output * n_output


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the online band-join serving layer.

    Attributes
    ----------
    backend:
        Execution backend of the underlying engine.  A served query runs
        inline on its calling thread whatever the backend.
    workers:
        Default partition-worker budget prepared queries are recorded with.
    result_cache_size:
        Capacity of each prepared query's materialized-result cache.
    staleness_threshold:
        Delta-to-base row fraction past which a relation is compacted
        (deltas merged into the base); ``math.inf`` never compacts.
    compaction:
        ``"background"`` (compact on a background thread, the serving
        default) or ``"sync"`` (compact inside the triggering append — used by
        tests and single-threaded scripts).
    scheduler_workers / max_pending:
        Queries executing at once (each on the thread that asked for it;
        further admitted queries wait for a slot in admission order) and
        admission-control limit on pending queries.
    kernel_memory_budget:
        Machine-wide byte budget of the local join's transient candidate
        buffers; the engine's backend splits it across concurrent tasks.
    max_estimated_pairs:
        Output-size admission control: a query whose cheap sampled output
        estimate exceeds this is rejected at submit time instead of holding
        a scheduler slot with a runaway dispatch.  ``None`` disables it.
    telemetry:
        Turn the process-wide telemetry switch on when the service starts
        (tracing spans, kernel profiling).  The library default is off;
        serving turns it on because a long-running server is exactly where
        the live stats surface pays for its (small) overhead.
    capture / capture_ring_size / capture_log:
        Workload capture: when ``capture`` is on (the default), a
        :class:`~repro.obs.workload.QueryLogRecorder` records one structured
        event per request into a bounded in-memory ring of
        ``capture_ring_size`` events; ``capture_log`` additionally spools
        every event (including relation data, so the log is replayable) to a
        JSONL file.
    slo_p99_seconds / slo_error_rate / slo_cache_hit_floor / slo_queue_depth:
        Declarative service-level objectives, each ``None`` (disabled) by
        default: p99 total-latency ceiling in seconds, failed-request
        fraction ceiling, result-cache hit-rate floor, and pending-queue
        depth ceiling.  Breaches are structured events, counted in the
        service registry and surfaced by ``{"op": "health"}``.
    slo_max_estimate_qerror:
        Ceiling on the mean output-cardinality estimate q-error over the
        recent executed-query window — sustained mis-estimation of output
        sizes becomes a health breach.  ``None`` disables it.
    slo_interval:
        Background evaluation cadence of the SLO monitor in seconds
        (``0`` evaluates only on demand, i.e. per ``health`` request).
    storage / spill_dir / spill_threshold_bytes:
        Relation storage: ``storage="mmap"`` spills registered relations of
        at least ``spill_threshold_bytes`` bytes to memory-mapped ``.npy``
        segments under ``spill_dir`` (a temp directory when ``None``), and
        out-of-core joins stream column slices instead of materializing
        matrices — the catalog can then hold data bigger than RAM.
        ``storage="memory"`` (default) keeps the historical all-heap
        behavior.
    inject_faults / fault_seed:
        Deterministic chaos: ``inject_faults`` is a fault spec like
        ``"worker_crash:0.1,task_slow:0.05,spill_torn:1"`` (see
        :func:`repro.faults.parse_fault_spec`), installed process-wide when
        the service starts; ``fault_seed`` makes firing decisions
        replayable.  ``None`` (default) injects nothing.
    degraded_mode:
        Overload behavior: ``"stale"`` (default) answers an overloaded
        request from a version-stale cached result — explicitly marked —
        when one exists; ``"reject"`` always raises
        :class:`~repro.exceptions.ServiceOverloadError`.
    default_deadline_seconds:
        End-to-end deadline applied to every query that does not pass its
        own (``None`` = unbounded): a query whose deadline lapses while it
        waits for a slot fails then, and the remaining budget bounds
        execution waits.
    """

    backend: str = "threads"
    workers: int = DEFAULT_WORKERS
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE
    staleness_threshold: float = DEFAULT_STALENESS_THRESHOLD
    compaction: str = "background"
    scheduler_workers: int = DEFAULT_SCHEDULER_WORKERS
    max_pending: int = DEFAULT_MAX_PENDING
    kernel_memory_budget: int = DEFAULT_KERNEL_MEMORY_BUDGET
    max_estimated_pairs: int | None = None
    telemetry: bool = True
    capture: bool = True
    capture_ring_size: int = DEFAULT_CAPTURE_RING
    capture_log: str | None = None
    slo_p99_seconds: float | None = None
    slo_error_rate: float | None = None
    slo_cache_hit_floor: float | None = None
    slo_queue_depth: int | None = None
    slo_max_estimate_qerror: float | None = None
    slo_interval: float = DEFAULT_SLO_INTERVAL
    storage: str = DEFAULT_STORAGE_BACKEND
    spill_dir: str | None = None
    spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES
    inject_faults: str | None = None
    fault_seed: int = DEFAULT_SEED
    degraded_mode: str = "stale"
    default_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in ENGINE_BACKENDS:
            raise ValueError(f"backend must be one of {ENGINE_BACKENDS}, got {self.backend!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")
        if self.result_cache_size < 1:
            raise ValueError("result_cache_size must be at least 1")
        if self.staleness_threshold <= 0:
            raise ValueError("staleness_threshold must be positive")
        if self.compaction not in ("background", "sync"):
            raise ValueError("compaction must be 'background' or 'sync'")
        if self.scheduler_workers < 1:
            raise ValueError("scheduler_workers must be at least 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.kernel_memory_budget < 1:
            raise ValueError("kernel_memory_budget must be positive")
        if self.max_estimated_pairs is not None and self.max_estimated_pairs < 1:
            raise ValueError("max_estimated_pairs must be positive when set")
        if self.capture_ring_size < 1:
            raise ValueError("capture_ring_size must be at least 1")
        if self.slo_p99_seconds is not None and self.slo_p99_seconds <= 0:
            raise ValueError("slo_p99_seconds must be positive when set")
        if self.slo_error_rate is not None and not 0 <= self.slo_error_rate <= 1:
            raise ValueError("slo_error_rate must be within [0, 1] when set")
        if self.slo_cache_hit_floor is not None and not 0 <= self.slo_cache_hit_floor <= 1:
            raise ValueError("slo_cache_hit_floor must be within [0, 1] when set")
        if self.slo_queue_depth is not None and self.slo_queue_depth < 1:
            raise ValueError("slo_queue_depth must be at least 1 when set")
        if self.slo_max_estimate_qerror is not None and self.slo_max_estimate_qerror < 1:
            raise ValueError(
                "slo_max_estimate_qerror must be at least 1 when set "
                "(a q-error of 1 is a perfect estimate)"
            )
        if self.slo_interval < 0:
            raise ValueError("slo_interval must be non-negative")
        if self.storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"storage must be one of {STORAGE_BACKENDS}, got {self.storage!r}"
            )
        if self.spill_threshold_bytes < 1:
            raise ValueError("spill_threshold_bytes must be positive")
        if self.inject_faults is not None:
            from repro.faults import parse_fault_spec

            parse_fault_spec(self.inject_faults)  # validates kinds and rates
        if self.degraded_mode not in ("stale", "reject"):
            raise ValueError(
                f"degraded_mode must be 'stale' or 'reject', got {self.degraded_mode!r}"
            )
        if self.default_deadline_seconds is not None and self.default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be positive when set")


@dataclass(frozen=True)
class RecPartConfig:
    """Tunable knobs of the RecPart optimizer.

    Attributes
    ----------
    sample_size:
        Total number of sample tuples (input sample plus output sample).
    symmetric:
        If ``True``, each split may duplicate either S or T (RecPart);
        if ``False``, T is always the duplicated side (RecPart-S).
    small_partition_factor:
        A leaf stops regular splitting in a dimension once its extent is
        below ``small_partition_factor * epsilon`` in that dimension.
    max_iterations:
        Hard cap on repeat-loop iterations; ``None`` derives the cap from the
        number of workers.
    termination:
        ``"applied"`` (cost-model window, the paper's default for the cloud
        experiments) or ``"theoretical"`` (lower-bound overhead balance).
    improvement_threshold:
        Minimum relative improvement over the termination window for the
        applied condition to keep going.
    scoring:
        Split-scoring measure: ``"ratio"`` (the paper's variance-reduction /
        duplication-increase ratio), ``"variance"`` (variance reduction only)
        or ``"duplication"`` (least duplication first among the splits that
        reduce load variance).  The non-default
        modes exist for the ablation study of the scoring measure.
    """

    sample_size: int = DEFAULT_SAMPLE_SIZE
    symmetric: bool = True
    small_partition_factor: float = SMALL_PARTITION_FACTOR
    max_iterations: int | None = None
    termination: str = "applied"
    improvement_threshold: float = TERMINATION_IMPROVEMENT_THRESHOLD
    scoring: str = "ratio"
    weights: LoadWeights = field(default_factory=LoadWeights)

    def __post_init__(self) -> None:
        if self.sample_size < 2:
            raise ValueError("sample_size must be at least 2")
        if self.small_partition_factor <= 0:
            raise ValueError("small_partition_factor must be positive")
        if self.termination not in ("applied", "theoretical"):
            raise ValueError("termination must be 'applied' or 'theoretical'")
        if not 0 < self.improvement_threshold < 1:
            raise ValueError("improvement_threshold must be in (0, 1)")
        if self.scoring not in ("ratio", "variance", "duplication"):
            raise ValueError("scoring must be 'ratio', 'variance' or 'duplication'")

    def iteration_cap(self, workers: int) -> int:
        """Return the effective repeat-loop iteration cap for ``workers`` workers."""
        if self.max_iterations is not None:
            return self.max_iterations
        return max(workers * MAX_ITERATIONS_PER_WORKER, 32)
