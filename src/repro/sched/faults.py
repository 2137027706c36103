"""Seeded fault injection and resilience for the scheduling simulator.

The trace schema carries terminal statuses (PASSED/FAILED/KILLED) and the
paper's use cases stress how failed and killed jobs waste cluster capacity,
yet the baseline simulator models a perfect machine: every job runs to its
recorded runtime and nodes never fail.  This module makes the machine
imperfect, deterministically:

* a **node-failure process** — per-node exponential MTBF/MTTR draws; a
  failed node kills every job holding units on it, drains, and returns
  after repair.  Works on both the flat core pool (via
  :class:`FaultyCluster`, which pins each allocation to an explicit node
  layout so failures have concrete victims) and the packing-aware
  :class:`~repro.sched.nodes.NodeCluster`;
* **intrinsic job faults** calibrated from a trace's FAILED/KILLED mix
  (:meth:`FaultConfig.from_workload`): a FAILED attempt aborts partway
  through and may be retried; a KILLED job is cancelled by its user and
  never retried;
* **retry with exponential backoff** (``max_attempts`` / ``backoff_base``
  / ``backoff_factor``) and an optional **checkpoint/restart model**
  (``checkpoint_interval``): a node-killed job resumes from its last
  checkpoint instead of from zero.  Intrinsic failures invalidate
  checkpoints — the computation itself was wrong;
* :func:`simulate_with_faults` and :func:`simulate_packed_with_faults`,
  the fault-aware twins of :func:`repro.sched.simulate` and
  :func:`repro.sched.nodes.simulate_packed`.

Everything is reproducible from ``FaultConfig.seed`` alone, and a null
config (:data:`NO_FAULTS`) reduces *exactly* to the baseline engines —
identical starts, waits and makespan (asserted by the property tests in
``tests/test_sim_invariants.py``).
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from ..obs import events as ev
from ..obs.profiling import NULL_PROFILER, PhaseClock
from ..traces.schema import JobStatus, Trace
from .backfill import BackfillConfig, EASY
from .cluster import Cluster
from .job import SimWorkload
from .nodes import NodeCluster
from .policies import Policy, get_policy

__all__ = [
    "ATTEMPT_COMPLETED",
    "ATTEMPT_NODE_KILLED",
    "ATTEMPT_FAILED",
    "ATTEMPT_USER_KILLED",
    "FaultConfig",
    "NO_FAULTS",
    "FaultyCluster",
    "FaultSimResult",
    "simulate_with_faults",
    "simulate_packed_with_faults",
]

#: attempt-log outcome codes
ATTEMPT_COMPLETED = 0
ATTEMPT_NODE_KILLED = 1
ATTEMPT_FAILED = 2
ATTEMPT_USER_KILLED = 3

# event priorities at equal timestamps: completions free capacity first,
# then failures strike, repairs return, retries rejoin the queue
_P_FINISH, _P_FAIL, _P_REPAIR, _P_RESUBMIT = 0, 1, 2, 3

_INF = float("inf")


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault-injection layer; one ``seed`` drives everything.

    Parameters
    ----------
    node_mtbf:
        Mean time between failures *per node* (seconds, exponential);
        ``inf`` (the default) disables node failures entirely.
    node_mttr:
        Mean time to repair a failed node (seconds, exponential).
    n_nodes:
        Node granularity imposed on the flat core pool (ignored by the
        packed engine, which has real nodes).  Capacity is split as evenly
        as possible across nodes; with node failures on, the engines
        reject more nodes than cores (:meth:`check_capacity`).
    fail_prob:
        Per-attempt probability of an intrinsic failure (the trace's
        FAILED class): the attempt aborts at a uniform fraction of its
        planned duration and may be retried.
    kill_prob:
        Per-attempt probability of a user cancellation (the KILLED class):
        the job ends at a uniform fraction of its planned duration and is
        never retried.
    max_attempts:
        Total attempts a job may consume (first run included); 1 disables
        retries.
    backoff_base / backoff_factor:
        Resubmission delay after the k-th attempt dies is
        ``backoff_base * backoff_factor**(k-1)`` seconds.
    checkpoint_interval:
        Checkpoint period in seconds; a node-killed job resumes from its
        last completed checkpoint.  ``None`` restarts from zero.
    seed:
        Seed of the single RNG behind every draw.
    """

    node_mtbf: float = math.inf
    node_mttr: float = 3600.0
    n_nodes: int = 16
    fail_prob: float = 0.0
    kill_prob: float = 0.0
    max_attempts: int = 1
    backoff_base: float = 60.0
    backoff_factor: float = 2.0
    checkpoint_interval: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if math.isnan(self.node_mtbf) or self.node_mtbf <= 0:
            raise ValueError("node_mtbf must be positive (inf disables)")
        if self.node_mttr <= 0 or not math.isfinite(self.node_mttr):
            raise ValueError("node_mttr must be positive and finite")
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if not 0.0 <= self.fail_prob <= 1.0 or not 0.0 <= self.kill_prob <= 1.0:
            raise ValueError("fail_prob/kill_prob must be probabilities")
        if self.fail_prob + self.kill_prob > 1.0:
            raise ValueError("fail_prob + kill_prob exceeds 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts counts the first run; minimum 1")
        if not all(map(math.isfinite, (self.backoff_base, self.backoff_factor))):
            raise ValueError("backoff_base and backoff_factor must be finite")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base >= 0 and backoff_factor >= 1 required")
        if self.checkpoint_interval is not None and not (
            math.isfinite(self.checkpoint_interval) and self.checkpoint_interval > 0
        ):
            raise ValueError("checkpoint_interval must be positive and finite, or None")

    def check_capacity(self, capacity: int) -> None:
        """Raise :class:`ValueError` unless every failure node gets a core.

        Only node failures split the pool into ``n_nodes`` nodes, so the
        check binds only when they are active.
        """
        if self.has_node_faults and self.n_nodes > capacity:
            raise ValueError(
                f"n_nodes={self.n_nodes} exceeds cluster capacity {capacity}: "
                "every failure node needs at least one core"
            )

    @property
    def has_node_faults(self) -> bool:
        """Whether the node MTBF process is active."""
        return math.isfinite(self.node_mtbf)

    @property
    def has_intrinsic_faults(self) -> bool:
        """Whether jobs can fail/be killed on their own."""
        return (self.fail_prob + self.kill_prob) > 0.0

    @property
    def is_null(self) -> bool:
        """True when this config injects nothing (baseline behaviour)."""
        return not (self.has_node_faults or self.has_intrinsic_faults)

    @classmethod
    def from_workload(cls, workload: SimWorkload, **overrides) -> "FaultConfig":
        """Config whose intrinsic mix matches the workload's recorded statuses.

        Requires statuses propagated from the trace
        (:func:`~repro.sched.job.workload_from_trace` does); keyword
        overrides set every other knob.
        """
        status = workload.status
        params: dict = {
            "fail_prob": float((status == int(JobStatus.FAILED)).mean()),
            "kill_prob": float((status == int(JobStatus.KILLED)).mean()),
        }
        params.update(overrides)
        return cls(**params)

    @classmethod
    def from_trace(cls, trace: Trace, **overrides) -> "FaultConfig":
        """Same calibration as :meth:`from_workload`, from a raw trace."""
        status = trace["status"]
        params: dict = {
            "fail_prob": float((status == int(JobStatus.FAILED)).mean()),
            "kill_prob": float((status == int(JobStatus.KILLED)).mean()),
        }
        params.update(overrides)
        return cls(**params)


#: the null config: no node failures, no intrinsic faults, no retries
NO_FAULTS = FaultConfig()


class FaultyCluster(Cluster):
    """Flat core pool with an explicit node layout so failures have victims.

    Allocation semantics are identical to :class:`Cluster` — jobs may span
    nodes, so a job starts whenever enough units are free anywhere — but
    every allocation is pinned to concrete nodes (first-fit by node index,
    deterministic) so a node failure kills exactly the jobs holding units
    on it.  Down nodes contribute no capacity until repaired.
    """

    __slots__ = ("n_nodes", "node_size", "node_free", "_spans", "_down")

    def __init__(self, capacity: int, n_nodes: int) -> None:
        super().__init__(capacity)
        n_nodes = max(min(int(n_nodes), int(capacity)), 1)
        base, extra = divmod(int(capacity), n_nodes)
        self.n_nodes = n_nodes
        self.node_size = np.array(
            [base + (1 if i < extra else 0) for i in range(n_nodes)],
            dtype=np.int64,
        )
        self.node_free = self.node_size.copy()
        # job -> [(node, units)] it holds
        self._spans: dict[int, list[tuple[int, int]]] = {}
        self._down = np.zeros(n_nodes, dtype=bool)

    @property
    def up_capacity(self) -> int:
        """Units on currently healthy nodes."""
        return int(self.node_size[~self._down].sum())

    def start(self, job: int, cores: int, expected_end: float) -> None:
        super().start(job, cores, expected_end)
        spans: list[tuple[int, int]] = []
        need = int(cores)
        for node in range(self.n_nodes):
            if need == 0:
                break
            take = min(int(self.node_free[node]), need)
            if take > 0:
                self.node_free[node] -= take
                spans.append((node, take))
                need -= take
        assert need == 0, "span assignment out of sync with free count"
        self._spans[job] = spans

    def finish(self, job: int) -> None:
        for node, units in self._spans.pop(job):
            self.node_free[node] += units
        super().finish(job)

    def fail_node(self, node: int) -> list[int]:
        """Take ``node`` down; returns the running jobs it killed."""
        if self._down[node]:
            return []
        victims = [
            j
            for j, spans in self._spans.items()
            if any(nd == node for nd, _u in spans)
        ]
        for j in victims:
            self.finish(j)
        self._down[node] = True
        self.free -= int(self.node_free[node])
        self.node_free[node] = 0
        self._sorted_cache = None
        return victims

    def repair_node(self, node: int) -> None:
        """Bring a failed ``node`` back with all its units free."""
        if not self._down[node]:
            return
        self._down[node] = False
        self.node_free[node] = self.node_size[node]
        self.free += int(self.node_size[node])
        self._sorted_cache = None

    def reservation(self, cores: int, now: float) -> tuple[float, int]:
        held = sum(c for _end, c in self._running.values())
        if cores > self.free + held:
            # bigger than everything currently healthy: no completion can
            # free enough units — only a node repair can
            return _INF, 0
        return super().reservation(cores, now)


class _FaultState:
    """Per-job attempt bookkeeping shared by both fault-aware engines."""

    def __init__(
        self, cfg: FaultConfig, runtime: np.ndarray, rng: np.random.Generator
    ) -> None:
        n = len(runtime)
        self.cfg = cfg
        self.rng = rng
        self.full_runtime = np.asarray(runtime, dtype=float)
        self.remaining = self.full_runtime.copy()
        self.attempts = np.zeros(n, dtype=np.int64)
        self.generation = np.zeros(n, dtype=np.int64)
        self.running = np.zeros(n, dtype=bool)
        self.attempt_start = np.full(n, np.nan)
        self.first_start = np.full(n, -1.0)
        self.status = np.full(n, -1, dtype=np.int64)
        self.end = np.full(n, np.nan)
        self.unfinished = n
        self.att_job: list[int] = []
        self.att_start: list[float] = []
        self.att_elapsed: list[float] = []
        self.att_outcome: list[int] = []

    def begin(self, j: int, now: float) -> tuple[float, int]:
        """Open an attempt; returns its (duration, fate)."""
        if self.first_start[j] < 0:
            self.first_start[j] = now
        self.attempts[j] += 1
        self.generation[j] += 1
        self.running[j] = True
        self.attempt_start[j] = now
        dur = float(self.remaining[j])
        fate = ATTEMPT_COMPLETED
        cfg = self.cfg
        if cfg.has_intrinsic_faults:
            u = float(self.rng.random())
            if u < cfg.kill_prob:
                fate = ATTEMPT_USER_KILLED
                dur *= float(self.rng.random())
            elif u < cfg.kill_prob + cfg.fail_prob:
                fate = ATTEMPT_FAILED
                dur *= float(self.rng.random())
        return dur, fate

    def _log(self, j: int, elapsed: float, outcome: int) -> None:
        self.att_job.append(j)
        self.att_start.append(float(self.attempt_start[j]))
        self.att_elapsed.append(float(elapsed))
        self.att_outcome.append(outcome)

    def _terminal(self, j: int, now: float, status: JobStatus) -> None:
        self.status[j] = int(status)
        self.end[j] = now
        self.unfinished -= 1

    def close_attempt(self, j: int, now: float, fate: int) -> bool:
        """Handle a valid attempt-termination event.

        Returns True when the job should be resubmitted (after
        :meth:`backoff` seconds).
        """
        self.running[j] = False
        elapsed = now - float(self.attempt_start[j])
        self._log(j, elapsed, fate)
        if fate == ATTEMPT_COMPLETED:
            self._terminal(j, now, JobStatus.PASSED)
            return False
        if fate == ATTEMPT_USER_KILLED:
            self._terminal(j, now, JobStatus.KILLED)
            return False
        # intrinsic failure: the computation was wrong, so checkpoints are
        # worthless — any retry starts from scratch
        self.remaining[j] = self.full_runtime[j]
        if self.attempts[j] < self.cfg.max_attempts:
            return True
        self._terminal(j, now, JobStatus.FAILED)
        return False

    def node_kill(self, j: int, now: float) -> bool:
        """Handle a node failure killing ``j``; True when it retries."""
        self.running[j] = False
        self.generation[j] += 1  # invalidates the in-flight finish event
        elapsed = now - float(self.attempt_start[j])
        self._log(j, elapsed, ATTEMPT_NODE_KILLED)
        ci = self.cfg.checkpoint_interval
        if ci:
            self.remaining[j] -= math.floor(elapsed / ci) * ci
        if self.attempts[j] < self.cfg.max_attempts:
            return True
        self._terminal(j, now, JobStatus.KILLED)
        return False

    def backoff(self, j: int) -> float:
        """Resubmission delay after the attempt that just died."""
        cfg = self.cfg
        return cfg.backoff_base * cfg.backoff_factor ** (int(self.attempts[j]) - 1)


@dataclass
class FaultSimResult:
    """Outcome of one fault-injected simulation run.

    ``start`` holds *first-attempt* starts (so ``wait`` is the time to
    first service, comparable with :class:`~repro.sched.engine.SimResult`);
    ``end`` holds terminal instants — completion, final kill, or
    abandonment after ``max_attempts``.
    """

    workload: SimWorkload
    capacity: int
    faults: FaultConfig
    start: np.ndarray
    end: np.ndarray
    #: terminal :class:`~repro.traces.schema.JobStatus` code per job
    status: np.ndarray
    #: attempts consumed per job
    attempts: np.ndarray
    promised: np.ndarray
    backfilled: np.ndarray
    #: attempt log (struct-of-arrays): job id, start, elapsed, outcome code
    attempt_job: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    attempt_start: np.ndarray = field(default_factory=lambda: np.array([]))
    attempt_elapsed: np.ndarray = field(default_factory=lambda: np.array([]))
    attempt_outcome: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    #: (time, node) log of the node-failure process
    node_fail_times: np.ndarray = field(default_factory=lambda: np.array([]))
    node_fail_nodes: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    node_repair_times: np.ndarray = field(default_factory=lambda: np.array([]))
    queue_samples: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    queue_sample_times: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.float64)
    )

    #: canonical array dtypes — enforced on every construction path so
    #: cache round-trips and platform-default ``np.asarray`` calls (int32
    #: on Windows) cannot change a result's serialized bytes
    _ARRAY_DTYPES = (
        ("start", np.float64),
        ("end", np.float64),
        ("status", np.int64),
        ("attempts", np.int64),
        ("promised", np.float64),
        ("backfilled", np.bool_),
        ("attempt_job", np.int64),
        ("attempt_start", np.float64),
        ("attempt_elapsed", np.float64),
        ("attempt_outcome", np.int64),
        ("node_fail_times", np.float64),
        ("node_fail_nodes", np.int64),
        ("node_repair_times", np.float64),
        ("queue_samples", np.int64),
        ("queue_sample_times", np.float64),
    )

    def __post_init__(self) -> None:
        for name, dtype in self._ARRAY_DTYPES:
            arr = np.asarray(getattr(self, name))
            if arr.dtype != dtype:
                arr = arr.astype(dtype)
            setattr(self, name, arr)

    @property
    def wait(self) -> np.ndarray:
        """Per-job time from submission to first service."""
        return self.start - self.workload.submit

    @property
    def makespan(self) -> float:
        """First submission to last terminal event."""
        return float(self.end.max() - self.workload.submit.min())

    @property
    def completed(self) -> np.ndarray:
        """Mask of jobs that finished their full runtime."""
        return self.status == int(JobStatus.PASSED)

    @property
    def backfill_rate(self) -> float:
        """Fraction of jobs whose first start came via backfilling."""
        if len(self.backfilled) == 0:
            return 0.0
        return float(self.backfilled.mean())

    @property
    def consumed_core_seconds(self) -> float:
        """Core-seconds occupied across every attempt (good or wasted)."""
        if len(self.attempt_job) == 0:
            return 0.0
        cores = self.workload.cores[self.attempt_job]
        return float((self.attempt_elapsed * cores).sum())

    @property
    def goodput_core_seconds(self) -> float:
        """Core-seconds of completed jobs' useful work."""
        done = self.completed
        w = self.workload
        return float((w.runtime[done] * w.cores[done]).sum())

    @property
    def wasted_core_seconds(self) -> float:
        """Occupied core-seconds that produced nothing.

        Lost partial attempts of eventually-completed jobs plus every
        core-second of jobs that never completed.
        """
        return max(self.consumed_core_seconds - self.goodput_core_seconds, 0.0)

    def to_dict(self) -> dict:
        """Canonical run-summary dict (fault-aware superset of
        :meth:`~repro.sched.engine.SimResult.to_dict`)."""
        w = self.workload
        return {
            "n_jobs": int(w.n),
            "capacity": int(self.capacity),
            "makespan_s": float(self.makespan),
            "mean_wait_s": float(self.wait.mean()),
            "median_wait_s": float(np.median(self.wait)),
            "backfill_rate": float(self.backfill_rate),
            "core_seconds": float(self.consumed_core_seconds),
            "completed_fraction": float(self.completed.mean()),
            "mean_attempts": float(self.attempts.mean()),
            "goodput_core_seconds": float(self.goodput_core_seconds),
            "wasted_core_seconds": float(self.wasted_core_seconds),
            "node_failures": int(len(self.node_fail_times)),
        }


#: attempt outcome code -> ``finish`` event ``outcome`` field
_OUTCOME_LABELS = {
    ATTEMPT_COMPLETED: "completed",
    ATTEMPT_FAILED: "failed",
    ATTEMPT_USER_KILLED: "user_killed",
    ATTEMPT_NODE_KILLED: "node_killed",
}


def simulate_with_faults(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    faults: FaultConfig = NO_FAULTS,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> FaultSimResult:
    """Fault-aware twin of :func:`repro.sched.simulate`.

    Runs the same reservation-based backfilling scheduler, with node
    failures, intrinsic job faults, retries and checkpoint/restart driven
    by ``faults``.  With :data:`NO_FAULTS` the schedule is identical to
    the baseline engine's, event for event.

    The optional ``tracer`` / ``metrics`` / ``profiler`` sinks mirror
    :func:`repro.sched.simulate` and additionally receive the fault
    layer's events: ``node_fail`` / ``node_repair``, per-attempt
    ``finish`` outcomes, ``retry`` backoff decisions and ``checkpoint``
    restores.
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    if int(workload.cores.max()) > capacity:
        raise ValueError("job larger than cluster capacity")
    faults.check_capacity(capacity)
    if kill_at_walltime:
        workload = workload.clipped_to_walltime()

    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime
    users = workload.user

    rng = np.random.default_rng(faults.seed)
    state = _FaultState(faults, workload.runtime, rng)
    cluster: Cluster = (
        FaultyCluster(capacity, faults.n_nodes)
        if faults.has_node_faults
        else Cluster(capacity)
    )

    # observability sinks (all optional; hoisted to locals for the hot loop)
    emit = tracer.emit if tracer is not None and tracer.enabled else None
    prof = NULL_PROFILER if profiler is None else profiler
    if metrics is not None:
        g_free = metrics.gauge("sim_free_cores", "unallocated cores")
        g_queue = metrics.gauge("sim_queue_depth", "jobs waiting in the queue")
        g_util = metrics.gauge("sim_utilization", "allocated fraction of capacity")
        c_submitted = metrics.counter("sim_jobs_submitted_total", "jobs entering the queue")
        c_started = metrics.counter("sim_jobs_started_total", "attempt starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "attempt terminations")
        c_backfilled = metrics.counter("sim_jobs_backfilled_total", "starts that jumped a blocked head")
        c_node_fail = metrics.counter("sim_node_failures_total", "node failures")
        c_node_repair = metrics.counter("sim_node_repairs_total", "node repairs")
        c_retries = metrics.counter("sim_retries_total", "attempt resubmissions")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        h_attempt = metrics.histogram("sim_attempt_seconds", "attempt durations")
        g_free.set(capacity)

    # fair-share support: decayed per-user core-second usage (mirrors engine)
    track_usage = getattr(policy, "half_life_hours", None) is not None
    half_life = (
        float(getattr(policy, "half_life_hours", 24.0)) * 3600.0
        if track_usage
        else 0.0
    )
    usage: dict[int, float] = {}
    usage_time = float(submit[0])

    promised = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)
    pending: list[int] = []
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    next_submit = 0
    observed_max_q = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    fail_t: list[float] = []
    fail_n: list[int] = []
    repair_t: list[float] = []

    def push(t: float, prio: int, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (t, prio, seq, payload))
        seq += 1

    if faults.has_node_faults:
        t0 = float(submit[0])
        for node in range(cluster.n_nodes):  # type: ignore[attr-defined]
            push(t0 + rng.exponential(faults.node_mtbf), _P_FAIL, node)

    if emit is not None:
        emit(
            ev.RUN_START,
            float(submit[0]),
            capacity=int(capacity),
            n_jobs=int(n),
            policy=getattr(policy, "name", type(policy).__name__),
            backfill=backfill.as_dict(),
            engine="easy+faults",
            faults={
                "node_mtbf": (
                    faults.node_mtbf if math.isfinite(faults.node_mtbf) else None
                ),
                "node_mttr": faults.node_mttr,
                "n_nodes": faults.n_nodes,
                "fail_prob": faults.fail_prob,
                "kill_prob": faults.kill_prob,
                "max_attempts": faults.max_attempts,
                "checkpoint_interval": faults.checkpoint_interval,
                "seed": faults.seed,
            },
        )

    def start_job(j: int, now: float) -> None:
        cluster.start(j, int(cores[j]), now + walltime[j])
        dur, fate = state.begin(j, now)
        push(now + dur, _P_FINISH, (j, int(state.generation[j]), fate))
        if track_usage:
            u = int(users[j])
            usage[u] = usage.get(u, 0.0) + float(cores[j]) * float(walltime[j])
        if emit is not None:
            emit(
                ev.START,
                now,
                j,
                cores=int(cores[j]),
                free=int(cluster.free),
                queue=len(pending),
                wait=float(now - submit[j]),
                attempt=int(state.attempts[j]),
            )
        if metrics is not None:
            c_started.inc()
            h_wait.observe(now - submit[j])

    def decay_usage(now: float) -> None:
        nonlocal usage_time
        if now > usage_time and usage:
            factor = 0.5 ** ((now - usage_time) / half_life)
            for u in usage:
                usage[u] *= factor
        usage_time = max(usage_time, now)

    def schedule(now: float) -> None:
        nonlocal observed_max_q
        qlen = len(pending)
        observed_max_q = max(observed_max_q, qlen)
        if track_queue:
            q_samples.append(qlen)
            q_times.append(now)
        if track_usage:
            decay_usage(now)
        while pending:
            arr = np.asarray(pending)
            if track_usage:
                context = {
                    "user": users[arr],
                    "usage": np.array(
                        [usage.get(int(u), 0.0) for u in users[arr]]
                    ),
                }
            else:
                context = {}
            order = policy.order(
                submit[arr], cores[arr], walltime[arr], now, **context
            )
            ranked = arr[order]
            head = int(ranked[0])
            if cluster.can_start(int(cores[head])):
                start_job(head, now)
                pending.remove(head)
                continue
            # head blocked: reserve, then backfill around the reservation
            shadow, extra = cluster.reservation(int(cores[head]), now)
            if not math.isfinite(shadow):
                # head cannot fit until a failed node returns — no
                # reservation to backfill around; hold until the repair
                break
            if np.isnan(promised[head]):
                promised[head] = shadow
            if emit is not None:
                emit(
                    ev.RESERVATION,
                    now,
                    head,
                    shadow=float(shadow),
                    extra=int(extra),
                    queue=len(pending),
                    free=int(cluster.free),
                )
            if backfill.enabled:
                if clock is not None:
                    clock.mark("backfill_scan")
                frac = backfill.relax_fraction(len(pending), observed_max_q)
                limit = shadow + frac * max(shadow - submit[head], 0.0)
                started: list[int] = []
                for j in ranked[1:]:
                    j = int(j)
                    c = int(cores[j])
                    if c > cluster.free:
                        continue
                    fits_window = now + walltime[j] <= limit
                    fits_extra = c <= extra
                    if fits_window or fits_extra:
                        if emit is not None:
                            emit(
                                ev.BACKFILL,
                                now,
                                j,
                                cores=c,
                                fits_window=bool(fits_window),
                                fits_extra=bool(fits_extra),
                                shadow=float(shadow),
                                limit=float(limit),
                            )
                        if metrics is not None:
                            c_backfilled.inc()
                        start_job(j, now)
                        backfilled[j] = True
                        started.append(j)
                        if not fits_window:
                            extra -= c
                        if cluster.free == 0:
                            break
                for j in started:
                    pending.remove(j)
            break

    now = float(submit[0])
    # root span encloses the whole event loop; left open on an exception so
    # Profiler.to_payload() serializes it as a partial tree
    root_span = prof.span(
        "simulate",
        engine="faults",
        policy=getattr(policy, "name", type(policy).__name__),
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()
    clock = PhaseClock(prof) if prof.enabled else None
    while state.unfinished > 0:
        t_sub = submit[next_submit] if next_submit < n else _INF
        t_ev = events[0][0] if events else _INF
        now = min(t_sub, t_ev)
        assert now < _INF, "fault engine stalled with unfinished jobs"
        if metrics is not None:
            metrics.sample(now)
        while events and events[0][0] <= now:
            t, prio, _s, payload = heapq.heappop(events)
            if prio == _P_FINISH:
                j, gen, fate = payload  # type: ignore[misc]
                if not state.running[j] or state.generation[j] != gen:
                    continue  # stale: the attempt was killed earlier
                cluster.finish(j)
                elapsed = t - float(state.attempt_start[j])
                retry = state.close_attempt(j, t, fate)
                if emit is not None:
                    emit(
                        ev.FINISH,
                        t,
                        j,
                        cores=int(cores[j]),
                        free=int(cluster.free),
                        outcome=_OUTCOME_LABELS[fate],
                        attempt=int(state.attempts[j]),
                        terminal=not retry,
                    )
                if metrics is not None:
                    c_finished.inc()
                    h_attempt.observe(elapsed)
                if retry:
                    delay = state.backoff(j)
                    if emit is not None:
                        emit(
                            ev.RETRY,
                            t,
                            j,
                            attempt=int(state.attempts[j]),
                            delay=float(delay),
                            resume=float(t + delay),
                            cause="intrinsic_failure",
                        )
                    if metrics is not None:
                        c_retries.inc()
                    push(t + delay, _P_RESUBMIT, j)
            elif prio == _P_FAIL:
                node = payload  # type: ignore[assignment]
                victims = cluster.fail_node(node)  # type: ignore[attr-defined]
                if emit is not None:
                    emit(
                        ev.NODE_FAIL,
                        t,
                        node=int(node),
                        victims=[int(v) for v in victims],
                        free=int(cluster.free),
                    )
                if metrics is not None:
                    c_node_fail.inc()
                ci = faults.checkpoint_interval
                for j in victims:
                    elapsed = t - float(state.attempt_start[j])
                    retry = state.node_kill(j, t)
                    if metrics is not None:
                        h_attempt.observe(elapsed)
                    if not retry:
                        continue
                    delay = state.backoff(j)
                    if emit is not None:
                        if ci:
                            saved = math.floor(elapsed / ci) * ci
                            if saved > 0:
                                emit(
                                    ev.CHECKPOINT,
                                    t,
                                    j,
                                    saved=float(saved),
                                    lost=float(elapsed - saved),
                                )
                        emit(
                            ev.RETRY,
                            t,
                            j,
                            attempt=int(state.attempts[j]),
                            delay=float(delay),
                            resume=float(t + delay),
                            cause="node_failure",
                        )
                    if metrics is not None:
                        c_retries.inc()
                    push(t + delay, _P_RESUBMIT, j)
                fail_t.append(t)
                fail_n.append(int(node))
                push(t + rng.exponential(faults.node_mttr), _P_REPAIR, node)
            elif prio == _P_REPAIR:
                cluster.repair_node(payload)  # type: ignore[attr-defined]
                repair_t.append(t)
                if emit is not None:
                    emit(
                        ev.NODE_REPAIR,
                        t,
                        node=int(payload),
                        free=int(cluster.free),
                    )
                if metrics is not None:
                    c_node_repair.inc()
                push(t + rng.exponential(faults.node_mtbf), _P_FAIL, payload)
            else:  # _P_RESUBMIT
                pending.append(payload)  # type: ignore[arg-type]
                if emit is not None:
                    emit(
                        ev.SUBMIT,
                        t,
                        payload,
                        submitted=float(t),
                        cores=int(cores[payload]),
                        queue=len(pending),
                        user=int(users[payload]),
                        resubmitted=True,
                    )
                if metrics is not None:
                    c_submitted.inc()
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            if emit is not None:
                emit(
                    ev.SUBMIT,
                    now,
                    next_submit,
                    submitted=float(submit[next_submit]),
                    cores=int(cores[next_submit]),
                    queue=len(pending),
                    user=int(users[next_submit]),
                )
            if metrics is not None:
                c_submitted.inc()
            next_submit += 1
        if clock is None:
            schedule(now)
        else:
            clock.round(schedule, now)
        if metrics is not None:
            g_free.set(cluster.free)
            g_queue.set(len(pending))
            g_util.set((capacity - cluster.free) / capacity)
    if clock is not None:
        clock.report()
    root_span.__exit__(None, None, None)

    assert not pending and np.all(state.status >= 0), "jobs left non-terminal"
    if emit is not None:
        emit(
            ev.RUN_END,
            now,
            makespan=float(state.end.max() - submit.min()),
            completed=int((state.status == int(JobStatus.PASSED)).sum()),
            node_failures=len(fail_t),
        )
    return FaultSimResult(
        workload=workload,
        capacity=capacity,
        faults=faults,
        start=state.first_start,
        end=state.end,
        status=state.status,
        attempts=state.attempts,
        promised=promised,
        backfilled=backfilled,
        attempt_job=np.asarray(state.att_job, dtype=np.int64),
        attempt_start=np.asarray(state.att_start, dtype=float),
        attempt_elapsed=np.asarray(state.att_elapsed, dtype=float),
        attempt_outcome=np.asarray(state.att_outcome, dtype=np.int64),
        node_fail_times=np.asarray(fail_t, dtype=float),
        node_fail_nodes=np.asarray(fail_n, dtype=np.int64),
        node_repair_times=np.asarray(repair_t, dtype=float),
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )


def simulate_packed_with_faults(
    workload: SimWorkload,
    n_nodes: int,
    gpus_per_node: int = 8,
    faults: FaultConfig = NO_FAULTS,
) -> FaultSimResult:
    """Fault-aware twin of :func:`repro.sched.nodes.simulate_packed`.

    FCFS with head-of-line blocking under node-packing constraints; node
    failures use the cluster's *real* nodes (``faults.n_nodes`` is
    ignored).  Retried jobs rejoin the queue at their original submit
    priority.
    """
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    cluster = NodeCluster(n_nodes, gpus_per_node)
    if int(workload.cores.max()) > cluster.capacity:
        raise ValueError("job larger than the cluster")

    submit = workload.submit
    cores = workload.cores
    rng = np.random.default_rng(faults.seed)
    state = _FaultState(faults, workload.runtime, rng)

    pending: list[int] = []
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    next_submit = 0
    fail_t: list[float] = []
    fail_n: list[int] = []
    repair_t: list[float] = []

    def push(t: float, prio: int, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (t, prio, seq, payload))
        seq += 1

    if faults.has_node_faults:
        t0 = float(submit[0])
        for node in range(n_nodes):
            push(t0 + rng.exponential(faults.node_mtbf), _P_FAIL, node)

    def schedule(now: float) -> None:
        while pending:
            j = pending[0]
            if not cluster.can_place(int(cores[j])):
                break
            cluster.place(j, int(cores[j]))
            dur, fate = state.begin(j, now)
            push(now + dur, _P_FINISH, (j, int(state.generation[j]), fate))
            pending.pop(0)

    while state.unfinished > 0:
        t_sub = submit[next_submit] if next_submit < n else _INF
        t_ev = events[0][0] if events else _INF
        now = min(t_sub, t_ev)
        assert now < _INF, "packed fault engine stalled with unfinished jobs"
        while events and events[0][0] <= now:
            t, prio, _s, payload = heapq.heappop(events)
            if prio == _P_FINISH:
                j, gen, fate = payload  # type: ignore[misc]
                if not state.running[j] or state.generation[j] != gen:
                    continue
                cluster.release(j)
                if state.close_attempt(j, t, fate):
                    push(t + state.backoff(j), _P_RESUBMIT, j)
            elif prio == _P_FAIL:
                victims = cluster.fail_node(payload)  # type: ignore[arg-type]
                for j in victims:
                    if state.node_kill(j, t):
                        push(t + state.backoff(j), _P_RESUBMIT, j)
                fail_t.append(t)
                fail_n.append(int(payload))  # type: ignore[arg-type]
                push(t + rng.exponential(faults.node_mttr), _P_REPAIR, payload)
            elif prio == _P_REPAIR:
                cluster.repair_node(payload)  # type: ignore[arg-type]
                repair_t.append(t)
                push(t + rng.exponential(faults.node_mtbf), _P_FAIL, payload)
            else:  # _P_RESUBMIT: rejoin at original submit priority
                insort(pending, payload, key=lambda x: (submit[x], x))
        while next_submit < n and submit[next_submit] <= now:
            pending.append(next_submit)
            next_submit += 1
        schedule(now)

    assert not pending and np.all(state.status >= 0), "jobs left non-terminal"
    return FaultSimResult(
        workload=workload,
        capacity=cluster.capacity,
        faults=faults,
        start=state.first_start,
        end=state.end,
        status=state.status,
        attempts=state.attempts,
        promised=np.full(n, np.nan),
        backfilled=np.zeros(n, dtype=bool),
        attempt_job=np.asarray(state.att_job, dtype=np.int64),
        attempt_start=np.asarray(state.att_start, dtype=float),
        attempt_elapsed=np.asarray(state.att_elapsed, dtype=float),
        attempt_outcome=np.asarray(state.att_outcome, dtype=np.int64),
        node_fail_times=np.asarray(fail_t, dtype=float),
        node_fail_nodes=np.asarray(fail_n, dtype=np.int64),
        node_repair_times=np.asarray(repair_t, dtype=float),
    )
