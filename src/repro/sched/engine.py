"""Discrete-event batch-scheduling simulator.

:func:`simulate` is the entry point every run goes through; it hands the
run to the vectorized engine of its semantics (:mod:`repro.sched.fast`,
:mod:`repro.sched.fast_faults`).  :func:`simulate_reference` is the
readable EASY-family loop those engines are bit-identical to, kept as
their differential specification.

Event-driven (no time stepping): the only events are job submissions and job
completions, kept in sorted order / a heap.  After draining the events at the
current instant, the scheduler runs: serve the queue in policy order, give
the blocked head a reservation, and backfill around it per the configured
:class:`~repro.sched.backfill.BackfillConfig`.

The design follows the guides' advice for hot loops: struct-of-arrays job
state, a lazily sorted running table, and no per-tick scanning.

Observability (:mod:`repro.obs`) is wired through but strictly optional:
``tracer`` receives the decision log (submit/start/finish/reservation/
backfill events with queue depth, free cores and shadow times), ``metrics``
collects counters/gauges/histograms plus a sim-time utilization series, and
``profiler`` receives the engine's per-phase wall time (event drain, policy
sort, backfill scan), summed by a :class:`~repro.obs.profiling.PhaseClock`
and reported once per run.  All three default to no-ops, and an
instrumented run is bit-identical to an uninstrumented one — the sinks
observe, they never decide.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..obs import events as ev
from ..obs.profiling import NULL_PROFILER, PhaseClock
from .backfill import BackfillConfig, EASY
from .cluster import Cluster
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = ["SimResult", "simulate", "simulate_reference", "USAGE_EPS"]

#: Fair-share usage entries that decay below this are dropped entirely.
#: Usage is credited in core-seconds (>= 1 for any real job), so reaching
#: the epsilon takes ~40 half-lives of inactivity — far beyond any trace
#: horizon we replay — which makes the prune invisible to scheduling
#: decisions while bounding the ``usage`` dict and avoiding denormal-float
#: multiplies on long multi-user traces.  A pruned entry reads back as 0.0,
#: exactly what ``usage.get(u, 0.0)`` returned before the entry existed.
USAGE_EPS = 1e-12


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    workload: SimWorkload
    capacity: int
    start: np.ndarray
    #: first reservation promise per job (NaN when never head-of-queue)
    promised: np.ndarray
    #: True for jobs that started by jumping a blocked queue head
    backfilled: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    #: queue length sampled at every scheduling decision (always int64: the
    #: bare default/``np.asarray`` dtypes used to disagree across platforms)
    queue_samples: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    queue_sample_times: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.float64)
    )

    @property
    def wait(self) -> np.ndarray:
        """Per-job wait times."""
        return self.start - self.workload.submit

    @property
    def end(self) -> np.ndarray:
        """Per-job completion times."""
        return self.start + self.workload.runtime

    @property
    def makespan(self) -> float:
        """First submission to last completion."""
        return float(self.end.max() - self.workload.submit.min())

    @property
    def backfill_rate(self) -> float:
        """Fraction of jobs that started via backfilling."""
        if len(self.backfilled) == 0:
            return 0.0
        return float(self.backfilled.mean())

    def to_dict(self) -> dict:
        """Canonical run-summary dict (the one serialization of a run).

        Shared by :mod:`repro.sched.export`, the CLI's ``--metrics-out``
        payload and the experiment harness, so every surface describes a
        run with the same keys.
        """
        w = self.workload
        wait = self.wait
        return {
            "n_jobs": int(w.n),
            "capacity": int(self.capacity),
            "makespan_s": float(self.makespan),
            "mean_wait_s": float(wait.mean()),
            "median_wait_s": float(np.median(wait)),
            "backfill_rate": float(self.backfill_rate),
            "core_seconds": float((w.cores * w.runtime).sum()),
        }


def simulate(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    faults=None,
    tracer=None,
    metrics=None,
    profiler=None,
):
    """Run the scheduler over a workload and return per-job start times.

    Parameters
    ----------
    workload:
        Job stream (sorted by submit time).
    capacity:
        Total allocatable units of the cluster.
    policy:
        Queue ordering policy (name or :class:`Policy`).
    backfill:
        Backfilling configuration; default strict EASY.
    track_queue:
        Record the queue length at every scheduling decision (used by
        utilization/queue plots; costs memory on big runs).
    kill_at_walltime:
        Terminate jobs at their walltime (relevant when walltimes come
        from a *predictor* that may underestimate; see
        :mod:`repro.sched.predictive`).
    faults:
        Optional :class:`~repro.sched.faults.FaultConfig`.  When given,
        the run returns a :class:`~repro.sched.faults.FaultSimResult`
        (which reduces to this engine's behaviour for a null config).
    tracer:
        Optional :class:`~repro.obs.Tracer` receiving the decision log.
    metrics:
        Optional :class:`~repro.obs.Metrics` registry.
    profiler:
        Optional :class:`~repro.obs.Profiler` receiving the engine's
        ``simulate`` root span and its ``event_drain`` / ``policy_sort`` /
        ``backfill_scan`` phase times.

    Every run takes the vectorized engine of its semantics —
    :func:`~repro.sched.fast.simulate_fast`, or
    :func:`~repro.sched.fast_faults.simulate_fast_with_faults` with
    ``faults`` — which are bit-identical to the readable loops
    (docs/PERFORMANCE.md).
    """
    if faults is None:
        from .fast import simulate_fast

        run = simulate_fast
        fault_args = ()
    else:
        from .fast_faults import simulate_fast_with_faults

        run = simulate_fast_with_faults
        fault_args = (faults,)
    return run(
        workload,
        capacity,
        policy,
        backfill,
        *fault_args,
        track_queue=track_queue,
        kill_at_walltime=kill_at_walltime,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )


def simulate_reference(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    backfill: BackfillConfig = EASY,
    track_queue: bool = False,
    kill_at_walltime: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """The readable EASY-family loop: the specification
    :func:`~repro.sched.fast.simulate_fast` is tested against.  Same
    parameters as :func:`simulate`, without ``faults``.
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    n = workload.n
    if n == 0:
        raise ValueError("empty workload")
    if int(workload.cores.max()) > capacity:
        raise ValueError("job larger than cluster capacity")

    if kill_at_walltime:
        workload = workload.clipped_to_walltime()
    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime
    runtime = workload.runtime
    users = workload.user

    # observability sinks (all optional; hoisted to locals for the hot loop)
    emit = tracer.emit if tracer is not None and tracer.enabled else None
    prof = NULL_PROFILER if profiler is None else profiler
    if metrics is not None:
        g_free = metrics.gauge("sim_free_cores", "unallocated cores")
        g_queue = metrics.gauge("sim_queue_depth", "jobs waiting in the queue")
        g_util = metrics.gauge("sim_utilization", "allocated fraction of capacity")
        c_submitted = metrics.counter("sim_jobs_submitted_total", "jobs entering the queue")
        c_started = metrics.counter("sim_jobs_started_total", "job starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "job completions")
        c_backfilled = metrics.counter("sim_jobs_backfilled_total", "starts that jumped a blocked head")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        g_free.set(capacity)

    # fair-share support: decayed per-user core-second usage
    track_usage = getattr(policy, "half_life_hours", None) is not None
    half_life = (
        float(getattr(policy, "half_life_hours", 24.0)) * 3600.0
        if track_usage
        else 0.0
    )
    usage: dict[int, float] = {}
    usage_time = float(submit[0])

    cluster = Cluster(capacity)
    start = np.full(n, -1.0)
    promised = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)

    # The wait queue is an insertion-ordered dict keyed by job index: dicts
    # preserve insertion order across deletions, so iterating yields exactly
    # the ascending-index sequence the old list held, while removing a
    # served job is O(1) instead of the O(queue) ``list.remove`` scan that
    # made deep-queue scheduling rounds quadratic.
    pending: dict[int, None] = {}
    finish_heap: list[tuple[float, int]] = []
    next_submit = 0
    observed_max_q = 0
    q_samples: list[int] = []
    q_times: list[float] = []

    INF = float("inf")

    if emit is not None:
        emit(
            ev.RUN_START,
            float(submit[0]),
            capacity=int(capacity),
            n_jobs=int(n),
            policy=getattr(policy, "name", type(policy).__name__),
            backfill=backfill.as_dict(),
            engine="easy",
        )

    def start_job(j: int, now: float) -> None:
        cluster.start(j, int(cores[j]), now + walltime[j])
        start[j] = now
        heapq.heappush(finish_heap, (now + runtime[j], j))
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
            )
        if metrics is not None:
            c_started.inc()
            h_wait.observe(now - submit[j])

    def decay_usage(now: float) -> None:
        nonlocal usage_time
        if now > usage_time and usage:
            factor = 0.5 ** ((now - usage_time) / half_life)
            stale: list[int] = []
            for u in usage:
                usage[u] *= factor
                if usage[u] < USAGE_EPS:
                    stale.append(u)
            # prune fully-decayed users: keeps the dict bounded by *active*
            # users on long traces and stops denormal-range multiplies.
            # Nonzero usage starts at >= 1 core-second, so falling under
            # USAGE_EPS takes ~40 half-lives of silence — outside any trace
            # horizon — and exact zeros (zero-walltime jobs) read back as
            # 0.0 either way, so ordering is unchanged (see USAGE_EPS)
            for u in stale:
                del usage[u]
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
            arr = np.fromiter(pending, dtype=np.int64, count=len(pending))
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
                del pending[head]
                continue
            # head blocked: reserve, then backfill around the reservation
            shadow, extra = cluster.reservation(int(cores[head]), now)
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
                    del pending[j]
            break

    now = float(submit[0])
    # root span encloses the whole event loop; left open on an exception so
    # Profiler.to_payload() serializes it as a partial tree
    root_span = prof.span(
        "simulate",
        engine="easy",
        policy=getattr(policy, "name", type(policy).__name__),
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()
    clock = PhaseClock(prof) if prof.enabled else None
    while next_submit < n or finish_heap:
        t_sub = submit[next_submit] if next_submit < n else INF
        t_fin = finish_heap[0][0] if finish_heap else INF
        now = min(t_sub, t_fin)
        if metrics is not None:
            metrics.sample(now)
        while finish_heap and finish_heap[0][0] <= now:
            _, j = heapq.heappop(finish_heap)
            cluster.finish(j)
            if emit is not None:
                emit(
                    ev.FINISH,
                    now,
                    j,
                    cores=int(cores[j]),
                    free=int(cluster.free),
                    outcome="completed",
                )
            if metrics is not None:
                c_finished.inc()
        while next_submit < n and submit[next_submit] <= now:
            pending[next_submit] = None
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

    assert not pending and np.all(start >= 0), "scheduler left jobs unserved"
    result = SimResult(
        workload=workload,
        capacity=capacity,
        start=start,
        promised=promised,
        backfilled=backfilled,
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    if emit is not None:
        emit(
            ev.RUN_END,
            now,
            makespan=float(result.makespan),
            started=int(n),
            backfilled=int(backfilled.sum()),
        )
    return result
