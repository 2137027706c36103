"""Conservative backfilling simulator.

Unlike EASY (one reservation for the queue head), *conservative*
backfilling gives **every** queued job a reservation; a lower-priority job
may start early only if it fits without moving any earlier reservation.
Implemented with a :class:`~repro.sched.profile.CapacityProfile` rebuilt at
each scheduling round (running jobs + queued reservations in priority
order).

Walltime-kill semantics (``kill_at_walltime``): a job whose runtime exceeds
its (possibly predicted) walltime is terminated at the walltime — the
failure mode that makes runtime *under*-estimation expensive and motivates
the paper's use case 1.  The truncation itself is shared with the EASY
engine via :meth:`~repro.sched.job.SimWorkload.clipped_to_walltime`.

Observability mirrors :func:`repro.sched.simulate`: optional ``tracer`` /
``metrics`` / ``profiler`` sinks; besides ``event_drain`` / ``policy_sort``
/ ``backfill_scan`` the profiler receives a ``profile_rebuild`` phase, the
per-round :meth:`CapacityProfile.from_running` reconstruction — the known
hot path of conservative backfilling.  Reservation events are
emitted only for a job's *first* promise (every queued job re-reserves
every round; logging each would swamp the stream).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..obs import events as ev
from ..obs.profiling import NULL_PROFILER, PhaseClock
from .engine import SimResult
from .job import SimWorkload
from .policies import Policy, get_policy
from .profile import CapacityProfile

__all__ = ["simulate_conservative"]


def simulate_conservative(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    kill_at_walltime: bool = False,
    track_queue: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """Run conservative backfilling over a workload.

    Returns the same :class:`SimResult` as :func:`repro.sched.simulate`;
    with ``kill_at_walltime`` the effective runtimes in the result's
    workload are clipped to the walltime (killed jobs end early).
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

    emit = tracer.emit if tracer is not None and tracer.enabled else None
    prof = NULL_PROFILER if profiler is None else profiler
    if metrics is not None:
        g_free = metrics.gauge("sim_free_cores", "unallocated cores")
        g_queue = metrics.gauge("sim_queue_depth", "jobs waiting in the queue")
        g_util = metrics.gauge("sim_utilization", "allocated fraction of capacity")
        c_submitted = metrics.counter("sim_jobs_submitted_total", "jobs entering the queue")
        c_started = metrics.counter("sim_jobs_started_total", "job starts")
        c_finished = metrics.counter("sim_jobs_finished_total", "job completions")
        h_wait = metrics.histogram("sim_wait_seconds", "submission-to-start wait")
        g_free.set(capacity)

    start = np.full(n, -1.0)
    promised = np.full(n, np.nan)
    pending: list[int] = []
    # (actual_end, job); walltime expectations live in the profile
    finish_heap: list[tuple[float, int]] = []
    running_end_by_wall: dict[int, float] = {}
    free = int(capacity)
    next_submit = 0
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
            backfill={"mode": "conservative"},
            engine="conservative",
        )

    def schedule(now: float) -> None:
        nonlocal free
        if track_queue:
            q_samples.append(len(pending))
            q_times.append(now)
        if not pending:
            return
        arr = np.asarray(pending)
        order = policy.order(submit[arr], cores[arr], walltime[arr], now)
        ranked = [int(j) for j in arr[order]]
        if clock is not None:
            clock.mark("profile_rebuild")
        ends = np.array([running_end_by_wall[j] for j in running_end_by_wall])
        held = np.array(
            [cores[j] for j in running_end_by_wall], dtype=np.int64
        )
        profile = CapacityProfile.from_running(capacity, now, ends, held)
        started: list[int] = []
        if clock is not None:
            clock.mark("backfill_scan")
        for j in ranked:
            t0 = profile.earliest_fit(int(cores[j]), float(walltime[j]), now)
            profile.reserve(t0, float(walltime[j]), int(cores[j]))
            if np.isnan(promised[j]):
                promised[j] = t0
                if emit is not None and t0 > now:
                    emit(
                        ev.RESERVATION,
                        now,
                        j,
                        shadow=float(t0),
                        queue=len(pending),
                        free=int(free),
                    )
            if t0 <= now:
                start[j] = now
                running_end_by_wall[j] = now + float(walltime[j])
                heapq.heappush(finish_heap, (now + float(runtime[j]), j))
                started.append(j)
                free -= int(cores[j])
                if emit is not None:
                    emit(
                        ev.START,
                        now,
                        j,
                        cores=int(cores[j]),
                        free=int(free),
                        queue=len(pending),
                        wait=float(now - submit[j]),
                    )
                if metrics is not None:
                    c_started.inc()
                    h_wait.observe(now - submit[j])
        for j in started:
            pending.remove(j)

    now = float(submit[0])
    # root span encloses the whole event loop; left open on an exception so
    # Profiler.to_payload() serializes it as a partial tree
    root_span = prof.span(
        "simulate",
        engine="conservative",
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
            del running_end_by_wall[j]
            free += int(cores[j])
            if emit is not None:
                emit(
                    ev.FINISH,
                    now,
                    j,
                    cores=int(cores[j]),
                    free=int(free),
                    outcome="completed",
                )
            if metrics is not None:
                c_finished.inc()
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
                )
            if metrics is not None:
                c_submitted.inc()
            next_submit += 1
        if clock is None:
            schedule(now)
        else:
            clock.round(schedule, now)
        if metrics is not None:
            g_free.set(free)
            g_queue.set(len(pending))
            g_util.set((capacity - free) / capacity)
    if clock is not None:
        clock.report()
    root_span.__exit__(None, None, None)

    assert not pending and np.all(start >= 0), "scheduler left jobs unserved"
    result = SimResult(
        workload=workload,
        capacity=capacity,
        start=start,
        promised=promised,
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    if emit is not None:
        emit(ev.RUN_END, now, makespan=float(result.makespan), started=int(n))
    return result
