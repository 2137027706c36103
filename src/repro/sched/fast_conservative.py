"""Vectorized conservative-backfilling engine (fast twin of
:mod:`repro.sched.conservative`).

Same contract as :mod:`repro.sched.fast`: **bit-identical schedules**,
restructured hot path.  Conservative backfilling rebuilds a future-
availability profile every scheduling round and walks it once per queued
job — in the reference that is Python all the way down
(:meth:`CapacityProfile.from_running` inserts one breakpoint pair per
running job, each ``_subtract`` decrements steps in a Python loop).  The
fast twin keeps the *decision sequence* untouched and flattens the data:

* **Batched profile rebuild.**  The per-round profile is two flat,
  parallel arrays (breakpoint times / free cores) built in one shot:
  running jobs' walltime-ends are sorted with ``np.argsort``, deduplicated
  with one vectorized comparison, and the free-core step levels fall out
  of a single ``cumsum`` of released cores — O(R log R) in C instead of
  O(R x steps) Python list surgery.  The breakpoints are the *same
  floats* the reference stores (``start + walltime`` sums reused
  verbatim), and the levels are exact integer arithmetic, so the step
  function is identical, not just equivalent.
* **Flat reservation arrays + scalar hole-finding.**  ``earliest_fit`` /
  ``reserve`` run over the flat step lists with local-variable cursors,
  C-level ``bisect`` for breakpoint lookup and slice-assign decrements —
  a faithful port of the reference scan (same candidate sequence, same
  ``candidate + duration`` float expression, same strict ``<`` window
  test), minus the per-call method dispatch and NumPy scalar boxing.
* **Rank-ordered queue.**  Static policies (see
  :data:`~repro.sched.fast.STATIC_POLICIES`) get the one-shot global
  ``np.lexsort``; the pending queue is kept in rank order by C ``bisect``
  insertion so each round's ranked walk is just the list itself.
  Clock-dependent policies lexsort the live queue once per round exactly
  as the reference's ``Policy.order`` call does.  (Conservative never
  feeds fair-share usage context — the reference engine doesn't either —
  so ``fairshare`` degrades to its documented FCFS fallback in both.)
* **Scalar mirrors.**  ``submit``/``cores``/``walltime``/``runtime`` are
  read through plain-Python list mirrors in the event loop, as in
  ``fast.py``.

Tie-breaks, the first-promise rule (``promised`` records the *first*
reservation, including immediate starts), queue sampling at every round
(before the empty-queue early-out), and the ``min(t_sub, t_fin)`` event
clock all match the reference line for line; the equivalence argument is
documented in ``docs/PERFORMANCE.md`` and enforced by
``repro fuzz --policy conservative`` plus the differential matrix in
``tests/test_fast_engine.py``.

Instrumented runs (``tracer=`` / ``metrics=``) delegate to the reference
loop: results are identical by the bit-identity contract, and the
readable per-event emission is worth more than speed when someone is
watching.  ``profiler=`` stays on the fast path, which reports its phases.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

import numpy as np

from ..obs.profiling import NULL_PROFILER, PhaseClock
from .engine import SimResult
from .fast import STATIC_POLICIES
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = ["simulate_fast_conservative"]


def simulate_fast_conservative(
    workload: SimWorkload,
    capacity: int,
    policy: Policy | str = "fcfs",
    kill_at_walltime: bool = False,
    track_queue: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """Vectorized :func:`~repro.sched.simulate_conservative`; bit-identical
    results (``start``/``promised``/queue samples), same signature."""
    if tracer is not None or metrics is not None:
        # the columnar-staging treatment fast.py gives the EASY family is
        # not worth duplicating for the per-round-rebuild engine; traced
        # runs take the readable loop and identical results are guaranteed
        # by the bit-identity contract this module is tested against
        from .conservative import simulate_conservative

        return simulate_conservative(
            workload,
            capacity,
            policy,
            kill_at_walltime=kill_at_walltime,
            track_queue=track_queue,
            tracer=tracer,
            metrics=metrics,
            profiler=profiler,
        )

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

    prof = NULL_PROFILER if profiler is None else profiler

    submit_l = submit.tolist()
    cores_l = cores.tolist()
    walltime_l = walltime.tolist()
    runtime_l = workload.runtime.tolist()

    start_np = np.full(n, -1.0)
    promised_np = np.full(n, np.nan)
    promised_f = bytearray(n)  # "has a first reservation" flag
    started_f = bytearray(n)

    # running set: parallel lists + swap-remove position map; rebuild order
    # is irrelevant (the step function is a set union of subtractions)
    run_jobs: list[int] = []
    run_ends: list[float] = []
    run_cores: list[int] = []
    run_pos: dict[int, int] = {}

    finish_heap: list[tuple[float, int]] = []
    free = int(capacity)
    next_submit = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    INF = float("inf")
    cap = int(capacity)

    static = type(policy) is Policy and policy.name in STATIC_POLICIES
    if static:
        # same one-shot global rank fast.py uses: stable lexsort ties by
        # (submit, index); conservative's pending list is index-ascending
        # between starts, so restricting the global rank to any round's
        # queue induces exactly the reference's ranked order
        scores = policy.score(submit, cores, walltime, float(submit_l[0]))
        order_all = np.lexsort((submit, scores))
        rank_of_np = np.empty(n, dtype=np.int64)
        rank_of_np[order_all] = np.arange(n, dtype=np.int64)
        rank_of = rank_of_np.tolist()
        qranks: list[int] = []  # sorted; parallel to qjobs
        qjobs: list[int] = []
    else:
        pend: list[int] = []  # index-ascending, like the reference list
    n_live = 0

    def schedule(now: float) -> None:
        nonlocal free, n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if not n_live:
            return

        if static:
            ranked = qjobs
        else:
            arr = np.asarray(pend)
            order = policy.order(submit[arr], cores[arr], walltime[arr], now)
            ranked = arr[order].tolist()

        # ---- batched profile rebuild (flat arrays, one vectorized pass)
        if clock is not None:
            clock.mark("profile_rebuild")
        if run_ends:
            e = np.maximum(np.asarray(run_ends), now)
            h = np.asarray(run_cores, dtype=np.int64)
            live = e > now
            if not live.all():
                e = e[live]
                h = h[live]
            if e.size:
                o = np.argsort(e, kind="stable")
                es = e[o]
                hs = h[o]
                last = np.empty(es.size, dtype=bool)
                last[:-1] = es[1:] != es[:-1]
                last[-1] = True
                csum = np.cumsum(hs)
                total = int(csum[-1])
                T = [now] + es[last].tolist()
                F = [cap - total] + (cap - total + csum[last]).tolist()
            else:
                T = [now]
                F = [cap]
        else:
            T = [now]
            F = [cap]

        if clock is not None:
            clock.mark("backfill_scan")
        started = 0
        for j in ranked:
            c = cores_l[j]
            d = walltime_l[j]
            # -- earliest_fit: faithful port of CapacityProfile.earliest_fit
            # (T[0] == now and every later breakpoint is > now, so the
            # reference's index_at(now) step is always step 0)
            s = len(T)
            k = 0
            candidate = now
            while True:
                if F[k] < c:
                    k += 1
                    candidate = T[k]  # tail is fully free: k < s always
                    continue
                end = candidate + d
                i = k + 1
                ok = True
                while i < s and T[i] < end:
                    if F[i] < c:
                        candidate = T[i]  # restart after the dip
                        k = i
                        ok = False
                        break
                    i += 1
                if ok:
                    break
            t0 = candidate
            # -- reserve [t0, t0 + d): same _subtract, flat-list edition
            rend = t0 + d
            if rend > t0 and c:
                i = bisect_left(T, t0)
                if i == s or T[i] != t0:
                    T.insert(i, t0)
                    F.insert(i, F[i - 1])
                    s += 1
                k2 = bisect_left(T, rend, i)
                if k2 == s or T[k2] != rend:
                    T.insert(k2, rend)
                    F.insert(k2, F[k2 - 1])
                    s += 1
                F[i:k2] = [x - c for x in F[i:k2]]
            if not promised_f[j]:
                promised_f[j] = 1
                promised_np[j] = t0
            if t0 <= now:
                start_np[j] = now
                started_f[j] = 1
                started += 1
                run_pos[j] = len(run_jobs)
                run_jobs.append(j)
                run_ends.append(now + d)
                run_cores.append(c)
                heapq.heappush(finish_heap, (now + runtime_l[j], j))
                free -= c
        if started:
            n_live -= started
            if static:
                keep = [i for i, j in enumerate(qjobs) if not started_f[j]]
                qjobs[:] = [qjobs[i] for i in keep]
                qranks[:] = [qranks[i] for i in keep]
            else:
                pend[:] = [j for j in pend if not started_f[j]]

    now = float(submit_l[0])
    root_span = prof.span(
        "simulate",
        engine="fast-conservative",
        policy=getattr(policy, "name", type(policy).__name__),
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()
    clock = PhaseClock(prof) if prof.enabled else None
    while next_submit < n or finish_heap:
        t_sub = submit_l[next_submit] if next_submit < n else INF
        t_fin = finish_heap[0][0] if finish_heap else INF
        now = t_sub if t_sub <= t_fin else t_fin
        while finish_heap and finish_heap[0][0] <= now:
            _, j = heapq.heappop(finish_heap)
            i = run_pos.pop(j)
            last = len(run_jobs) - 1
            if i != last:
                moved = run_jobs[last]
                run_jobs[i] = moved
                run_ends[i] = run_ends[last]
                run_cores[i] = run_cores[last]
                run_pos[moved] = i
            run_jobs.pop()
            run_ends.pop()
            run_cores.pop()
            free += cores_l[j]
        if next_submit < n and t_sub <= now:
            # batched drain: all submissions at or before this instant
            hi = np.searchsorted(submit, now, side="right")
            hi = int(hi)
            if static:
                for j in range(next_submit, hi):
                    r = rank_of[j]
                    i = bisect_left(qranks, r)
                    qranks.insert(i, r)
                    qjobs.insert(i, j)
            else:
                pend.extend(range(next_submit, hi))
            n_live += hi - next_submit
            next_submit = hi
        if clock is None:
            schedule(now)
        else:
            clock.round(schedule, now)
    if clock is not None:
        clock.report()
    root_span.__exit__(None, None, None)

    assert not n_live and bool(np.all(start_np >= 0)), (
        "scheduler left jobs unserved"
    )
    result = SimResult(
        workload=workload,
        capacity=capacity,
        start=start_np,
        promised=promised_np,
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
    return result
