"""Vectorized fault-injection engine (fast twin of
:func:`repro.sched.faults.simulate_with_faults`).

Same deal as :mod:`repro.sched.fast` and
:mod:`repro.sched.fast_conservative`: **bit-identical results**, flat
data.  The failure/retry state machine of :class:`_FaultState` and
:class:`FaultyCluster` is re-expressed as array-level masks and scalar
list mirrors over the same job-indexed state arrays the EASY rewrite
uses:

* **Flat fault state.**  ``remaining`` / ``attempts`` / ``generation`` /
  ``attempt_start`` / terminal ``status`` live in plain per-job arrays
  (Python list mirrors in the hot loop); node layout is two flat arrays
  (``node_size`` / ``node_free``) plus a down-mask, and job→node span
  assignment is the reference's deterministic first-fit over those
  arrays.  Node failures resolve victims through the same
  insertion-ordered span table the reference walks.
* **Identical randomness.**  One ``np.random.default_rng(faults.seed)``
  drives every draw in the reference's exact order: per-node MTBF
  exponentials up front, the intrinsic-fate uniform (plus the truncated-
  duration uniform) at each attempt start, one MTTR exponential per
  failure, one MTBF exponential per repair.  Because the schedule is
  bit-identical, the draw sequence is too.
* **Identical event algebra.**  The same ``(time, priority, seq)`` heap
  with finish < fail < repair < resubmit at equal instants, the same
  generation counters invalidating stale finish events, the same
  ``floor(elapsed / interval) * interval`` checkpoint restore and
  ``backoff_base * factor**(attempts-1)`` resubmission delays.
* **Vectorized scheduling rounds.**  The pending queue is a flat int64
  buffer in *entry* order with positional tombstones and amortized
  compaction — entry order is the reference's tie-break state
  (resubmitted jobs re-enter at the back), which is why ranks cannot be
  precomputed the way ``fast.py``'s static mode does.  Each round runs
  one stable ``np.lexsort`` over the live region (with per-entry
  score/submit key mirrors for static policies) and serves the longest
  affordable rank prefix via ``cumsum``/``searchsorted``; the EASY
  backfill window test runs as the same masked argmax scan ``fast.py``
  uses.  Fair-share re-ranks after every
  served head (usage moves within a round) with a dense usage vector
  that decays **without** the epsilon pruning ``engine.py`` applies —
  the reference fault engine never prunes, and ``0.5**(dt/half_life)``
  products must see the same operand history to match bitwise.

This is the production fault engine (``simulate(faults=...)``).
Instrumented runs (``tracer=`` / ``metrics=``) delegate to the reference
loop — identical results by the bit-identity contract, enforced by
``repro fuzz`` and ``tests/test_fast_engine.py``.  ``profiler=`` stays
on the fast path, which reports its phases.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort

import numpy as np

from ..obs.profiling import NULL_PROFILER, PhaseClock
from ..traces.schema import JobStatus
from .backfill import BackfillConfig, EASY
from .fast import STATIC_POLICIES
from .faults import (
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_NODE_KILLED,
    ATTEMPT_USER_KILLED,
    FaultConfig,
    FaultSimResult,
    NO_FAULTS,
)
from .job import SimWorkload
from .policies import Policy, get_policy

__all__ = ["simulate_fast_with_faults"]

_P_FINISH, _P_FAIL, _P_REPAIR, _P_RESUBMIT = 0, 1, 2, 3
_INF = float("inf")

_PASSED = int(JobStatus.PASSED)
_FAILED = int(JobStatus.FAILED)
_KILLED = int(JobStatus.KILLED)


def simulate_fast_with_faults(
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
    """Vectorized :func:`~repro.sched.simulate_with_faults`; bit-identical
    :class:`FaultSimResult` (schedule, attempt log, node logs), same
    signature."""
    if tracer is not None or metrics is not None:
        # traced/metered runs take the readable reference loop — results
        # are identical by the bit-identity contract this module tests
        from .faults import simulate_with_faults

        return simulate_with_faults(
            workload,
            capacity,
            policy,
            backfill,
            faults,
            track_queue=track_queue,
            kill_at_walltime=kill_at_walltime,
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
    faults.check_capacity(capacity)
    if kill_at_walltime:
        workload = workload.clipped_to_walltime()

    submit = workload.submit
    cores = workload.cores
    walltime = workload.walltime
    users = workload.user

    rng = np.random.default_rng(faults.seed)
    prof = NULL_PROFILER if profiler is None else profiler

    submit_l = submit.tolist()
    cores_l = cores.tolist()
    walltime_l = walltime.tolist()

    # ---- flat fault state (mirrors _FaultState field for field)
    full_runtime_l = np.asarray(workload.runtime, dtype=float).tolist()
    remaining_l = list(full_runtime_l)
    attempts_l = [0] * n
    gen_l = [0] * n
    running_f = bytearray(n)
    attempt_start_l = [math.nan] * n
    first_start_l = [-1.0] * n
    status_l = [-1] * n
    end_l = [math.nan] * n
    unfinished = n
    att_job: list[int] = []
    att_start: list[float] = []
    att_elapsed: list[float] = []
    att_outcome: list[int] = []

    has_intrinsic = faults.has_intrinsic_faults
    kill_prob = float(faults.kill_prob)
    kf_prob = faults.kill_prob + faults.fail_prob  # reference's exact sum
    max_attempts = int(faults.max_attempts)
    backoff_base = float(faults.backoff_base)
    backoff_factor = float(faults.backoff_factor)
    ci = faults.checkpoint_interval
    rng_random = rng.random
    rng_exponential = rng.exponential

    # ---- flat cluster (mirrors Cluster / FaultyCluster)
    faulty = faults.has_node_faults
    free = int(capacity)
    held = 0  # cores held by running jobs (FaultyCluster's inf-shadow test)
    running: list[tuple[float, int]] = []  # sorted (expected_end, cores)
    exp_end_l = [0.0] * n
    if faulty:
        n_nodes = int(faults.n_nodes)  # <= capacity: checked on entry
        base, leftover = divmod(int(capacity), n_nodes)
        node_size = [base + (1 if i < leftover else 0) for i in range(n_nodes)]
        node_free = list(node_size)
        down = bytearray(n_nodes)
        spans_d: dict[int, list[tuple[int, int]]] = {}

    # ---- fair-share usage as a dense vector; NO epsilon pruning — the
    # reference fault engine's decay keeps every entry alive, and the
    # multiplicative history must match bitwise
    track_usage = getattr(policy, "half_life_hours", None) is not None
    if track_usage:
        half_life = float(getattr(policy, "half_life_hours", 24.0)) * 3600.0
        uniq_users, uinv = np.unique(users, return_inverse=True)
        uinv_l = uinv.tolist()
        usage_vec = np.zeros(len(uniq_users))
        usage_any = False
    usage_time = float(submit[0])

    if type(policy) is Policy and policy.name in STATIC_POLICIES:
        mode = "static"
        static_scores = policy.score(submit, cores, walltime, float(submit_l[0]))
        static_scores_l = static_scores.tolist()
    elif type(policy) is Policy:
        mode = "dynamic"
    else:
        mode = "stateful"  # fair-share & custom subclasses: re-rank per serve

    prom_np = np.full(n, np.nan)
    prom_f = bytearray(n)
    backf_f = bytearray(n)
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    next_submit = 0
    observed_max_q = 0
    q_samples: list[int] = []
    q_times: list[float] = []
    fail_t: list[float] = []
    fail_n: list[int] = []
    repair_t: list[float] = []
    bf_enabled = backfill.enabled
    relax_fraction = backfill.relax_fraction
    heappush = heapq.heappush
    heappop = heapq.heappop

    # ---- pending queue: flat int64 buffer in ENTRY order with positional
    # tombstones.  The reference's pending list order — fresh submissions
    # in index order, resubmitted jobs re-appended at the back — IS the
    # tie-break state its stable per-round lexsort resolves against, so
    # the buffer preserves append order and the round sorts the live
    # region.  Unlike fast.py's rank-ordered static queue, ranks cannot
    # be precomputed here: a resubmitted job re-enters *behind* jobs it
    # originally tied with, so entry order must be kept explicitly.
    # Tombstones are positional (a job id can re-enter while its dead
    # entry still sits in the buffer), and the region is compacted with
    # one vectorized filter whenever dead entries exist — starts are much
    # rarer than rounds, so most rounds slice the live region for free.
    qcap = n + 64
    qbuf = np.empty(qcap, dtype=np.int64)
    qdead = np.zeros(qcap, dtype=bool)
    if mode == "static":
        # per-entry key mirrors so the round's lexsort needs no gathers
        qscore = np.empty(qcap, dtype=np.float64)
        qsub = np.empty(qcap, dtype=np.float64)
    qhead = 0
    qtail = 0
    n_live = 0

    def compact() -> None:
        nonlocal qhead, qtail
        live = ~qdead[qhead:qtail]
        k = int(n_live)
        qbuf[:k] = qbuf[qhead:qtail][live]
        if mode == "static":
            qscore[:k] = qscore[qhead:qtail][live]
            qsub[:k] = qsub[qhead:qtail][live]
        qdead[:k] = False
        qhead = 0
        qtail = k

    def q_grow() -> None:
        nonlocal qcap, qbuf, qdead, qscore, qsub
        qcap *= 2
        qbuf = np.concatenate([qbuf, np.empty(len(qbuf), dtype=np.int64)])
        qdead = np.concatenate([qdead, np.zeros(len(qdead), dtype=bool)])
        if mode == "static":
            qscore = np.concatenate([qscore, np.empty(len(qscore))])
            qsub = np.concatenate([qsub, np.empty(len(qsub))])

    def q_append(j: int) -> None:
        """Enqueue one resubmitted job at the back, like ``pending.append``."""
        nonlocal qhead, qtail, n_live
        if n_live == 0:
            qhead = qtail = 0
        elif qtail == qcap:
            compact()
            if qtail == qcap:
                q_grow()
        qbuf[qtail] = j
        qdead[qtail] = False
        if mode == "static":
            qscore[qtail] = static_scores_l[j]
            qsub[qtail] = submit_l[j]
        qtail += 1
        n_live += 1

    def q_extend(lo: int, hi: int) -> None:
        """Enqueue fresh submissions ``lo..hi`` in index (= entry) order."""
        nonlocal qhead, qtail, n_live
        k = hi - lo
        if n_live == 0:
            qhead = qtail = 0
        elif qtail + k > qcap:
            compact()
            while qtail + k > qcap:
                q_grow()
        qbuf[qtail:qtail + k] = np.arange(lo, hi, dtype=np.int64)
        qdead[qtail:qtail + k] = False
        if mode == "static":
            qscore[qtail:qtail + k] = static_scores[lo:hi]
            qsub[qtail:qtail + k] = submit[lo:hi]
        qtail += k
        n_live += k

    if faulty:
        t0 = float(submit[0])
        for node in range(n_nodes):
            heappush(events, (t0 + rng_exponential(faults.node_mtbf), _P_FAIL, seq, node))
            seq += 1

    def start_job(j: int, now: float) -> None:
        nonlocal free, held, seq, usage_any
        c = cores_l[j]
        end = now + walltime_l[j]
        free -= c
        held += c
        exp_end_l[j] = end
        insort(running, (end, c))
        if faulty:
            # first-fit span assignment, identical to FaultyCluster.start
            spans: list[tuple[int, int]] = []
            need = c
            for node in range(n_nodes):
                nf = node_free[node]
                if nf > 0:
                    take = nf if nf < need else need
                    node_free[node] = nf - take
                    spans.append((node, take))
                    need -= take
                    if need == 0:
                        break
            spans_d[j] = spans
        # _FaultState.begin
        if first_start_l[j] < 0:
            first_start_l[j] = now
        attempts_l[j] += 1
        gen_l[j] += 1
        running_f[j] = 1
        attempt_start_l[j] = now
        dur = remaining_l[j]
        fate = ATTEMPT_COMPLETED
        if has_intrinsic:
            u = float(rng_random())
            if u < kill_prob:
                fate = ATTEMPT_USER_KILLED
                dur *= float(rng_random())
            elif u < kf_prob:
                fate = ATTEMPT_FAILED
                dur *= float(rng_random())
        heappush(events, (now + dur, _P_FINISH, seq, (j, gen_l[j], fate)))
        seq += 1
        if track_usage:
            usage_vec[uinv_l[j]] += float(c) * float(walltime_l[j])
            usage_any = True

    def release(j: int) -> None:
        """Cluster bookkeeping of ``finish(j)`` (no state transition)."""
        nonlocal free, held
        c = cores_l[j]
        if faulty:
            for node, units in spans_d.pop(j):
                node_free[node] += units
        free += c
        held -= c
        del running[bisect_left(running, (exp_end_l[j], c))]

    def decay_usage(now: float) -> None:
        nonlocal usage_time
        if now > usage_time and usage_any:
            usage_vec_local = usage_vec
            usage_vec_local *= 0.5 ** ((now - usage_time) / half_life)
        usage_time = usage_time if usage_time > now else now

    def blocked_head(head: int, now: float, rest, rest_pos) -> None:
        """Reservation + one backfill pass over the ranked tail ``rest``.

        ``rest_pos`` holds each candidate's position in the queue buffer
        region (``order`` indices) so backfill starts can tombstone in
        place.  ``n_live`` counts the head and everything in ``rest``,
        matching the ``len(pending)`` the reference feeds
        ``relax_fraction`` (served heads are already removed)."""
        nonlocal free, n_live
        c_head = cores_l[head]
        if faulty and c_head > free + held:
            # FaultyCluster: bigger than everything currently healthy —
            # no reservation, no promise, hold until a repair
            return
        acc = free
        shadow = now
        extra = 0
        for end, c in running:
            acc += c
            if acc >= c_head:
                shadow = end if end > now else now
                extra = acc - c_head
                break
        if not prom_f[head]:
            prom_f[head] = 1
            prom_np[head] = shadow
        if not bf_enabled or not len(rest) or free == 0:
            return
        if clock is not None:
            clock.mark("backfill_scan")
        frac = relax_fraction(n_live, observed_max_q)
        limit = shadow + frac * max(shadow - submit_l[head], 0.0)
        # vectorized prefilter + masked argmax scan, exactly as fast.py:
        # budgets only shrink during the scan and skipped candidates have
        # no side effects, so testing against the initial budgets equals
        # the reference's per-candidate `continue`.  (`now + walltime <=
        # limit` must stay in exactly this form — see fast.py.)
        cr = cores[rest]
        fits_w = now + walltime[rest] <= limit
        m = len(rest)
        i = 0
        while free:
            crr = cr[i:] if i else cr
            ok = crr <= free
            if extra > 0:
                ok &= (fits_w[i:] if i else fits_w) | (crr <= extra)
            else:
                ok &= fits_w[i:] if i else fits_w
            am = int(ok.argmax())
            if not ok[am]:
                return
            p = i + am
            j = int(rest[p])
            if not fits_w[p]:
                extra -= cores_l[j]
            start_job(j, now)
            backf_f[j] = 1
            qdead[qhead + int(rest_pos[p])] = True
            n_live -= 1
            i = p + 1
            if i >= m:
                return

    def schedule(now: float) -> None:
        nonlocal observed_max_q, qhead, n_live
        if n_live > observed_max_q:
            observed_max_q = n_live
        if track_queue:
            q_samples.append(n_live)
            q_times.append(now)
        if track_usage:
            decay_usage(now)
        if not n_live:
            return
        if mode == "stateful":
            # usage (or a custom subclass's internal state) may move with
            # every served head: re-rank per serve, like the reference
            while n_live:
                if (qtail - qhead) != n_live:
                    compact()
                arr = qbuf[qhead:qtail]
                if track_usage:
                    order = policy.order(
                        submit[arr], cores[arr], walltime[arr], now,
                        user=users[arr], usage=usage_vec[uinv[arr]],
                    )
                else:
                    order = policy.order(
                        submit[arr], cores[arr], walltime[arr], now
                    )
                ranked = arr[order]
                head = int(ranked[0])
                if cores_l[head] <= free:
                    start_job(head, now)
                    qdead[qhead + int(order[0])] = True
                    n_live -= 1
                    continue
                blocked_head(head, now, ranked[1:], order[1:])
                return
            return
        # static/dynamic: scores are frozen within the round, so one
        # stable lexsort over the entry-ordered live region (= the
        # reference's pending list) equals its serve-resort sequence,
        # and the longest rank prefix whose cumulative cores fit is
        # exactly the set of heads the reference serves before blocking
        if (qtail - qhead) != n_live:
            compact()
        if mode == "static":
            order = np.lexsort((qsub[qhead:qtail], qscore[qhead:qtail]))
            ranked = qbuf[qhead:qtail][order]
        else:
            arr = qbuf[qhead:qtail]
            order = policy.order(submit[arr], cores[arr], walltime[arr], now)
            ranked = arr[order]
        csum = np.cumsum(cores[ranked])
        k = int(np.searchsorted(csum, free, side="right"))
        if k:
            for j in ranked[:k].tolist():
                start_job(j, now)
            qdead[qhead + order[:k]] = True
            n_live -= k
        if k == len(ranked):
            return
        blocked_head(int(ranked[k]), now, ranked[k + 1:], order[k + 1:])

    now = float(submit_l[0])
    root_span = prof.span(
        "simulate",
        engine="fast-faults",
        policy=getattr(policy, "name", type(policy).__name__),
        n_jobs=int(n),
        capacity=int(capacity),
    )
    root_span.__enter__()
    clock = PhaseClock(prof) if prof.enabled else None
    while unfinished > 0:
        t_sub = submit_l[next_submit] if next_submit < n else _INF
        t_ev = events[0][0] if events else _INF
        now = t_sub if t_sub <= t_ev else t_ev
        assert now < _INF, "fault engine stalled with unfinished jobs"
        while events and events[0][0] <= now:
            t, prio, _s, payload = heappop(events)
            if prio == _P_FINISH:
                j, gen, fate = payload
                if not running_f[j] or gen_l[j] != gen:
                    continue  # stale: the attempt was killed earlier
                release(j)
                # _FaultState.close_attempt
                running_f[j] = 0
                st = attempt_start_l[j]
                elapsed = t - st
                att_job.append(j)
                att_start.append(st)
                att_elapsed.append(elapsed)
                att_outcome.append(fate)
                if fate == ATTEMPT_COMPLETED:
                    status_l[j] = _PASSED
                    end_l[j] = t
                    unfinished -= 1
                elif fate == ATTEMPT_USER_KILLED:
                    status_l[j] = _KILLED
                    end_l[j] = t
                    unfinished -= 1
                else:
                    # intrinsic failure invalidates checkpoints
                    remaining_l[j] = full_runtime_l[j]
                    if attempts_l[j] < max_attempts:
                        delay = backoff_base * backoff_factor ** (attempts_l[j] - 1)
                        heappush(events, (t + delay, _P_RESUBMIT, seq, j))
                        seq += 1
                    else:
                        status_l[j] = _FAILED
                        end_l[j] = t
                        unfinished -= 1
            elif prio == _P_FAIL:
                node = payload
                if down[node]:
                    victims: list[int] = []
                else:
                    # FaultyCluster.fail_node: victims in span-table
                    # (= start) order, each released before the node drops
                    victims = [
                        j
                        for j, spans in spans_d.items()
                        if any(nd == node for nd, _u in spans)
                    ]
                    for j in victims:
                        release(j)
                    down[node] = 1
                    free -= node_free[node]
                    node_free[node] = 0
                for j in victims:
                    # _FaultState.node_kill
                    running_f[j] = 0
                    gen_l[j] += 1  # invalidates the in-flight finish
                    st = attempt_start_l[j]
                    elapsed = t - st
                    att_job.append(j)
                    att_start.append(st)
                    att_elapsed.append(elapsed)
                    att_outcome.append(ATTEMPT_NODE_KILLED)
                    if ci:
                        remaining_l[j] -= math.floor(elapsed / ci) * ci
                    if attempts_l[j] < max_attempts:
                        delay = backoff_base * backoff_factor ** (attempts_l[j] - 1)
                        heappush(events, (t + delay, _P_RESUBMIT, seq, j))
                        seq += 1
                    else:
                        status_l[j] = _KILLED
                        end_l[j] = t
                        unfinished -= 1
                fail_t.append(t)
                fail_n.append(int(node))
                heappush(
                    events,
                    (t + rng_exponential(faults.node_mttr), _P_REPAIR, seq, node),
                )
                seq += 1
            elif prio == _P_REPAIR:
                node = payload
                if down[node]:
                    down[node] = 0
                    node_free[node] = node_size[node]
                    free += node_size[node]
                repair_t.append(t)
                heappush(
                    events,
                    (t + rng_exponential(faults.node_mtbf), _P_FAIL, seq, node),
                )
                seq += 1
            else:  # _P_RESUBMIT
                q_append(payload)
        if next_submit < n and t_sub <= now:
            hi = int(np.searchsorted(submit, now, side="right"))
            q_extend(next_submit, hi)
            next_submit = hi
        if clock is None:
            schedule(now)
        else:
            clock.round(schedule, now)
    if clock is not None:
        clock.report()
    root_span.__exit__(None, None, None)

    assert not n_live and min(status_l) >= 0, "jobs left non-terminal"
    return FaultSimResult(
        workload=workload,
        capacity=capacity,
        faults=faults,
        start=np.asarray(first_start_l, dtype=np.float64),
        end=np.asarray(end_l, dtype=np.float64),
        status=np.asarray(status_l, dtype=np.int64),
        attempts=np.asarray(attempts_l, dtype=np.int64),
        promised=prom_np,
        backfilled=np.frombuffer(bytes(backf_f), dtype=np.uint8).astype(bool),
        attempt_job=np.asarray(att_job, dtype=np.int64),
        attempt_start=np.asarray(att_start, dtype=np.float64),
        attempt_elapsed=np.asarray(att_elapsed, dtype=np.float64),
        attempt_outcome=np.asarray(att_outcome, dtype=np.int64),
        node_fail_times=np.asarray(fail_t, dtype=np.float64),
        node_fail_nodes=np.asarray(fail_n, dtype=np.int64),
        node_repair_times=np.asarray(repair_t, dtype=np.float64),
        queue_samples=np.asarray(q_samples, dtype=np.int64),
        queue_sample_times=np.asarray(q_times, dtype=np.float64),
    )
