"""Headline benchmark: the vectorized engine vs the readable reference.

The tentpole claim of docs/PERFORMANCE.md — ``repro.sched.fast`` replays
large traces >= 10x faster than the reference engine while producing
bit-identical schedules — is asserted here, not just documented:

* ``test_bench_fast_100k`` times the fast engine alone on the standard
  100k-job diurnal workload (the perf-gate trajectory entry);
* ``test_fast_speedup_100k`` runs *both* engines on that workload — the
  reference side is the readable loop by name, ``simulate_reference``,
  since ``simulate()`` itself now runs the fast engine — and
  asserts the >= 10x ratio plus identical ``SimResult.to_dict()``
  (measured ~20x on a dev box, so the gate has 2x headroom for noise);
* ``test_fast_speedup_million`` is the million-job smoke from the issue,
  opt-in via ``REPRO_RUN_SLOW=1`` (the reference engine needs ~10 min of
  wall clock for it); it records its measured speedup into the
  ``BENCH_OUT`` history alongside the regular bench records;
* the PR 10 twins get the same treatment at 100k jobs:
  ``test_bench_fast_conservative_100k`` / ``test_bench_fast_faults_100k``
  time the vectorized engines alone (perf-gate trajectory entries), and
  ``test_fast_conservative_speedup_100k`` /
  ``test_fast_faults_speedup_100k`` assert the >= 5x floor against their
  readable references with identical ``to_dict()`` summaries.  The
  floors are lower than the EASY-family 10x because both references do
  real per-event Python work the twins must reproduce draw-for-draw
  (profile walks, RNG-driven fault state); measured ~12x and ~14x on a
  dev box.

The workload generator thins a diurnal Poisson process, so the queue
stays deep (mean ~1000 on the 100k config) but *bounded* — wall clock
scales linearly in jobs rather than O(jobs x queue), which is what makes
the million-job configuration feasible at all.
"""

import os
import time

import numpy as np
import pytest

from repro.sched import (
    EASY,
    FaultConfig,
    SimWorkload,
    simulate_conservative,
    simulate_fast,
    simulate_fast_conservative,
    simulate_fast_with_faults,
    simulate_reference,
    simulate_with_faults,
)

#: the 100k perf-gate configuration (reference ~60-70s, fast ~3-4s)
BENCH_JOBS = 100_000
BENCH_CAPACITY = 1024
SPEEDUP_FLOOR = 10.0
#: floor for the conservative / fault twins (measured ~12x / ~14x)
TWIN_SPEEDUP_FLOOR = 5.0

#: calibrated 100k fault configuration: realistic node churn (MTBF ~70h
#: per node across 32 nodes), intrinsic faults, retries and hourly
#: checkpoints — ~8% of jobs need more than one attempt
BENCH_FAULTS = FaultConfig(
    node_mtbf=250_000.0,
    node_mttr=3600.0,
    n_nodes=32,
    fail_prob=0.05,
    kill_prob=0.02,
    max_attempts=3,
    checkpoint_interval=1800.0,
    seed=11,
)


def diurnal_workload(
    n: int,
    capacity: int,
    seed: int = 0,
    load: float = 1.02,
    swing: float = 0.6,
    core_cap: int = 0,
) -> SimWorkload:
    """``n`` jobs from a thinned diurnal Poisson process at ``load``.

    Arrivals follow a sinusoidal day/night rate (peak-to-mean ratio
    ``1 + swing``), so the simulated cluster oscillates between saturated
    and draining: the queue goes deep every peak but never grows without
    bound.  Job sizes cap at ``core_cap`` (default ``capacity // 8``) so
    backfilling has real holes to fill; the conservative bench lowers the
    cap so its reservation profile carries many small overlapping spans —
    the shape that stresses the profile rebuild.
    """
    rng = np.random.default_rng(seed)
    cores = rng.integers(1, (core_cap or capacity // 8) + 1, n)
    runtime = rng.exponential(600.0, n)
    walltime = runtime * rng.uniform(1.1, 3.0, n)
    mean_work = float((cores * runtime).mean())
    lam = capacity * load / mean_work
    lam_max = lam * (1 + swing)
    # oversample the max-rate process, then thin to the diurnal profile
    m = int(n * (1 + swing) * 1.25) + 64
    t = np.cumsum(rng.exponential(1.0 / lam_max, m))
    accept = rng.random(m) < (1 + swing * np.sin(2 * np.pi * t / 86400.0)) / (
        1 + swing
    )
    submit = t[accept][:n]
    assert len(submit) == n, "oversampling margin too small"
    return SimWorkload(
        submit=submit,
        cores=cores.astype(np.int64),
        runtime=runtime,
        walltime=walltime,
        user=rng.integers(0, 100, n).astype(np.int64),
    )


def test_bench_fast_100k(benchmark):
    """Perf-gate entry: the fast engine alone on the 100k workload."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)
    result = benchmark.pedantic(
        simulate_fast,
        args=(wl, BENCH_CAPACITY, "fcfs", EASY),
        rounds=3,
        iterations=1,
    )
    assert int((result.start >= 0).sum()) == BENCH_JOBS


def test_fast_speedup_100k(record_property):
    """>= 10x over the reference at 100k jobs, bit-identical summary."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)

    t0 = time.perf_counter()
    ref = simulate_reference(wl, BENCH_CAPACITY, "fcfs", EASY)
    ref_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = simulate_fast(wl, BENCH_CAPACITY, "fcfs", EASY)
    fast_s = time.perf_counter() - t0

    assert np.array_equal(ref.start, fast.start)
    assert ref.to_dict() == fast.to_dict()
    speedup = ref_s / fast_s
    record_property("reference_seconds", round(ref_s, 3))
    record_property("fast_seconds", round(fast_s, 3))
    record_property("speedup", round(speedup, 2))
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast engine only {speedup:.1f}x over reference "
        f"(ref {ref_s:.2f}s, fast {fast_s:.2f}s); floor {SPEEDUP_FLOOR}x"
    )


def _conservative_workload() -> SimWorkload:
    """Steady subcritical arrivals (no diurnal swing) for the
    conservative bench: every queued job holds a reservation, so profile
    and queue sizes couple — the diurnal peaks that the EASY benches
    thrive on push *both* conservative engines superlinear.  A bounded
    queue of small jobs keeps the reservation profile dense (hundreds of
    overlapping spans) while wall clock stays linear in jobs."""
    return diurnal_workload(
        BENCH_JOBS, BENCH_CAPACITY, seed=1, load=0.9, swing=0.0, core_cap=8
    )


def test_bench_fast_conservative_100k(benchmark):
    """Perf-gate entry: the conservative twin alone on 100k jobs."""
    wl = _conservative_workload()
    result = benchmark.pedantic(
        simulate_fast_conservative,
        args=(wl, BENCH_CAPACITY, "fcfs"),
        rounds=3,
        iterations=1,
    )
    assert int((result.start >= 0).sum()) == BENCH_JOBS


def test_fast_conservative_speedup_100k(record_property):
    """>= 5x over the reference conservative engine at 100k jobs."""
    wl = _conservative_workload()

    t0 = time.perf_counter()
    ref = simulate_conservative(wl, BENCH_CAPACITY, "fcfs")
    ref_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = simulate_fast_conservative(wl, BENCH_CAPACITY, "fcfs")
    fast_s = time.perf_counter() - t0

    assert np.array_equal(ref.start, fast.start)
    assert np.array_equal(ref.promised, fast.promised, equal_nan=True)
    assert ref.to_dict() == fast.to_dict()
    speedup = ref_s / fast_s
    record_property("reference_seconds", round(ref_s, 3))
    record_property("fast_seconds", round(fast_s, 3))
    record_property("speedup", round(speedup, 2))
    assert speedup >= TWIN_SPEEDUP_FLOOR, (
        f"conservative twin only {speedup:.1f}x over reference "
        f"(ref {ref_s:.2f}s, fast {fast_s:.2f}s); floor {TWIN_SPEEDUP_FLOOR}x"
    )


def test_bench_fast_faults_100k(benchmark):
    """Perf-gate entry: the fault twin alone on 100k jobs."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)
    result = benchmark.pedantic(
        simulate_fast_with_faults,
        args=(wl, BENCH_CAPACITY, "fcfs", EASY, BENCH_FAULTS),
        rounds=3,
        iterations=1,
    )
    assert int((result.status >= 0).sum()) == BENCH_JOBS


def test_fast_faults_speedup_100k(record_property):
    """>= 5x over the reference fault engine at 100k jobs, identical
    summaries — attempts, node failures, wasted core-seconds and all."""
    wl = diurnal_workload(BENCH_JOBS, BENCH_CAPACITY)

    t0 = time.perf_counter()
    ref = simulate_with_faults(
        wl, BENCH_CAPACITY, "fcfs", EASY, BENCH_FAULTS
    )
    ref_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = simulate_fast_with_faults(
        wl, BENCH_CAPACITY, "fcfs", EASY, BENCH_FAULTS
    )
    fast_s = time.perf_counter() - t0

    assert np.array_equal(ref.start, fast.start)
    assert np.array_equal(ref.status, fast.status)
    assert np.array_equal(ref.attempts, fast.attempts)
    assert ref.to_dict() == fast.to_dict()
    speedup = ref_s / fast_s
    record_property("reference_seconds", round(ref_s, 3))
    record_property("fast_seconds", round(fast_s, 3))
    record_property("speedup", round(speedup, 2))
    assert speedup >= TWIN_SPEEDUP_FLOOR, (
        f"fault twin only {speedup:.1f}x over reference "
        f"(ref {ref_s:.2f}s, fast {fast_s:.2f}s); floor {TWIN_SPEEDUP_FLOOR}x"
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW"),
    reason="million-job differential takes ~10 min; set REPRO_RUN_SLOW=1",
)
def test_fast_speedup_million(record_property):
    """The issue's headline: 1M jobs, >= 10x, identical to_dict()."""
    wl = diurnal_workload(1_000_000, BENCH_CAPACITY)

    t0 = time.perf_counter()
    fast = simulate_fast(wl, BENCH_CAPACITY, "fcfs", EASY)
    fast_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ref = simulate_reference(wl, BENCH_CAPACITY, "fcfs", EASY)
    ref_s = time.perf_counter() - t0

    assert np.array_equal(ref.start, fast.start)
    assert np.array_equal(ref.promised, fast.promised, equal_nan=True)
    assert np.array_equal(ref.backfilled, fast.backfilled)
    assert ref.to_dict() == fast.to_dict()
    speedup = ref_s / fast_s
    record_property("reference_seconds", round(ref_s, 3))
    record_property("fast_seconds", round(fast_s, 3))
    record_property("speedup", round(speedup, 2))
    assert speedup >= SPEEDUP_FLOOR, (
        f"million-job speedup {speedup:.1f}x below the {SPEEDUP_FLOOR}x floor "
        f"(ref {ref_s:.1f}s, fast {fast_s:.1f}s)"
    )
