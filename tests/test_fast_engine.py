"""Differential tests pinning the vectorized engines to the references.

:mod:`repro.sched.fast` reimplements the EASY-family hot path with flat
arrays and batched event processing, :mod:`repro.sched.fast_conservative`
does the same for conservative backfilling's profile walk, and
:mod:`repro.sched.fast_faults` for the fault-injected engine; their one
shared contract is **bit-identical results** (docs/PERFORMANCE.md).  This
suite enforces that contract:

* seeded differential matrices — every queue policy crossed with every
  backfill mode on adversarial fuzz workloads (multi-user so fair-share
  state is exercised), conservative backfilling across every policy, and
  the fault engine across zero-failure and calibrated fault configs;
* deep-queue burst stress, where the vectorized backfill scan and the
  amortized queue compaction actually kick in;
* hypothesis properties over arbitrary small workloads, running the
  shared invariant battery (:mod:`repro.testkit.invariants`) — including
  the fault battery's conservation sweep over failed/restarted attempts;
* the satellite bugfixes: fair-share usage pruning (``USAGE_EPS``) and
  the normalized ``queue_samples`` / fault-array dtypes;
* the wiring surfaces: ``simulate()`` dispatching every run to the fast
  family (the ``faults=`` and ``profiler=`` paths included),
  ``run_sweep`` and the experiments' sweep cells, the fuzzer's
  per-configuration engine set, and the CLI paths that take the fast
  engines (cross-checked against the same CLI runs with ``simulate``
  routed to the readable loops).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.runner import SimTask, run_sweep
from repro.sched import (
    EASY,
    NO_BACKFILL,
    NO_FAULTS,
    FaultConfig,
    SimWorkload,
    adaptive_relaxed,
    relaxed,
    simulate,
    simulate_conservative,
    simulate_fast,
    simulate_fast_conservative,
    simulate_fast_with_faults,
    simulate_reference,
    simulate_with_faults,
)
from repro.sched.engine import USAGE_EPS
from repro.testkit import FUZZ_POLICIES, check_case, fuzz, random_workload
from repro.testkit.fuzz import FUZZ_FAULT_CONFIGS, fit_faults
from repro.testkit.invariants import check_fault_result, check_result

CAPACITY = 16

#: every queue policy the engines accept, stateless and stateful alike
ALL_POLICIES = (
    "fcfs", "sjf", "ljf", "smallest", "largest", "wfp3", "unicef", "f1",
    "fairshare",
)

BACKFILLS = {
    "none": NO_BACKFILL,
    "easy": EASY,
    "relaxed": relaxed(0.5),
    "adaptive": adaptive_relaxed(0.4),
}


def _multi_user(wl: SimWorkload, rng: np.random.Generator, n_users: int = 4):
    """The same workload with jobs spread over ``n_users`` users."""
    return SimWorkload(
        submit=wl.submit,
        cores=wl.cores,
        runtime=wl.runtime,
        walltime=wl.walltime,
        user=rng.integers(0, n_users, wl.n).astype(np.int64),
        status=wl.status,
    )


def _burst_workload(n: int = 300, seed: int = 0) -> SimWorkload:
    """Bursty submissions against a tiny cluster: queues go deep."""
    rng = np.random.default_rng(seed)
    submit = np.repeat(np.arange(n // 20) * 50.0, 20)[:n]
    runtime = rng.integers(1, 400, n).astype(float)
    return SimWorkload(
        submit=submit,
        cores=rng.integers(1, 8, n).astype(np.int64),
        runtime=runtime,
        walltime=runtime + rng.integers(0, 200, n),
        user=rng.integers(0, 5, n).astype(np.int64),
    )


def _assert_identical(ref, fast, label=""):
    assert np.array_equal(ref.start, fast.start), f"{label}: start"
    assert np.array_equal(
        ref.promised, fast.promised, equal_nan=True
    ), f"{label}: promised"
    assert np.array_equal(ref.backfilled, fast.backfilled), f"{label}: backfilled"
    assert np.array_equal(
        ref.queue_samples, fast.queue_samples
    ), f"{label}: queue_samples"
    assert np.array_equal(
        ref.queue_sample_times, fast.queue_sample_times
    ), f"{label}: queue_sample_times"


# ----------------------------------------------------------------------
# bit-identity


class TestFastMatchesReference:
    def test_differential_matrix(self):
        """Every policy x backfill on seeded adversarial workloads."""
        for case in range(25):
            rng = np.random.default_rng((42, case))
            wl = _multi_user(random_workload(rng, capacity=CAPACITY), rng)
            for policy in ALL_POLICIES:
                for bf_name, bf in BACKFILLS.items():
                    ref = simulate_reference(
                        wl, CAPACITY, policy, bf, track_queue=True
                    )
                    fast = simulate_fast(
                        wl, CAPACITY, policy, bf, track_queue=True
                    )
                    _assert_identical(
                        ref, fast, f"case {case} {policy}+{bf_name}"
                    )

    def test_deep_queue_bursts(self):
        """Burst workloads exercise compaction + the vectorized scan."""
        wl = _burst_workload()
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            ref = simulate_reference(wl, 8, policy, EASY, track_queue=True)
            fast = simulate_fast(wl, 8, policy, EASY, track_queue=True)
            _assert_identical(ref, fast, policy)

    def test_kill_at_walltime(self):
        wl = _burst_workload(seed=3)
        for kill in (False, True):
            ref = simulate_reference(wl, 8, "sjf", EASY, kill_at_walltime=kill)
            fast = simulate_fast(wl, 8, "sjf", EASY, kill_at_walltime=kill)
            _assert_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        bf=st.sampled_from(sorted(BACKFILLS)),
        capacity=st.integers(2, 24),
    )
    def test_property_bit_identical(self, seed, policy, bf, capacity):
        rng = np.random.default_rng(seed)
        wl = _multi_user(random_workload(rng, capacity=capacity), rng)
        ref = simulate_reference(
            wl, capacity, policy, BACKFILLS[bf], track_queue=True
        )
        fast = simulate_fast(
            wl, capacity, policy, BACKFILLS[bf], track_queue=True
        )
        _assert_identical(ref, fast, f"{policy}+{bf}@{capacity}")


# ----------------------------------------------------------------------
# bit-identity: conservative backfilling

#: every array field of a FaultSimResult, compared bit-for-bit
FAULT_FIELDS = (
    "start", "end", "status", "attempts", "promised", "backfilled",
    "attempt_job", "attempt_start", "attempt_elapsed", "attempt_outcome",
    "node_fail_times", "node_fail_nodes", "node_repair_times",
    "queue_samples", "queue_sample_times",
)

#: calibrated configuration: node churn + intrinsic faults + retries +
#: checkpointing, all active on fuzz-sized workloads
CALIBRATED_FAULTS = FaultConfig(
    node_mtbf=150.0,
    node_mttr=60.0,
    n_nodes=4,
    fail_prob=0.25,
    kill_prob=0.1,
    max_attempts=4,
    backoff_base=3.0,
    checkpoint_interval=40.0,
    seed=17,
)


def _assert_fault_identical(ref, fast, label=""):
    for name in FAULT_FIELDS:
        a, b = getattr(ref, name), getattr(fast, name)
        assert a.shape == b.shape and np.array_equal(
            a, b, equal_nan=True
        ), f"{label}: {name}"


class TestFastConservativeMatchesReference:
    def test_differential_matrix(self):
        """Every queue policy on seeded adversarial workloads — the new
        wide-job draws in ``random_workload`` force dense reservation
        chains through the profile rebuild."""
        for case in range(12):
            rng = np.random.default_rng((77, case))
            wl = _multi_user(random_workload(rng, capacity=CAPACITY), rng)
            for policy in ALL_POLICIES:
                ref = simulate_conservative(
                    wl, CAPACITY, policy, track_queue=True
                )
                fast = simulate_fast_conservative(
                    wl, CAPACITY, policy, track_queue=True
                )
                _assert_identical(ref, fast, f"case {case} {policy}")

    def test_deep_queue_bursts(self):
        wl = _burst_workload()
        for policy in ("fcfs", "sjf", "wfp3", "fairshare"):
            ref = simulate_conservative(wl, 8, policy, track_queue=True)
            fast = simulate_fast_conservative(wl, 8, policy, track_queue=True)
            _assert_identical(ref, fast, policy)

    def test_kill_at_walltime(self):
        wl = _burst_workload(seed=3)
        for kill in (False, True):
            ref = simulate_conservative(wl, 8, "sjf", kill_at_walltime=kill)
            fast = simulate_fast_conservative(
                wl, 8, "sjf", kill_at_walltime=kill
            )
            _assert_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        capacity=st.integers(2, 24),
    )
    def test_property_bit_identical_and_invariant(self, seed, policy, capacity):
        rng = np.random.default_rng(seed)
        wl = _multi_user(random_workload(rng, capacity=capacity), rng)
        ref = simulate_conservative(wl, capacity, policy, track_queue=True)
        fast = simulate_fast_conservative(
            wl, capacity, policy, track_queue=True
        )
        _assert_identical(ref, fast, f"{policy}@{capacity}")
        assert check_result(fast) == []


# ----------------------------------------------------------------------
# bit-identity: fault injection


class TestFastFaultsMatchesReference:
    def test_differential_matrix(self):
        """Zero-failure and calibrated fault configs across policies and
        backfill modes; every array field of the result must match."""
        for case in range(8):
            rng = np.random.default_rng((88, case))
            wl = _multi_user(random_workload(rng, capacity=CAPACITY), rng)
            for cfg_name, cfg in (
                ("zero", NO_FAULTS),
                ("calibrated", CALIBRATED_FAULTS),
            ):
                for policy in ALL_POLICIES:
                    for bf_name, bf in BACKFILLS.items():
                        ref = simulate_with_faults(
                            wl, CAPACITY, policy, bf, cfg, track_queue=True
                        )
                        fast = simulate_fast_with_faults(
                            wl, CAPACITY, policy, bf, cfg, track_queue=True
                        )
                        _assert_fault_identical(
                            ref, fast,
                            f"case {case} {cfg_name} {policy}+{bf_name}",
                        )

    def test_zero_failure_equals_plain_fast(self):
        """With NO_FAULTS the fault twin reduces to the plain fast engine
        (one attempt per job, identical schedule and queue samples)."""
        for case in range(6):
            rng = np.random.default_rng((89, case))
            wl = _multi_user(random_workload(rng, capacity=CAPACITY), rng)
            for policy in ("fcfs", "sjf", "fairshare"):
                plain = simulate_fast(
                    wl, CAPACITY, policy, EASY, track_queue=True
                )
                faulty = simulate_fast_with_faults(
                    wl, CAPACITY, policy, EASY, NO_FAULTS, track_queue=True
                )
                for name in (
                    "start", "promised", "backfilled",
                    "queue_samples", "queue_sample_times",
                ):
                    assert np.array_equal(
                        getattr(plain, name), getattr(faulty, name),
                        equal_nan=True,
                    ), f"case {case} {policy}: {name}"
                assert np.all(faulty.attempts == 1)

    def test_fuzz_fault_configs_all_active(self):
        """The fuzz matrix exercises retries and node failures somewhere —
        a matrix of configs that never fires is a silent coverage hole."""
        saw_retry = saw_node_fail = False
        for case in range(10):
            rng = np.random.default_rng((90, case))
            wl = random_workload(rng, capacity=CAPACITY)
            for cfg in FUZZ_FAULT_CONFIGS:
                res = simulate_fast_with_faults(
                    wl, CAPACITY, "fcfs", EASY, cfg
                )
                saw_retry |= bool(np.any(res.attempts > 1))
                saw_node_fail |= len(res.node_fail_times) > 0
        assert saw_retry and saw_node_fail

    def test_kill_at_walltime(self):
        wl = _burst_workload(seed=5)
        for kill in (False, True):
            ref = simulate_with_faults(
                wl, 8, "sjf", EASY, CALIBRATED_FAULTS,
                kill_at_walltime=kill,
            )
            fast = simulate_fast_with_faults(
                wl, 8, "sjf", EASY, CALIBRATED_FAULTS,
                kill_at_walltime=kill,
            )
            _assert_fault_identical(ref, fast, f"kill={kill}")
            assert ref.to_dict() == fast.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(ALL_POLICIES),
        capacity=st.integers(2, 24),
        cfg_index=st.integers(0, len(FUZZ_FAULT_CONFIGS) - 1),
    )
    def test_property_bit_identical_and_invariant(
        self, seed, policy, capacity, cfg_index
    ):
        """Bit-identity plus the fault invariant battery — the
        conservation sweep inside ``check_fault_result`` accounts every
        failed and restarted attempt's core-seconds."""
        rng = np.random.default_rng(seed)
        wl = _multi_user(random_workload(rng, capacity=capacity), rng)
        cfg = fit_faults(FUZZ_FAULT_CONFIGS[cfg_index], capacity)
        ref = simulate_with_faults(
            wl, capacity, policy, EASY, cfg, track_queue=True
        )
        fast = simulate_fast_with_faults(
            wl, capacity, policy, EASY, cfg, track_queue=True
        )
        _assert_fault_identical(ref, fast, f"{policy}@{capacity}[{cfg_index}]")
        assert check_fault_result(fast) == []


# ----------------------------------------------------------------------
# satellite bugfix: fair-share usage pruning


class TestUsagePruning:
    def test_pruned_usage_matches_fast_dense_zeroing(self):
        """Two bursts ~100 half-lives apart: all usage decays through the
        epsilon between them, so the dict prune (reference) and the dense
        zeroing (fast) must agree — and the second burst must schedule as
        if no history existed."""
        half_life_s = 24 * 3600.0  # FairSharePolicy default
        gap = 100 * half_life_s
        n = 12
        submit = np.concatenate([np.zeros(6), np.full(6, gap)])
        wl = SimWorkload(
            submit=submit,
            cores=np.full(n, 4, dtype=np.int64),
            runtime=np.full(n, 600.0),
            walltime=np.full(n, 900.0),
            user=np.array([0, 1, 2, 0, 1, 2, 2, 1, 0, 2, 1, 0]),
        )
        ref = simulate_reference(wl, 8, "fairshare", EASY)
        fast = simulate_fast(wl, 8, "fairshare", EASY)
        _assert_identical(ref, fast, "pruned fairshare")
        # with usage fully decayed, the second burst is a clean slate:
        # fair-share falls back to the (score, submit, index) tie-break,
        # i.e. submission order
        second = ref.start[6:]
        assert np.all(np.diff(second) >= 0)

    def test_epsilon_is_far_below_real_usage(self):
        # any real job credits >= 1 core-second; the prune threshold must
        # not be reachable by anything but long-idle decay
        assert USAGE_EPS < 1e-9


# ----------------------------------------------------------------------
# satellite bugfix: queue_samples dtype round trip


class TestQueueSampleDtypes:
    def _check(self, result):
        assert result.queue_samples.dtype == np.int64
        assert result.queue_sample_times.dtype == np.float64

    def test_all_engines_and_defaults(self):
        rng = np.random.default_rng(0)
        wl = random_workload(rng, capacity=CAPACITY)
        for res in (
            simulate_reference(wl, CAPACITY, "fcfs", EASY, track_queue=True),
            simulate_fast(wl, CAPACITY, "fcfs", EASY, track_queue=True),
            simulate_conservative(wl, CAPACITY, "fcfs", track_queue=True),
            simulate_reference(wl, CAPACITY, "fcfs", EASY),  # default factories
            simulate_fast(wl, CAPACITY, "fcfs", EASY),
        ):
            self._check(res)

    def test_fault_engine_dtype(self):
        rng = np.random.default_rng(1)
        wl = random_workload(rng, capacity=CAPACITY)
        cfg = FaultConfig(node_mtbf=1800.0, n_nodes=4, seed=7)
        res = simulate_with_faults(
            wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True
        )
        self._check(res)

    def test_fault_array_dtypes_canonical(self):
        """Every FaultSimResult array carries its canonical dtype on both
        engines — __post_init__ pins them, so a platform-default int32
        can never leak into a cached payload."""
        from repro.sched.faults import FaultSimResult

        expected = dict(FaultSimResult._ARRAY_DTYPES)
        rng = np.random.default_rng(3)
        wl = random_workload(rng, capacity=CAPACITY)
        cfg = FaultConfig(node_mtbf=200.0, n_nodes=4, fail_prob=0.2, seed=6)
        for res in (
            simulate_with_faults(wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True),
            simulate_fast_with_faults(wl, CAPACITY, "fcfs", EASY, cfg, track_queue=True),
        ):
            for name, dtype in expected.items():
                assert getattr(res, name).dtype == dtype, name

    def test_fault_post_init_coerces_stray_dtypes(self):
        """Constructing a result from lists / int32 arrays (as a cache
        deserializer would) yields the same canonical dtypes."""
        from repro.sched.faults import FaultSimResult

        n = 3
        wl = SimWorkload(
            submit=np.arange(n, dtype=float),
            cores=np.ones(n, dtype=np.int64),
            runtime=np.ones(n),
            walltime=np.ones(n),
            user=np.zeros(n, dtype=np.int64),
        )
        res = FaultSimResult(
            workload=wl,
            capacity=4,
            faults=NO_FAULTS,
            start=[0.0, 1.0, 2.0],
            end=np.ones(n, dtype=np.float32),
            status=np.zeros(n, dtype=np.int32),
            attempts=[1, 1, 1],
            promised=np.full(n, np.nan),
            backfilled=np.zeros(n, dtype=np.uint8),
        )
        assert res.start.dtype == np.float64
        assert res.end.dtype == np.float64
        assert res.status.dtype == np.int64
        assert res.attempts.dtype == np.int64
        assert res.backfilled.dtype == np.bool_
        assert res.attempt_job.dtype == np.int64
        assert res.queue_samples.dtype == np.int64

    def test_round_trip_through_sweep_payload(self, tmp_path):
        """max_queue survives the cached JSON round trip unchanged."""
        rng = np.random.default_rng(2)
        wl = random_workload(rng, capacity=CAPACITY)
        task = SimTask(
            label="rt", workload=wl, capacity=CAPACITY, track_queue=True
        )
        cold = run_sweep([task], cache=tmp_path / "c")[0]
        warm = run_sweep([task], cache=tmp_path / "c")[0]
        assert warm.cached and not cold.cached
        assert cold.max_queue == warm.max_queue
        assert cold.payload() == warm.payload()


# ----------------------------------------------------------------------
# dispatch + sweep wiring


def _root_engine(profiler) -> str:
    """The ``engine`` tag of a profiled run's root ``simulate`` span."""
    (root,) = [
        r for r in profiler.to_payload()["spans"] if r["name"] == "simulate"
    ]
    return root["args"]["engine"]


class TestEngineDispatch:
    def _wl(self):
        return random_workload(np.random.default_rng(5), capacity=CAPACITY)

    def test_simulate_engine_fast_equals_direct_call(self):
        """simulate() runs the fast engine: identical result, and the
        stream header names it."""
        from repro.obs import RingBufferTracer

        wl = self._wl()
        _assert_identical(
            simulate(wl, CAPACITY, "sjf", EASY),
            simulate_fast(wl, CAPACITY, "sjf", EASY),
        )
        tracer = RingBufferTracer(capacity=1 << 16)
        simulate(wl, CAPACITY, "sjf", EASY, tracer=tracer)
        assert tracer.events[0]["engine"] == "fast"

    def test_unknown_engine_rejected(self):
        """The implementation knob is gone: passing it is an error, not a
        silently ignored keyword."""
        with pytest.raises(TypeError, match="engine"):
            simulate(self._wl(), CAPACITY, engine="fast")

    def test_fast_dispatches_faults(self):
        """simulate(faults=...) routes to the fault twin and matches the
        reference fault engine bit for bit."""
        wl = self._wl()
        cfg = FaultConfig(node_mtbf=3600.0, n_nodes=4, seed=2)
        via_dispatch = simulate(wl, CAPACITY, faults=cfg, track_queue=True)
        direct = simulate_fast_with_faults(
            wl, CAPACITY, faults=cfg, track_queue=True
        )
        reference = simulate_with_faults(
            wl, CAPACITY, faults=cfg, track_queue=True
        )
        _assert_fault_identical(via_dispatch, direct, "dispatch vs direct")
        _assert_fault_identical(via_dispatch, reference, "dispatch vs ref")

    def test_profiler_stays_on_twin(self):
        """Any profiled run stays on the fast twin of its semantics, which
        reports its own phases under its root span; the results are
        bit-identical to an unprofiled run."""
        from repro.obs import Profiler

        wl = _burst_workload(n=200, seed=3)
        cfg = FaultConfig(node_mtbf=3600.0, n_nodes=4, seed=2)
        relax = relaxed(0.5)
        runs = (
            ("fast", lambda p: simulate(wl, 8, "sjf", relax, profiler=p),
             _assert_identical, ()),
            ("fast-faults",
             lambda p: simulate(wl, 8, "sjf", relax, faults=cfg, profiler=p),
             _assert_fault_identical, ()),
            ("fast-conservative",
             lambda p: simulate_fast_conservative(wl, 8, "sjf", profiler=p),
             _assert_identical, ("profile_rebuild",)),
        )
        for engine, run, same, extra in runs:
            prof = Profiler()
            same(run(None), run(prof), engine)
            assert _root_engine(prof) == engine
            spans = prof.to_payload()["spans"]
            (root,) = [r for r in spans if r["name"] == "simulate"]
            phases = {r["name"]: r for r in spans if r["parent"] == root["id"]}
            expected = {"event_drain", "policy_sort", "backfill_scan", *extra}
            assert set(phases) == expected, engine
            stats = prof.as_dict()["spans"]
            assert all(stats[name]["calls"] > 0 for name in expected)
            phase_self = sum(stats[name]["self_s"] for name in expected)
            assert phase_self <= stats["simulate"]["total_s"], engine
            # each phase row is one child record as wide as its sum
            for name, rec in phases.items():
                assert rec["args"]["calls"] == stats[name]["calls"]
                assert rec["t1"] - rec["t0"] == pytest.approx(
                    stats[name]["total_s"]
                )
                assert root["t0"] <= rec["t0"] <= rec["t1"] <= root["t1"]

    def test_fast_accepts_event_hooks(self):
        from repro.obs import Metrics, RingBufferTracer, check_events

        wl = self._wl()
        tracer = RingBufferTracer(capacity=1 << 16)
        metrics = Metrics()
        res = simulate_fast(wl, CAPACITY, tracer=tracer, metrics=metrics)
        assert check_events(tracer.events) == []
        payload = metrics.to_dict()
        assert payload["counters"]["sim_jobs_started_total"] == len(wl.submit)
        _assert_identical(res, simulate_fast(wl, CAPACITY))

    def test_fast_accepts_profiler(self):
        from repro.obs import Profiler

        prof = Profiler()
        simulate_fast(self._wl(), CAPACITY, profiler=prof)
        report = prof.report()
        assert "simulate" in report


def _payload(result, track_queue: bool) -> dict:
    """The cacheable payload a sweep cell derives from ``result``."""
    from repro.sched import compute_metrics, compute_resilience_metrics

    faulty = hasattr(result, "attempt_job")
    return {
        "summary": result.to_dict(),
        "metrics": compute_metrics(result).as_dict(),
        "resilience": (
            compute_resilience_metrics(result).as_dict() if faulty else None
        ),
        "max_queue": int(result.queue_samples.max()) if track_queue else None,
    }


class TestSweepWiring:
    def test_sweep_payloads_identical_across_engines(self):
        """Sweep cells (fast engine) produce the payload the readable loop's
        result yields."""
        wl = _burst_workload(n=120, seed=9)
        tasks = [
            SimTask(
                label=p, workload=wl, policy=p, capacity=8, track_queue=True
            )
            for p in ("fcfs", "sjf")
        ]
        for cell in run_sweep(tasks):
            ref = simulate_reference(wl, 8, cell.label, track_queue=True)
            assert cell.payload() == _payload(ref, track_queue=True)

    def test_fault_sweep_payloads_identical_across_engines(self):
        """Fault cells (fast fault twin) produce the payload the readable
        fault loop's result yields — the fault-array dtype normalization
        is what keeps the serialized bytes stable."""
        wl = random_workload(np.random.default_rng(8), capacity=CAPACITY)
        cfg = FaultConfig(
            node_mtbf=200.0, node_mttr=50.0, n_nodes=4,
            fail_prob=0.2, max_attempts=3, seed=4,
        )
        task = SimTask(
            label="f", workload=wl, capacity=CAPACITY, faults=cfg,
            track_queue=True,
        )
        (cell,) = run_sweep([task])
        ref = simulate_with_faults(
            wl, CAPACITY, faults=cfg, track_queue=True
        )
        assert cell.payload() == _payload(ref, track_queue=True)

    def test_fault_task_round_trip_through_cache(self, tmp_path):
        """A fault task's payload survives the JSON cache."""
        wl = random_workload(np.random.default_rng(9), capacity=CAPACITY)
        task = SimTask(
            label="rt",
            workload=wl,
            capacity=CAPACITY,
            faults=FaultConfig(node_mtbf=300.0, n_nodes=4, seed=5),
            track_queue=True,
        )
        cold = run_sweep([task], cache=tmp_path / "c")[0]
        warm = run_sweep([task], cache=tmp_path / "c")[0]
        assert warm.cached and not cold.cached
        assert cold.payload() == warm.payload()


class TestProductionPath:
    """The experiments' sweep cells run the fast engines, never the
    readable loops."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.sched.engine as engine_mod
        import repro.sched.fast as fast_mod
        import repro.sched.fast_faults as fast_faults_mod
        import repro.sched.faults as faults_mod

        calls: list[str] = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(fast_mod, "simulate_fast")
        spy(fast_faults_mod, "simulate_fast_with_faults")
        spy(engine_mod, "simulate_reference")
        spy(faults_mod, "simulate_with_faults")
        return calls

    def test_table2_cells_run_fast(self, calls):
        from repro.experiments import table2

        table2.run(days=2, max_jobs=150)
        assert calls and set(calls) == {"simulate_fast"}

    def test_ext_policies_cells_run_fast(self, calls):
        from repro.experiments import ext_policies

        ext_policies.run(days=2, policies=("fcfs", "fairshare"), max_jobs=150)
        assert calls and set(calls) == {"simulate_fast"}

    def test_ext_resilience_cells_run_fast_faults(self, calls):
        from repro.experiments import ext_resilience

        ext_resilience.run(days=2, max_jobs=80)
        assert len(calls) == len(ext_resilience.build_sweep(days=2, max_jobs=80))
        assert set(calls) == {"simulate_fast_with_faults"}


# ----------------------------------------------------------------------
# fuzzer: every engine of a configuration per case


class TestFuzzImpl:
    def test_fast_campaign_clean(self):
        report = fuzz(
            policies=("fcfs", "sjf", "easy", "sjf-easy"),
            budget=40,
        )
        assert report.ok, report.describe()
        assert report.runs == 40 * 4
        assert "fuzz: 40 workload(s)" in report.describe()

    def test_fast_conservative_campaign_clean(self):
        report = fuzz(policies=("conservative",), budget=30)
        assert report.ok, report.describe()

    def test_fast_faults_campaign_clean(self):
        report = fuzz(policies=("fcfs", "easy"), budget=6)
        assert report.ok, report.describe()

    def test_unknown_impl_rejected(self):
        """The implementation selectors are gone from the fuzzer API."""
        wl = random_workload(np.random.default_rng(0))
        with pytest.raises(TypeError, match="engine_impl"):
            fuzz(policies=("fcfs",), engine_impl="fast")
        with pytest.raises(TypeError, match="impl"):
            check_case(wl, CAPACITY, FUZZ_POLICIES["fcfs"], impl="fast")

    def test_check_case_fast(self):
        wl = random_workload(np.random.default_rng(3), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["easy"]) == []

    def test_check_case_fast_conservative(self):
        wl = random_workload(np.random.default_rng(4), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["conservative"]) == []

    def test_check_case_fast_faults(self):
        wl = random_workload(np.random.default_rng(5), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["sjf-easy"]) == []

    def test_check_case_runs_every_engine(self, monkeypatch):
        """One EASY-family case runs both schedulers, both traced
        streams and both fault engines; a conservative case runs both
        conservative engines."""
        import importlib

        # (the package re-exports the fuzz() function under the same name)
        fuzz_mod = importlib.import_module("repro.testkit.fuzz")
        calls: list[str] = []
        for name in (
            "simulate_reference", "simulate_fast", "simulate_with_faults",
            "simulate_fast_with_faults", "simulate_conservative",
            "simulate_fast_conservative",
        ):
            real = getattr(fuzz_mod, name)
            monkeypatch.setattr(
                fuzz_mod, name,
                lambda *a, _n=name, _r=real, **k: calls.append(_n) or _r(*a, **k),
            )
        wl = random_workload(np.random.default_rng(6), capacity=CAPACITY)
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["easy"]) == []
        n_cfg = len(FUZZ_FAULT_CONFIGS)
        assert calls.count("simulate_reference") == 2  # schedule + stream
        assert calls.count("simulate_fast") == 3  # + zero-fault identity
        assert calls.count("simulate_with_faults") == n_cfg
        assert calls.count("simulate_fast_with_faults") == n_cfg
        calls.clear()
        assert check_case(wl, CAPACITY, FUZZ_POLICIES["conservative"]) == []
        assert sorted(calls) == [
            "simulate_conservative", "simulate_fast_conservative",
        ]


# ----------------------------------------------------------------------
# CLI: every run takes the fast engines; --profile takes the readable
# loops, so each pair below is a fast-vs-reference differential


@pytest.fixture(scope="module")
def swf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fast_cli") / "trace.swf"
    assert (
        main(["generate", "theta", "-o", str(path), "--days", "2"]) == 0
    )
    return path


def _main_readable(monkeypatch, args) -> int:
    """Run the CLI with ``simulate`` served by the readable loops
    (``simulate_reference`` / ``simulate_with_faults``) instead of the
    fast twins, so comparing its output with a plain run is a real
    fast-vs-readable differential.  Both CLI paths are rerouted: the
    direct one that observability flags take and the in-process sweep
    cell that a plain run takes."""
    import repro.cli
    import repro.runner.sweep

    served = []

    def readable(workload, capacity, policy, backfill, faults=None, **kw):
        served.append(policy)
        if faults is None:
            return simulate_reference(workload, capacity, policy, backfill, **kw)
        return simulate_with_faults(
            workload, capacity, policy, backfill, faults, **kw
        )

    with monkeypatch.context() as patch:
        patch.setattr(repro.cli, "simulate", readable)
        patch.setattr(repro.runner.sweep, "simulate", readable)
        code = main(args)
    assert served, "the CLI run bypassed the readable loops"
    return code


class TestCliEngineFlag:
    def test_simulate_fast_matches_easy_table(
        self, swf_path, capsys, monkeypatch
    ):
        for policy in ("fcfs", "sjf"):
            args = ["simulate", str(swf_path), "--policy", policy]
            assert main(args) == 0
            fast_out = capsys.readouterr().out
            assert _main_readable(monkeypatch, args) == 0
            assert capsys.readouterr().out == fast_out

    def test_fast_fault_run_matches_easy(self, swf_path, capsys, monkeypatch):
        """A fault run prints the exact table the readable fault loop
        produces."""
        args = ["simulate", str(swf_path), "--mtbf-hours", "5", "--retries", "2"]
        assert main(args) == 0
        fast_out = capsys.readouterr().out
        assert _main_readable(monkeypatch, args) == 0
        assert capsys.readouterr().out == fast_out
        assert "faults" in fast_out

    def test_fast_trace_out_matches_easy(
        self, swf_path, tmp_path, capsys, monkeypatch
    ):
        """--trace-out on the fast engine writes the readable loop's
        stream byte for byte, modulo the run_start engine field."""
        easy_path = tmp_path / "easy.jsonl"
        fast_path = tmp_path / "fast.jsonl"
        base = ["simulate", str(swf_path)]
        assert main(base + ["--trace-out", str(fast_path)]) == 0
        assert _main_readable(
            monkeypatch, base + ["--trace-out", str(easy_path)]
        ) == 0
        capsys.readouterr()
        easy_lines = easy_path.read_text().splitlines()
        fast_lines = fast_path.read_text().splitlines()
        assert len(easy_lines) == len(fast_lines)
        assert '"engine":"easy"' in easy_lines[0].replace(" ", "")
        assert easy_lines[0].replace('"easy"', '"fast"') == fast_lines[0]
        assert easy_lines[1:] == fast_lines[1:]

    def test_fast_profile_flag_ok(self, swf_path, capsys):
        assert main(["simulate", str(swf_path), "--profile"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_profile_subcommand_fast(self, swf_path, capsys):
        assert main(["profile", str(swf_path)]) == 0
        assert "hot-path" in capsys.readouterr().out

    def test_profile_reports_round_phases(self, swf_path, capsys):
        """repro profile prints the fast engine's own phase breakdown."""
        assert main(["profile", str(swf_path), "--backfill", "relaxed"]) == 0
        out = capsys.readouterr().out
        for phase in ("event_drain", "policy_sort", "backfill_scan"):
            assert phase in out

    def test_engine_flags_removed(self, swf_path, capsys):
        for cmd in (
            ["simulate", str(swf_path)],
            ["profile", str(swf_path)],
            ["fuzz", "--budget", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(cmd + ["--engine", "fast"])
            assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_fuzz_fast_smoke(self, capsys):
        assert main(["fuzz", "--budget", "5", "--policy", "sjf-easy"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 5 workload(s)" in out
        assert "ok:" in out

    def test_fuzz_fast_conservative_smoke(self, capsys):
        assert main(["fuzz", "--budget", "5", "--policy", "conservative"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_fuzz_fast_faults_smoke(self, capsys):
        assert main(["fuzz", "--budget", "2", "--policy", "fcfs,easy"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_metrics_out_payload_identical(
        self, swf_path, tmp_path, capsys, monkeypatch
    ):
        """--metrics-out on the fast engine writes the exact payload the
        readable loop does (instrument-for-instrument, sample-for-
        sample)."""
        easy_path = tmp_path / "easy.json"
        fast_path = tmp_path / "fast.json"
        base = ["simulate", str(swf_path)]
        assert main(base + ["--metrics-out", str(fast_path)]) == 0
        assert _main_readable(
            monkeypatch, base + ["--metrics-out", str(easy_path)]
        ) == 0
        capsys.readouterr()
        assert easy_path.read_text() == fast_path.read_text()
