"""Property-based invariants of the scheduling simulator.

Random workloads (hypothesis-generated) must satisfy, for every engine and
backfilling mode, the shared :mod:`repro.testkit.invariants` battery:

* capacity is never overcommitted at any instant;
* no job starts before submission;
* every job runs exactly once for exactly its runtime;
* strict EASY (relax=0) never delays a job past its first promised start;
  conservative backfilling is firm when walltime estimates are exact.

On top of the invariant checks, the EASY/no-backfill/relaxed/adaptive and
conservative engines are differentially compared against the
:mod:`repro.testkit.oracle` reference scheduler — start times must match
bit for bit (see ``docs/TESTING.md``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    simulate_with_faults,
)
from repro.testkit import (
    check_case,
    check_promises,
    check_result,
    max_concurrent_usage,
    oracle_simulate,
)
from repro.testkit.fuzz import FUZZ_POLICIES

CAPACITY = 16


@st.composite
def workloads(draw):
    n = draw(st.integers(2, 30))
    submit = np.cumsum(
        np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    )
    cores = np.array(
        draw(st.lists(st.integers(1, CAPACITY), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    runtime = np.array(
        draw(st.lists(st.floats(1.0, 500.0), min_size=n, max_size=n))
    )
    factor = np.array(
        draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n))
    )
    return SimWorkload(
        submit=submit,
        cores=cores,
        runtime=runtime,
        walltime=runtime * factor,
        user=np.zeros(n, dtype=np.int64),
    )


def _exact_estimates(workload: SimWorkload) -> SimWorkload:
    """The same workload with walltime == runtime (no estimate slack)."""
    return SimWorkload(
        submit=workload.submit,
        cores=workload.cores,
        runtime=workload.runtime,
        walltime=workload.runtime,
        user=workload.user,
    )


BACKFILLS = [NO_BACKFILL, EASY, relaxed(0.2), adaptive_relaxed(0.2)]


class TestEngineInvariants:
    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_shared_battery_every_mode(self, workload):
        """Capacity/early-start/served/conservation hold in every mode."""
        for bf in BACKFILLS:
            res = simulate(workload, CAPACITY, "fcfs", bf)
            assert check_result(res) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_strict_easy_honors_promises(self, workload):
        res = simulate(workload, CAPACITY, "fcfs", EASY)
        # EASY guarantee: a reserved head never starts after its promise,
        # i.e. no backfilled job ever delays the FCFS head
        assert check_result(res, firm_promises=True) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_sjf_also_safe(self, workload):
        res = simulate(workload, CAPACITY, "sjf", EASY)
        assert check_result(res) == []


class TestConservativeInvariants:
    """The conservative engine through the same shared battery."""

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_shared_battery(self, workload):
        res = simulate_conservative(workload, CAPACITY)
        assert check_result(res) == []

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_promises_firm_under_exact_estimates(self, workload):
        # With runtime == walltime there is no early-completion re-planning,
        # so conservative reservations are firm.  (With overestimated
        # walltimes, early completions legitimately re-order the plan in
        # priority order, so firmness is NOT an invariant there.)
        res = simulate_conservative(_exact_estimates(workload), CAPACITY)
        assert check_promises(res) == []

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_sjf_conservative_safe(self, workload):
        res = simulate_conservative(workload, CAPACITY, "sjf")
        assert check_result(res) == []


class TestDifferentialOracle:
    """Engines must match the testkit reference scheduler bit for bit."""

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_easy_engine_matches_oracle(self, workload):
        for bf in BACKFILLS:
            engine = simulate(workload, CAPACITY, "fcfs", bf)
            oracle = oracle_simulate(workload, CAPACITY, "fcfs", bf)
            assert np.array_equal(engine.start, oracle.start)
            assert np.array_equal(
                engine.promised, oracle.promised, equal_nan=True
            )
            assert np.array_equal(engine.backfilled, oracle.backfilled)

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_conservative_engine_matches_oracle(self, workload):
        engine = simulate_conservative(workload, CAPACITY)
        oracle = oracle_simulate(
            workload, CAPACITY, "fcfs", semantics="conservative"
        )
        assert np.array_equal(engine.start, oracle.start)
        assert np.array_equal(engine.promised, oracle.promised, equal_nan=True)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_fuzz_configs_clean(self, workload):
        """The fuzzer's own check_case finds nothing on healthy engines."""
        for policy in FUZZ_POLICIES.values():
            assert check_case(workload, CAPACITY, policy) == []


class TestCrossEngineConsistency:
    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_makespan_respects_lower_bounds(self, workload):
        """Every mode's makespan >= max(total work / capacity, longest job)."""
        lower = max(
            float((workload.cores * workload.runtime).sum()) / CAPACITY,
            float(workload.runtime.max()),
        )
        for bf in BACKFILLS:
            res = simulate(workload, CAPACITY, "fcfs", bf)
            assert res.makespan >= lower - 1e-6

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_serial_cluster_equals_queue_order(self, workload):
        """On a 1-core cluster with 1-core jobs, FCFS is strictly serial."""
        wl1 = SimWorkload(
            submit=workload.submit,
            cores=np.ones(workload.n, dtype=np.int64),
            runtime=workload.runtime,
            walltime=workload.walltime,
            user=workload.user,
        )
        res = simulate(wl1, 1, "fcfs", NO_BACKFILL)
        order = np.argsort(wl1.submit, kind="stable")
        starts = res.start[order]
        ends = starts + wl1.runtime[order]
        assert np.all(starts[1:] >= ends[:-1] - 1e-6)


#: a harsh fault regime on the scale of the generated workloads
HARSH_FAULTS = FaultConfig(
    node_mtbf=300.0,
    node_mttr=100.0,
    n_nodes=4,
    fail_prob=0.1,
    kill_prob=0.05,
    max_attempts=3,
    backoff_base=10.0,
    checkpoint_interval=50.0,
    seed=7,
)


class TestFaultInvariants:
    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_zero_failure_config_is_identity(self, workload):
        """A null fault config must reproduce simulate() bit-for-bit."""
        for bf in BACKFILLS:
            base = simulate(workload, CAPACITY, "fcfs", bf)
            res = simulate_with_faults(workload, CAPACITY, "fcfs", bf, NO_FAULTS)
            assert np.array_equal(res.start, base.start)
            assert np.array_equal(res.promised, base.promised, equal_nan=True)
            assert np.array_equal(res.backfilled, base.backfilled)
            assert res.makespan == base.makespan
            assert np.array_equal(res.wait, base.wait)

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_no_overcommit_under_faults(self, workload):
        """Attempts (including killed partial runs) never overcommit cores."""
        for bf in (EASY, adaptive_relaxed(0.2)):
            res = simulate_with_faults(
                workload, CAPACITY, "fcfs", bf, HARSH_FAULTS
            )
            if len(res.attempt_job) == 0:
                continue
            peak = max_concurrent_usage(
                res.attempt_start,
                res.attempt_elapsed,
                workload.cores[res.attempt_job],
            )
            assert peak <= CAPACITY

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_all_jobs_reach_a_terminal_state(self, workload):
        res = simulate_with_faults(
            workload, CAPACITY, "fcfs", EASY, HARSH_FAULTS
        )
        assert np.all(res.status >= 0)
        assert np.all(res.attempts >= 1)
        assert np.all(res.attempts <= HARSH_FAULTS.max_attempts)
        assert np.all(np.isfinite(res.end))
        assert np.all(res.start >= workload.submit - 1e-9)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_fault_runs_are_deterministic(self, workload):
        a = simulate_with_faults(workload, CAPACITY, "fcfs", EASY, HARSH_FAULTS)
        b = simulate_with_faults(workload, CAPACITY, "fcfs", EASY, HARSH_FAULTS)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.end, b.end)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.attempt_outcome, b.attempt_outcome)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_waste_accounting_is_consistent(self, workload):
        res = simulate_with_faults(
            workload, CAPACITY, "fcfs", EASY, HARSH_FAULTS
        )
        consumed = res.consumed_core_seconds
        assert res.goodput_core_seconds <= consumed + 1e-6
        assert consumed == pytest.approx(
            res.goodput_core_seconds + res.wasted_core_seconds
        )
