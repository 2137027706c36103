"""Unit tests for the fault-injection and resilience layer."""

import math

import numpy as np
import pytest

from repro.sched import (
    EASY,
    NO_FAULTS,
    FaultConfig,
    FaultyCluster,
    NodeCluster,
    SimWorkload,
    simulate,
    simulate_packed,
    simulate_fast_with_faults,
    simulate_packed_with_faults,
    simulate_with_faults,
    workload_from_trace,
)
from repro.sched.faults import (
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_NODE_KILLED,
    ATTEMPT_USER_KILLED,
)
from repro.traces.schema import JobStatus
from repro.traces.synth import generate_trace


def make_workload(
    submit, cores, runtime, walltime=None, status=None
) -> SimWorkload:
    submit = np.asarray(submit, dtype=float)
    cores = np.asarray(cores, dtype=np.int64)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=cores,
        runtime=runtime,
        walltime=(
            runtime if walltime is None else np.asarray(walltime, dtype=float)
        ),
        user=np.zeros(len(submit), dtype=np.int64),
        status=None if status is None else np.asarray(status, dtype=np.int64),
    )


class TestFaultConfig:
    def test_defaults_are_null(self):
        assert NO_FAULTS.is_null
        assert not NO_FAULTS.has_node_faults
        assert not NO_FAULTS.has_intrinsic_faults

    def test_active_flags(self):
        assert FaultConfig(node_mtbf=100.0).has_node_faults
        assert FaultConfig(fail_prob=0.1).has_intrinsic_faults
        assert FaultConfig(kill_prob=0.1).has_intrinsic_faults
        assert not FaultConfig(node_mtbf=100.0).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_mtbf": 0.0},
            {"node_mtbf": -1.0},
            {"node_mttr": 0.0},
            {"node_mttr": math.inf},
            {"n_nodes": 0},
            {"fail_prob": 1.5},
            {"kill_prob": -0.1},
            {"fail_prob": 0.6, "kill_prob": 0.6},
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"checkpoint_interval": 0.0},
            # non-finite knobs: only node_mtbf=+inf has a meaning (off)
            {"node_mtbf": math.nan},
            {"node_mtbf": math.nan, "backoff_base": math.nan},
            {"backoff_base": math.nan},
            {"backoff_base": math.inf},
            {"backoff_factor": math.nan},
            {"backoff_factor": math.inf},
            {"checkpoint_interval": math.nan},
            {"checkpoint_interval": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_infinite_mtbf_disables_node_faults(self):
        assert not FaultConfig(node_mtbf=math.inf).has_node_faults

    @pytest.mark.parametrize(
        "engine", [simulate_with_faults, simulate_fast_with_faults]
    )
    def test_more_nodes_than_cores_rejected(self, engine):
        wl = make_workload([0, 1], [1, 2], [10, 10])
        cfg = FaultConfig(node_mtbf=100.0, n_nodes=5)
        with pytest.raises(ValueError, match="n_nodes=5 exceeds cluster capacity 4"):
            engine(wl, 4, faults=cfg)
        # a node count that fits runs
        assert engine(wl, 5, faults=cfg).start.shape == (2,)

    @pytest.mark.parametrize(
        "engine", [simulate_with_faults, simulate_fast_with_faults]
    )
    def test_node_count_unchecked_without_node_faults(self, engine):
        """``n_nodes`` only shapes node failures; intrinsic-only configs
        keep running on clusters smaller than the default 16 nodes."""
        wl = make_workload([0, 1], [1, 2], [10, 10])
        cfg = FaultConfig(fail_prob=0.5, max_attempts=2, seed=3)
        assert cfg.n_nodes > 4
        assert engine(wl, 4, faults=cfg).start.shape == (2,)

    def test_from_workload_calibration(self):
        status = [
            int(JobStatus.PASSED),
            int(JobStatus.FAILED),
            int(JobStatus.KILLED),
            int(JobStatus.PASSED),
        ]
        wl = make_workload(
            [0, 1, 2, 3], [1, 1, 1, 1], [10, 10, 10, 10], status=status
        )
        cfg = FaultConfig.from_workload(wl, max_attempts=2)
        assert cfg.fail_prob == pytest.approx(0.25)
        assert cfg.kill_prob == pytest.approx(0.25)
        assert cfg.max_attempts == 2

    def test_from_trace_matches_workload(self):
        trace = generate_trace("theta", days=2.0, seed=0)
        wl = workload_from_trace(trace)
        a = FaultConfig.from_trace(trace)
        b = FaultConfig.from_workload(wl)
        assert a.fail_prob == pytest.approx(b.fail_prob)
        assert a.kill_prob == pytest.approx(b.kill_prob)


class TestStatusPropagation:
    def test_workload_carries_trace_status(self):
        trace = generate_trace("theta", days=2.0, seed=0)
        wl = workload_from_trace(trace)
        assert np.array_equal(wl.status, trace["status"].astype(np.int64))
        # the mix is non-trivial: the generator produces failures/kills
        assert (wl.status != int(JobStatus.PASSED)).any()

    def test_default_status_is_passed(self):
        wl = make_workload([0, 1], [1, 1], [5, 5])
        assert np.all(wl.status == int(JobStatus.PASSED))

    def test_slice_keeps_status(self):
        status = [0, 1, 2, 0]
        wl = make_workload(
            [0, 1, 2, 3], [1, 1, 1, 1], [10, 10, 10, 10], status=status
        )
        assert np.array_equal(wl.slice(2).status, np.array([0, 1]))


class TestFaultyCluster:
    def test_capacity_split(self):
        cl = FaultyCluster(10, 4)
        assert cl.node_size.tolist() == [3, 3, 2, 2]
        assert cl.free == 10
        assert cl.up_capacity == 10

    def test_fail_kills_exactly_the_span_holders(self):
        cl = FaultyCluster(8, 2)  # nodes of 4 + 4
        cl.start(0, 4, 100.0)  # fills node 0
        cl.start(1, 2, 100.0)  # lands on node 1
        victims = cl.fail_node(1)
        assert victims == [1]
        # job 0 still holds all of node 0; node 1's units are gone
        assert cl.free == 0
        assert cl.up_capacity == 4
        cl.finish(0)
        assert cl.free == 4

    def test_spanning_job_dies_with_either_node(self):
        cl = FaultyCluster(8, 2)
        cl.start(0, 6, 100.0)  # spans node 0 (4) + node 1 (2)
        assert cl.fail_node(1) == [0]
        assert cl.free == 4  # node 0 fully free again, node 1 down

    def test_repair_restores_capacity(self):
        cl = FaultyCluster(8, 2)
        cl.fail_node(0)
        assert cl.free == 4
        cl.repair_node(0)
        assert cl.free == 8
        # double fail/repair are no-ops
        cl.repair_node(0)
        assert cl.free == 8

    def test_reservation_infinite_while_too_degraded(self):
        cl = FaultyCluster(8, 2)
        cl.fail_node(0)
        shadow, extra = cl.reservation(8, 0.0)
        assert math.isinf(shadow)
        cl.repair_node(0)
        shadow, _ = cl.reservation(8, 0.0)
        assert math.isfinite(shadow)


class TestNodeClusterFaults:
    def test_fail_and_repair(self):
        cl = NodeCluster(2, 8)
        cl.place(0, 8)  # whole node
        cl.place(1, 4)
        failed_node = cl._alloc[0][0][0]
        victims = cl.fail_node(failed_node)
        assert victims == [0]
        assert cl.total_free == 4  # the other node still holds job 1
        assert not cl.can_place(8)  # no empty node while one is down
        cl.repair_node(failed_node)
        assert cl.can_place(8)


class TestIntrinsicFaults:
    def test_certain_kill_is_terminal_and_never_retried(self):
        wl = make_workload([0, 1, 2], [1, 1, 1], [100, 100, 100])
        cfg = FaultConfig(kill_prob=1.0, max_attempts=5, seed=1)
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert np.all(res.status == int(JobStatus.KILLED))
        assert np.all(res.attempts == 1)
        assert np.all(res.attempt_outcome == ATTEMPT_USER_KILLED)
        # killed partway: all consumed work is waste
        assert res.goodput_core_seconds == 0.0
        assert res.wasted_core_seconds == pytest.approx(
            res.consumed_core_seconds
        )

    def test_certain_failure_exhausts_attempts(self):
        wl = make_workload([0], [1], [100])
        cfg = FaultConfig(
            fail_prob=1.0, max_attempts=3, backoff_base=5.0, seed=1
        )
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert res.status[0] == int(JobStatus.FAILED)
        assert res.attempts[0] == 3
        assert np.all(res.attempt_outcome == ATTEMPT_FAILED)

    def test_backoff_spaces_retries(self):
        wl = make_workload([0], [1], [100])
        cfg = FaultConfig(
            fail_prob=1.0,
            max_attempts=3,
            backoff_base=50.0,
            backoff_factor=2.0,
            seed=1,
        )
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        starts = res.attempt_start
        ends = starts + res.attempt_elapsed
        # gap after attempt k is backoff_base * factor**(k-1)
        assert starts[1] - ends[0] == pytest.approx(50.0)
        assert starts[2] - ends[1] == pytest.approx(100.0)


class TestNodeFailureProcess:
    #: one 4-core node, failures every ~300 s on average, quick repairs;
    #: constant backoff — a growing one makes late retries astronomically far
    CFG = dict(
        node_mtbf=300.0,
        node_mttr=30.0,
        n_nodes=1,
        backoff_base=1.0,
        backoff_factor=1.0,
    )

    def test_retries_rescue_node_killed_jobs(self):
        wl = make_workload(
            np.arange(20) * 10.0, np.full(20, 2), np.full(20, 200.0)
        )
        drop = FaultConfig(**self.CFG, max_attempts=1, seed=3)
        retry = FaultConfig(**self.CFG, max_attempts=8, seed=3)
        res_drop = simulate_with_faults(wl, 4, "fcfs", EASY, drop)
        res_retry = simulate_with_faults(wl, 4, "fcfs", EASY, retry)
        assert (res_drop.attempt_outcome == ATTEMPT_NODE_KILLED).any()
        assert res_retry.completed.sum() > res_drop.completed.sum()
        assert np.all(res_retry.status >= 0)

    def test_checkpoints_cut_waste_on_a_fixed_timeline(self):
        # one job on one node: with no intrinsic faults the node up/down
        # timeline depends only on the seed, so the two runs face the very
        # same failures and differ only in restart position
        wl = make_workload([0.0], [4], [2000.0])
        plain = FaultConfig(**self.CFG, max_attempts=50, seed=5)
        ckpt = FaultConfig(
            **self.CFG, max_attempts=50, checkpoint_interval=60.0, seed=5
        )
        res_plain = simulate_with_faults(wl, 4, "fcfs", EASY, plain)
        res_ckpt = simulate_with_faults(wl, 4, "fcfs", EASY, ckpt)
        assert (res_plain.attempt_outcome == ATTEMPT_NODE_KILLED).any()
        assert np.array_equal(
            res_plain.node_fail_times[:1], res_ckpt.node_fail_times[:1]
        )
        assert res_ckpt.end[0] <= res_plain.end[0]
        assert res_ckpt.wasted_core_seconds <= res_plain.wasted_core_seconds

    def test_node_kill_without_retry_reports_killed(self):
        wl = make_workload([0.0], [4], [5000.0])
        cfg = FaultConfig(node_mtbf=200.0, node_mttr=30.0, n_nodes=1, seed=2)
        res = simulate_with_faults(wl, 4, "fcfs", EASY, cfg)
        assert res.status[0] == int(JobStatus.KILLED)
        assert res.attempt_outcome[0] == ATTEMPT_NODE_KILLED
        assert res.completed.sum() == 0


class TestPackedFaults:
    def test_null_config_matches_simulate_packed(self):
        rng = np.random.default_rng(0)
        n = 40
        wl = make_workload(
            np.cumsum(rng.exponential(20.0, n)),
            rng.integers(1, 16, n),
            rng.exponential(300.0, n) + 1.0,
        )
        base = simulate_packed(wl, 4, 8)
        res = simulate_packed_with_faults(wl, 4, 8, NO_FAULTS)
        assert np.array_equal(res.start, base.start)
        assert np.all(res.status == int(JobStatus.PASSED))

    def test_faulty_packed_run_terminates_cleanly(self):
        rng = np.random.default_rng(1)
        n = 40
        wl = make_workload(
            np.cumsum(rng.exponential(20.0, n)),
            rng.integers(1, 16, n),
            rng.exponential(300.0, n) + 1.0,
        )
        cfg = FaultConfig(
            node_mtbf=500.0,
            node_mttr=50.0,
            max_attempts=3,
            backoff_base=5.0,
            seed=4,
        )
        res = simulate_packed_with_faults(wl, 4, 8, cfg)
        assert np.all(res.status >= 0)
        assert np.all(res.attempts >= 1)
        assert (res.attempt_outcome == ATTEMPT_NODE_KILLED).any()
        # via the simulate_packed facade too
        res2 = simulate_packed(wl, 4, 8, faults=cfg)
        assert np.array_equal(res.end, res2.end)


class TestEngineFacade:
    def test_simulate_faults_kwarg_delegates(self):
        wl = make_workload([0, 1], [1, 1], [10, 10])
        res = simulate(wl, 4, "fcfs", EASY, faults=NO_FAULTS)
        assert hasattr(res, "attempts")  # FaultSimResult, not SimResult
        base = simulate(wl, 4, "fcfs", EASY)
        assert np.array_equal(res.start, base.start)

    def test_completed_attempts_are_logged(self):
        wl = make_workload([0, 1], [1, 1], [10, 20])
        res = simulate_with_faults(wl, 4, "fcfs", EASY, NO_FAULTS)
        assert np.all(res.attempt_outcome == ATTEMPT_COMPLETED)
        assert res.consumed_core_seconds == pytest.approx(30.0)
        assert res.wasted_core_seconds == 0.0


class TestResilienceMetrics:
    def test_zero_failure_metrics(self):
        from repro.sched import compute_resilience_metrics

        wl = make_workload([0, 0], [2, 2], [100, 100])
        res = simulate_with_faults(wl, 4, "fcfs", EASY, NO_FAULTS)
        rm = compute_resilience_metrics(res)
        assert rm.completed_fraction == 1.0
        assert rm.wasted_core_hours == 0.0
        assert rm.waste_share == 0.0
        assert rm.mean_attempts == 1.0
        assert rm.goodput_core_hours == pytest.approx(400.0 / 3600.0)
        # both jobs run simultaneously on a full cluster
        assert rm.effective_util == pytest.approx(1.0)
        payload = rm.as_dict()
        assert payload["n_jobs"] == 2
