"""Scheduler simulator tests: cluster, policies, engine, backfilling."""

import numpy as np
import pytest

from repro.sched import (
    EASY,
    NO_BACKFILL,
    Cluster,
    SimWorkload,
    adaptive_relaxed,
    bounded_slowdown,
    compute_metrics,
    get_policy,
    relaxed,
    simulate,
    workload_from_trace,
)
from repro.traces.synth import generate_trace


def wl(submit, cores, runtime, walltime=None):
    submit = np.asarray(submit, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return SimWorkload(
        submit=submit,
        cores=np.asarray(cores, dtype=np.int64),
        runtime=runtime,
        walltime=np.asarray(walltime, dtype=float) if walltime is not None else runtime,
        user=np.zeros(len(submit), dtype=np.int64),
    )


class TestCluster:
    def test_allocate_release(self):
        c = Cluster(10)
        c.start(0, 4, 100.0)
        assert c.free == 6 and c.used == 4
        c.finish(0)
        assert c.free == 10

    def test_over_allocate_raises(self):
        c = Cluster(4)
        with pytest.raises(RuntimeError):
            c.start(0, 5, 1.0)

    def test_reservation_immediate_when_free(self):
        c = Cluster(10)
        shadow, extra = c.reservation(4, now=50.0)
        assert shadow == 50.0 and extra == 6

    def test_reservation_waits_for_running(self):
        c = Cluster(10)
        c.start(0, 8, expected_end=100.0)
        shadow, extra = c.reservation(6, now=0.0)
        assert shadow == 100.0
        assert extra == 10 - 6

    def test_reservation_orders_by_end(self):
        c = Cluster(10)
        c.start(0, 5, expected_end=200.0)
        c.start(1, 5, expected_end=100.0)
        shadow, _ = c.reservation(5, now=0.0)
        assert shadow == 100.0  # earliest-ending job suffices

    def test_reservation_impossible(self):
        c = Cluster(4)
        with pytest.raises(RuntimeError):
            c.reservation(5, now=0.0)

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestPolicies:
    def test_fcfs_order(self):
        p = get_policy("fcfs")
        order = p.order(
            np.array([5.0, 1.0, 3.0]),
            np.array([1, 1, 1]),
            np.array([10.0, 10.0, 10.0]),
            now=10.0,
        )
        assert list(order) == [1, 2, 0]

    def test_sjf_order(self):
        p = get_policy("sjf")
        order = p.order(
            np.array([0.0, 1.0]),
            np.array([1, 1]),
            np.array([100.0, 10.0]),
            now=10.0,
        )
        assert list(order) == [1, 0]

    def test_ties_broken_by_submit(self):
        p = get_policy("sjf")
        order = p.order(
            np.array([2.0, 1.0]),
            np.array([1, 1]),
            np.array([10.0, 10.0]),
            now=10.0,
        )
        assert list(order) == [1, 0]

    def test_wfp3_favors_waiting(self):
        p = get_policy("wfp3")
        order = p.order(
            np.array([0.0, 99.0]),
            np.array([1, 1]),
            np.array([10.0, 10.0]),
            now=100.0,
        )
        assert order[0] == 0  # waited 100s vs 1s

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            get_policy("quantum")

    def test_all_registered_policies_run(self):
        from repro.sched import POLICIES

        workload = wl([0, 1, 2, 3], [2, 2, 2, 2], [10, 10, 10, 10])
        for name in POLICIES:
            res = simulate(workload, capacity=4, policy=name)
            assert np.all(res.start >= workload.submit), name


class TestEngineBasics:
    def test_serial_execution_on_full_cluster(self):
        workload = wl([0, 0], [4, 4], [100, 100])
        res = simulate(workload, capacity=4)
        assert sorted(res.start) == [0.0, 100.0]

    def test_parallel_when_fits(self):
        workload = wl([0, 0], [2, 2], [100, 100])
        res = simulate(workload, capacity=4)
        assert list(res.start) == [0.0, 0.0]

    def test_no_start_before_submit(self):
        workload = wl([0, 500], [4, 4], [100, 100])
        res = simulate(workload, capacity=4)
        assert res.start[1] == 500.0

    def test_job_too_large_raises(self):
        with pytest.raises(ValueError, match="larger than"):
            simulate(wl([0], [8], [10]), capacity=4)

    def test_empty_workload_raises(self):
        with pytest.raises(ValueError):
            simulate(
                SimWorkload(
                    submit=np.array([]),
                    cores=np.array([], dtype=np.int64),
                    runtime=np.array([]),
                    walltime=np.array([]),
                    user=np.array([], dtype=np.int64),
                ),
                capacity=4,
            )

    @pytest.mark.parametrize("field", ["submit", "runtime", "walltime"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, field, bad):
        """NaN/inf times are refused at the workload boundary, naming the
        field: the readable loops would hang on them and the fast engines
        would mis-schedule them."""
        arrays = {
            "submit": [0.0, 1.0, 2.0, 3.0],
            "runtime": [5.0, 5.0, 5.0, 5.0],
            "walltime": [9.0, 9.0, 9.0, 9.0],
        }
        arrays[field][1] = bad
        with pytest.raises(ValueError, match=field):
            SimWorkload(
                cores=np.ones(4, dtype=np.int64),
                user=np.zeros(4, dtype=np.int64),
                **{k: np.array(v) for k, v in arrays.items()},
            )

    @pytest.mark.parametrize("cores", [[1.0, 2.5], [1.0, np.nan], [np.inf, 1.0]])
    def test_non_integral_cores_rejected(self, cores):
        with pytest.raises(ValueError, match="cores"):
            SimWorkload(
                submit=np.array([0.0, 1.0]),
                cores=np.array(cores),
                runtime=np.array([5.0, 5.0]),
                walltime=np.array([5.0, 5.0]),
                user=np.zeros(2, dtype=np.int64),
            )

    def test_integral_float_cores_accepted(self):
        workload = SimWorkload(
            submit=np.array([0.0, 1.0]),
            cores=np.array([2.0, 4.0]),
            runtime=np.array([5.0, 5.0]),
            walltime=np.array([5.0, 5.0]),
            user=np.zeros(2, dtype=np.int64),
        )
        assert simulate(workload, capacity=4).start.tolist() == [0.0, 5.0]

    def test_wait_metric(self):
        workload = wl([0, 0], [4, 4], [100, 100])
        res = simulate(workload, capacity=4)
        assert sorted(res.wait) == [0.0, 100.0]

    def test_queue_tracking(self):
        workload = wl([0, 0, 0], [4, 4, 4], [10, 10, 10])
        res = simulate(workload, capacity=4, track_queue=True)
        assert res.queue_samples.max() >= 2


class TestBackfilling:
    def test_easy_backfills_short_small_job(self):
        # j0 holds 4/5 cores; head j1 needs all 5; j2 (1 core, 10s) fits in
        # the hole and ends before the shadow time -> backfills immediately
        workload = wl(
            submit=[0, 1, 2],
            cores=[4, 5, 1],
            runtime=[100, 50, 10],
            walltime=[100, 50, 10],
        )
        res = simulate(workload, capacity=5, backfill=EASY)
        assert res.start[2] == 2.0
        assert res.start[1] == 100.0

    def test_no_backfill_blocks(self):
        workload = wl(
            submit=[0, 1, 2],
            cores=[4, 5, 1],
            runtime=[100, 50, 10],
        )
        res = simulate(workload, capacity=5, backfill=NO_BACKFILL)
        assert res.start[2] == 150.0  # waits for queue order

    def test_easy_protects_reservation(self):
        # j2 would delay the head's reservation -> must NOT backfill
        workload = wl(
            submit=[0, 1, 2],
            cores=[4, 4, 1],
            runtime=[100, 50, 500],
            walltime=[100, 50, 500],
        )
        res = simulate(workload, capacity=4, backfill=EASY)
        assert res.start[1] == 100.0  # head unharmed
        assert res.start[2] >= 150.0

    RELAX_CASE = dict(
        submit=[0, 0, 0],
        cores=[4, 6, 2],
        runtime=[100, 50, 120],
        walltime=[100, 50, 120],
    )

    def test_relaxed_allows_bounded_delay(self):
        # head j1 (6 cores) promised t=100; j2 (2 cores, 120s) would push it
        # to 120 -- inside a 50% relax window (100 + 0.5*100 = 150)
        workload = wl(**self.RELAX_CASE)
        strict = simulate(workload, capacity=6, backfill=EASY)
        loose = simulate(workload, capacity=6, backfill=relaxed(0.5))
        assert strict.start[2] > 100.0       # not backfilled under EASY
        assert loose.start[2] == 0.0         # backfilled under 50% relax
        assert loose.start[1] == 120.0       # head delayed within bound

    def test_violation_recorded_for_relaxed_delay(self):
        workload = wl(**self.RELAX_CASE)
        m = compute_metrics(simulate(workload, capacity=6, backfill=relaxed(0.5)))
        assert m.violation == pytest.approx(20.0)  # promised 100, started 120
        assert m.violation_count == 1

    def test_adaptive_relaxes_less_on_short_queue(self):
        workload = wl(**self.RELAX_CASE)
        # queue is tiny relative to max_queue_len -> factor ~ 0
        res = simulate(
            workload, capacity=6, backfill=adaptive_relaxed(0.5, max_queue_len=1000)
        )
        assert res.start[2] > 0.0  # no effective relaxation

    def test_backfill_uses_extra_nodes(self):
        # head needs 4; extra at shadow = 1, so a 1-core long job may run
        workload = wl(
            submit=[0, 1, 2],
            cores=[3, 4, 1],
            runtime=[100, 50, 1000],
            walltime=[100, 50, 1000],
        )
        res = simulate(workload, capacity=5, backfill=EASY)
        # capacity 5, j0 uses 3. head j1 needs 4 -> shadow 100, extra 1.
        assert res.start[2] == 2.0

    def test_easy_extra_core_accounting(self):
        # Pins the EASY reservation ledger against engine refactors:
        # window-fitting backfills must NOT erode the head's ``extra``
        # budget, while shadow-crossing (extra-consuming) backfills MUST
        # decrement it so later jobs cannot overdraw the reservation.
        #
        # capacity 10; j0 (6 cores, 100s) runs at t=0, so head j1
        # (8 cores) is promised shadow=100 with extra=2.
        workload = wl(
            submit=[0, 1, 1, 2, 3],
            cores=[6, 8, 4, 2, 2],
            runtime=[100, 10, 60, 200, 200],
            walltime=[100, 10, 60, 200, 200],
        )
        res = simulate(workload, capacity=10, backfill=EASY)
        # j2 ends at 61 <= shadow: a pure window fit, leaving extra at 2
        assert res.start[2] == 1.0 and res.backfilled[2]
        # j3 crosses the shadow but fits in extra (2 <= 2): consumes it all
        assert res.start[3] == 61.0 and res.backfilled[3]
        # j4 also crosses the shadow; extra is now 0, so it must wait --
        # if extra were not decremented, j4 would start at 61 and delay
        # the head past its promise
        assert not res.backfilled[4]
        assert res.start[4] > res.start[1]
        # the head starts exactly at its promised shadow time
        assert res.promised[1] == 100.0
        assert res.start[1] == 100.0
        m = compute_metrics(res)
        assert m.violation_count == 0 and m.violation == 0.0


class TestMetrics:
    def test_bounded_slowdown_floor(self):
        b = bounded_slowdown(np.array([0.0]), np.array([1000.0]))
        assert b[0] == 1.0

    def test_bounded_slowdown_bound_kicks_in(self):
        # 1-second job with 9-second wait: bound=10 caps the denominator
        b = bounded_slowdown(np.array([9.0]), np.array([1.0]))
        assert b[0] == pytest.approx(1.0)

    def test_utilization_full(self):
        workload = wl([0, 0], [2, 2], [100, 100])
        m = compute_metrics(simulate(workload, capacity=4))
        assert m.util == pytest.approx(1.0)

    def test_metrics_as_dict_keys_match_dataclass_fields(self):
        # regression: as_dict used to drop violation_count and n_jobs,
        # silently truncating CLI/export summaries and cached sweep results
        import dataclasses

        from repro.sched import ScheduleMetrics

        m = compute_metrics(simulate(wl([0], [1], [10]), capacity=4))
        d = m.as_dict()
        assert set(d) == {f.name for f in dataclasses.fields(ScheduleMetrics)}
        assert ScheduleMetrics(**d) == m


class TestIntegrationWithTraces:
    def test_simulates_synthetic_theta(self):
        tr = generate_trace("theta", days=3.0, seed=1)
        workload = workload_from_trace(tr)
        res = simulate(workload, tr.system.schedulable_units, "fcfs", EASY)
        m = compute_metrics(res)
        assert 0.1 < m.util <= 1.0
        assert m.wait >= 0.0

    def test_walltime_fallback_for_dl(self):
        tr = generate_trace("helios", days=0.2, seed=1)
        workload = workload_from_trace(tr, walltime_fallback_factor=2.0)
        assert np.all(workload.walltime >= workload.runtime)

    def test_relaxed_beats_easy_on_wait(self):
        tr = generate_trace("theta", days=5.0, seed=2)
        workload = workload_from_trace(tr)
        cap = tr.system.schedulable_units
        m_easy = compute_metrics(simulate(workload, cap, "fcfs", EASY))
        m_rel = compute_metrics(simulate(workload, cap, "fcfs", relaxed(0.1)))
        # relaxation must not be catastrophically worse; usually better
        assert m_rel.wait <= m_easy.wait * 1.2

    def test_adaptive_reduces_violation(self):
        tr = generate_trace("theta", days=5.0, seed=2)
        workload = workload_from_trace(tr)
        cap = tr.system.schedulable_units
        m_rel = compute_metrics(simulate(workload, cap, "fcfs", relaxed(0.1)))
        m_ada = compute_metrics(
            simulate(workload, cap, "fcfs", adaptive_relaxed(0.1))
        )
        if m_rel.violation > 0:
            assert m_ada.violation <= m_rel.violation


class TestImportEdges:
    def test_import_sched_does_not_load_scipy(self):
        """The simulator never needs scipy; only fitting a Tobit model
        does, and that import happens inside the fit."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, repro.sched; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"

    def test_conservative_annotations_resolve(self):
        """Every name simulate_conservative's annotations use is imported."""
        import typing

        from repro.sched import simulate_conservative

        assert typing.get_type_hints(simulate_conservative)["workload"] is SimWorkload
