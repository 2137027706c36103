"""Tests for per-user behaviour analyses (Fig 8-11 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.users import (
    config_groups_for_user,
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
    top_user_status_profiles,
)
from repro.frame import Frame
from repro.traces import PHILLY, Trace
from repro.traces.synth import generate_trace


class TestConfigGroups:
    def test_identical_jobs_one_group(self):
        g = config_groups_for_user(
            np.array([4, 4, 4]), np.array([100.0, 100.0, 100.0])
        )
        assert len(np.unique(g)) == 1

    def test_different_cores_different_groups(self):
        g = config_groups_for_user(np.array([1, 2]), np.array([100.0, 100.0]))
        assert g[0] != g[1]

    def test_runtime_tolerance_boundary(self):
        # 100 and 109 within 10% of their running mean; 100 and 200 not
        g = config_groups_for_user(np.array([1, 1]), np.array([100.0, 109.0]))
        assert g[0] == g[1]
        g = config_groups_for_user(np.array([1, 1]), np.array([100.0, 200.0]))
        assert g[0] != g[1]

    def test_chain_does_not_drift_unboundedly(self):
        # each step is within 10% of its neighbour but the running-mean rule
        # must eventually split a long drifting chain
        runtimes = np.array([100.0 * 1.08**i for i in range(20)])
        g = config_groups_for_user(np.ones(20, dtype=int), runtimes)
        assert len(np.unique(g)) > 1

    def test_every_job_assigned(self):
        rng = np.random.default_rng(0)
        cores = rng.choice([1, 2, 4], 100)
        rt = rng.lognormal(4, 1, 100)
        g = config_groups_for_user(cores, rt)
        assert np.all(g >= 0)

    @given(
        st.lists(st.floats(1.0, 1e5), min_size=1, max_size=40),
        st.floats(0.01, 0.3),
    )
    @settings(max_examples=30)
    def test_groups_respect_tolerance(self, runtimes, tol):
        rt = np.array(runtimes)
        g = config_groups_for_user(np.ones(len(rt), dtype=int), rt, tol)
        for gid in np.unique(g):
            member = rt[g == gid]
            mean = member.mean()
            # every member is within ~2*tol of the final mean (running-mean
            # greedy grouping guarantees closeness to the evolving centre)
            assert np.all(np.abs(member - mean) <= 2 * tol * mean + 1e-9)


def _numpy_scalar_groups(cores, runtime, tolerance=0.10):
    """The grouping loop as it was first written, over numpy scalars: the
    oracle the Python-float loop must match job for job."""
    cores = np.asarray(cores)
    runtime = np.asarray(runtime, dtype=float)
    groups = np.full(len(cores), -1, dtype=np.int64)
    next_id = 0
    for c in np.unique(cores):
        idx = np.flatnonzero(cores == c)
        order = idx[np.argsort(runtime[idx], kind="stable")]
        mean = None
        count = 0
        for j in order:
            rt = runtime[j]
            if mean is not None and abs(rt - mean) <= tolerance * mean:
                mean = (mean * count + rt) / (count + 1)
                count += 1
            else:
                next_id += 1
                mean = rt
                count = 1
            groups[j] = next_id - 1
    return groups


#: runtimes that stress the comparison: ties, zeros, round and tiny values
_EDGE_RUNTIMES = st.sampled_from([0.0, 1.0, 90.0, 100.0, 110.0, 1e-300, 5e-324])


class TestConfigGroupsMatchScalarLoop:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 4]),
                st.one_of(_EDGE_RUNTIMES, st.floats(0.0, 1e6)),
            ),
            max_size=60,
        ),
        st.sampled_from([0.0, 0.05, 0.10, 0.25, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_scalar_loop(self, jobs, tol):
        cores = np.array([c for c, _ in jobs], dtype=np.int64)
        rt = np.array([r for _, r in jobs], dtype=float)
        assert np.array_equal(
            config_groups_for_user(cores, rt, tol),
            _numpy_scalar_groups(cores, rt, tol),
        )

    @given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_single_core_count_with_equal_runtimes(self, runtimes):
        rt = np.array(runtimes + runtimes)  # every runtime appears twice
        cores = np.full(len(rt), 8)
        assert np.array_equal(
            config_groups_for_user(cores, rt), _numpy_scalar_groups(cores, rt)
        )

    @given(
        st.floats(1.0, 1e4),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.sampled_from([-np.inf, 0.0, np.inf]),
        st.sampled_from([0.05, 0.10, 0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_next_job_on_running_mean_edge(self, lo, fracs, nudge, tol):
        # a group of jobs, then one whose runtime is the group's running
        # mean plus ``tol * mean`` (or one ulp either side): the verdict
        # turns on the last bit of the mean, so any change to the order of
        # the arithmetic shows
        group = sorted(lo * (1 + f * tol / 2) for f in [0.0, *fracs])
        mean, count = group[0], 1
        for rt in group[1:]:
            mean = (mean * count + rt) / (count + 1)
            count += 1
        edge = mean + tol * mean
        rt = np.array(group + [edge if nudge == 0 else np.nextafter(edge, nudge)])
        cores = np.ones(len(rt), dtype=int)
        assert np.array_equal(
            config_groups_for_user(cores, rt, tol),
            _numpy_scalar_groups(cores, rt, tol),
        )


class TestRepetition:
    def test_single_config_user_repeats_fully(self):
        tr = Trace(
            system=PHILLY,
            jobs=Frame(
                {
                    "submit_time": np.arange(50.0),
                    "runtime": np.full(50, 100.0),
                    "cores": np.full(50, 2),
                    "user_id": np.zeros(50, dtype=np.int64),
                }
            ),
        )
        s = repetition_summary(tr, min_jobs=10)
        assert s.top(1) == pytest.approx(1.0)

    def test_curve_monotone_and_bounded(self):
        tr = generate_trace("philly", days=2, seed=1)
        s = repetition_summary(tr)
        assert np.all(np.diff(s.cumulative_share) >= -1e-12)
        assert s.cumulative_share[-1] <= 1.0 + 1e-12
        assert s.top(10) >= s.top(3) >= s.top(1) > 0

    def test_hpc_more_repetitive_than_dl(self):
        hpc = repetition_summary(generate_trace("mira", days=8, seed=3))
        dl = repetition_summary(generate_trace("philly", days=8, seed=3))
        assert hpc.top(3) > dl.top(3)


class TestQueueConditioned:
    def test_mix_rows_sum_to_one(self):
        tr = generate_trace("philly", days=3, seed=2)
        for mix in (size_vs_queue(tr), runtime_vs_queue(tr)):
            for q in range(3):
                row = mix.mix[q]
                if not np.isnan(row).any():
                    assert row.sum() == pytest.approx(1.0)

    def test_kinds(self):
        tr = generate_trace("helios", days=0.5, seed=2)
        assert size_vs_queue(tr).kind == "size"
        assert runtime_vs_queue(tr).kind == "runtime"

    def test_dl_minimal_grows_with_queue(self):
        tr = generate_trace("philly", days=6, seed=0)
        mf = size_vs_queue(tr).minimal_fraction()
        valid = mf[~np.isnan(mf)]
        assert valid[-1] > valid[0]  # the Fig 9 trend

    def test_thresholds_ordered(self):
        tr = generate_trace("theta", days=3, seed=2)
        mix = size_vs_queue(tr)
        t1, t2 = mix.thresholds
        assert 0 <= t1 <= t2


class TestUserStatusProfiles:
    def test_top_users_by_job_count(self):
        tr = generate_trace("philly", days=3, seed=4)
        profiles = top_user_status_profiles(tr, n_users=3)
        assert len(profiles) == 3
        counts = [p.n_jobs for p in profiles]
        assert counts == sorted(counts, reverse=True)

    def test_violin_keys(self):
        tr = generate_trace("theta", days=3, seed=4)
        p = top_user_status_profiles(tr, n_users=1)[0]
        assert set(p.violins) == {"Passed", "Failed", "Killed"}

    def test_separation_non_negative(self):
        tr = generate_trace("helios", days=0.5, seed=4)
        for p in top_user_status_profiles(tr, n_users=3):
            assert p.separation() >= 0.0
