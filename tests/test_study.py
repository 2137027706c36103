"""Tests for the CrossSystemStudy orchestrator and takeaway evaluator."""

import dataclasses

import numpy as np
import pytest

from repro import CrossSystemStudy
from repro.core import evaluate_takeaways
from repro.core import study as study_mod
from repro.core.corehours import core_hour_shares
from repro.core.failures import status_by_class, status_shares
from repro.core.geometry import analyze_geometry
from repro.core.users import (
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
    top_user_status_profiles,
)
from repro.core.utilization import analyze_utilization
from repro.core.waiting import wait_by_class, wait_summary
from repro.traces.synth import generate_trace


@pytest.fixture(scope="module")
def study():
    return CrossSystemStudy.generate(days=6, seed=7)


def test_generate_produces_five_systems(study):
    assert set(study.systems()) == {
        "mira",
        "theta",
        "blue_waters",
        "philly",
        "helios",
    }


def test_from_traces_wraps_external():
    tr = generate_trace("theta", days=1, seed=0)
    study = CrossSystemStudy.from_traces({"theta": tr})
    assert study.systems() == ["theta"]
    assert study.geometry()["theta"].runtime.median > 0


def test_every_figure_method_runs(study):
    assert len(study.geometry()) == 5
    assert len(study.core_hours()) == 5
    assert len(study.utilization(n_buckets=10)) == 5
    assert len(study.waiting()) == 5
    assert len(study.waiting_by_class()) == 5
    assert len(study.failures()) == 5
    assert len(study.failures_by_class()) == 5
    assert len(study.repetition()) == 5
    assert len(study.size_vs_queue()) == 5
    assert len(study.runtime_vs_queue()) == 5
    assert len(study.user_status_profiles(n_users=2)) == 5


def test_takeaways_mostly_hold_at_test_scale(study):
    results = study.takeaways()
    assert len(results) == 8
    assert [r.number for r in results] == list(range(1, 9))
    # short synthetic windows are noisy; the vast majority must still hold
    holding = sum(r.holds for r in results)
    assert holding >= 7


def test_takeaways_all_have_evidence(study):
    for r in study.takeaways():
        assert r.evidence, r.number
        assert str(r).startswith(f"Takeaway {r.number}")


def test_takeaways_on_subset():
    study = CrossSystemStudy.generate(days=3, seed=1, systems=["mira", "philly"])
    results = evaluate_takeaways(study.traces)
    assert len(results) == 8  # evaluator degrades gracefully on subsets


def test_prediction_entry_point(study):
    out = study.prediction(
        systems=["theta"], fractions=(0.25,), models=("lr",), max_jobs=1000
    )
    assert "theta" in out
    assert out["theta"].results


def test_backfilling_entry_point(study):
    out = study.backfilling(systems=["theta"], max_jobs=800)
    assert out["theta"].relaxed.n_jobs == 800
    assert 0 < out["theta"].adaptive.util <= 1.0


def test_backfilling_defaults_to_simulatable_systems(study):
    out = study.backfilling(max_jobs=400)
    assert set(out) == {"blue_waters", "mira", "theta"}


# ----------------------------------------------------------------------
# The analysis memo
# ----------------------------------------------------------------------
#: study method -> (module function, extra positional args) it applies per trace
DIRECT = {
    "geometry": (analyze_geometry, ()),
    "core_hours": (core_hour_shares, ()),
    "utilization": (analyze_utilization, (100,)),
    "waiting": (wait_summary, ()),
    "waiting_by_class": (wait_by_class, ()),
    "failures": (status_shares, ()),
    "failures_by_class": (status_by_class, ()),
    "repetition": (repetition_summary, ()),
    "size_vs_queue": (size_vs_queue, ()),
    "runtime_vs_queue": (runtime_vs_queue, ()),
    "user_status_profiles": (top_user_status_profiles, (3,)),
}


def assert_same(a, b, where="result"):
    """Recursive equality: arrays element for element (NaN equal to NaN,
    dtype included), floats bit for bit, containers entry for entry."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a == b or (np.isnan(a) and np.isnan(b)), where
    else:
        assert a == b, where


@pytest.fixture
def small_study():
    return CrossSystemStudy.generate(days=4, seed=3)


def _unmemoized(monkeypatch):
    """Route every study analysis to a direct per-trace call."""
    monkeypatch.setattr(
        CrossSystemStudy,
        "_analysis",
        lambda self, fn, name, *a, **kw: fn(self.traces[name], *a, **kw),
    )


class TestAnalysisMemo:
    @pytest.mark.parametrize("method", sorted(DIRECT))
    def test_method_equals_direct_calls(self, small_study, method):
        fn, args = DIRECT[method]
        got = getattr(small_study, method)()
        want = {n: fn(t, *args) for n, t in small_study.traces.items()}
        assert_same(got, want, method)
        # a second call serves the very objects the first one computed
        again = getattr(small_study, method)()
        assert all(again[n] is got[n] for n in got)

    def test_arguments_are_part_of_the_key(self, small_study):
        coarse = small_study.utilization(n_buckets=10)
        fine = small_study.utilization(n_buckets=40)
        assert_same(coarse["theta"], analyze_utilization(small_study.traces["theta"], 10))
        assert_same(fine["theta"], analyze_utilization(small_study.traces["theta"], 40))
        short = small_study.repetition(max_k=3)
        assert_same(short["mira"], repetition_summary(small_study.traces["mira"], max_k=3))
        assert small_study.repetition(max_k=3)["mira"] is short["mira"]

    def test_takeaways_equal_direct_calls(self, small_study, monkeypatch):
        memoized = small_study.takeaways()
        assert_same(small_study.takeaways(), memoized, "takeaways")
        free = evaluate_takeaways(small_study.traces)
        assert_same(free, memoized, "evaluate_takeaways")
        _unmemoized(monkeypatch)
        direct = CrossSystemStudy.from_traces(small_study.traces).takeaways()
        assert_same(direct, memoized, "takeaways")

    def test_takeaways_reuse_figure_analyses(self, small_study, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(trace, *a, **kw):
                calls.append(fn.__name__)
                return fn(trace, *a, **kw)

            return wrapper

        for name in ("analyze_geometry", "core_hour_shares", "repetition_summary"):
            monkeypatch.setattr(study_mod, name, counting(getattr(study_mod, name)))
        small_study.geometry()
        small_study.core_hours()
        small_study.repetition()
        assert len(calls) == 15
        small_study.takeaways()
        assert len(calls) == 15

    def test_replaced_trace_is_recomputed(self, small_study, monkeypatch):
        calls = []
        real = study_mod.analyze_geometry

        def counting(trace):
            calls.append(trace)
            return real(trace)

        monkeypatch.setattr(study_mod, "analyze_geometry", counting)
        first = small_study.geometry()
        assert len(calls) == 5
        old = small_study.traces["theta"]
        new = old.filter(old["cores"] > np.median(old["cores"]))
        small_study.traces["theta"] = new
        second = small_study.geometry()
        assert calls[5:] == [new]
        assert_same(second["theta"], real(new))
        assert second["theta"] is not first["theta"]
        assert all(second[n] is first[n] for n in first if n != "theta")
        # an equal trace under a new identity is not served from the memo
        small_study.traces["mira"] = dataclasses.replace(small_study.traces["mira"])
        small_study.geometry()
        assert len(calls) == 7

    def test_study_equality_ignores_memo(self, small_study):
        other = CrossSystemStudy(traces=small_study.traces, meta=small_study.meta)
        small_study.geometry()
        assert other == small_study
