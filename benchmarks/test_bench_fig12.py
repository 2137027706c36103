"""Benchmark: regenerate Fig 12 (runtime prediction with elapsed time).

Reduced scale: one system, two cheap models, one elapsed fraction — enough
to exercise the full train/predict/metric pipeline per benchmark round.
Each model's fit/predict walls ride along in the bench record, so the ML
layer has its own trajectory in ``BENCH_history.jsonl``.
"""

from repro.experiments import fig12, run_experiment

from conftest import BENCH_DAYS, BENCH_SEED


def test_bench_fig12(benchmark, monkeypatch, record_property):
    """End-to-end regeneration of the Fig 12 comparison (reduced grid)."""
    comparisons = []
    run_use_case1 = fig12.run_use_case1

    def recording(*args, **kwargs):
        comparison = run_use_case1(*args, **kwargs)
        comparisons.append(comparison)
        return comparison

    # observes the harness only: the rendered text and result.data are
    # exactly those of an unwrapped run
    monkeypatch.setattr(fig12, "run_use_case1", recording)
    result = benchmark.pedantic(
        run_experiment,
        args=("fig12",),
        kwargs=dict(
            days=BENCH_DAYS,
            seed=BENCH_SEED,
            systems=("theta",),
            fractions=(0.25,),
            models=("last2", "lr", "xgboost"),
            max_jobs=2000,
        ),
        rounds=3,
        iterations=1,
    )
    assert result.exp_id == "fig12"
    cells = result.data["theta"]
    # the headline shape: elapsed arm underestimates less for the learned models
    assert cells["lr/0.25/elapsed"]["under"] <= cells["lr/0.25/baseline"]["under"]

    # per-model walls of the last round (rounds=3 regenerates three times)
    for model, cost in comparisons[-1].model_report().items():
        record_property(f"{model}_fit_seconds", round(cost["fit_seconds"], 4))
        record_property(f"{model}_predict_seconds", round(cost["predict_seconds"], 4))
