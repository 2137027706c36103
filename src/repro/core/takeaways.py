"""Programmatic evaluation of the paper's eight takeaways.

Each takeaway is a concrete, checkable claim over a set of per-system
traces.  ``evaluate_takeaways`` runs all eight and returns structured
verdicts — the reproduction's "did the qualitative findings hold" summary,
also exercised by the test suite.  The verdicts read their analyses from a
:class:`~repro.core.study.CrossSystemStudy`, so a study that has already
rendered its figures computes none of them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..traces.schema import Trace
from ..traces.systems import SystemKind
from .users import runtime_vs_queue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .study import CrossSystemStudy

__all__ = ["TakeawayResult", "evaluate_takeaways"]


@dataclass
class TakeawayResult:
    """Verdict for one takeaway."""

    number: int
    title: str
    holds: bool
    evidence: dict = field(default_factory=dict)

    def __str__(self) -> str:
        flag = "HOLDS" if self.holds else "DOES NOT HOLD"
        return f"Takeaway {self.number} [{flag}] {self.title}"


def evaluate_takeaways(traces: dict[str, Trace]) -> list[TakeawayResult]:
    """Evaluate takeaways 1-8 over per-system traces (name -> Trace)."""
    from .study import CrossSystemStudy

    return study_takeaways(CrossSystemStudy.from_traces(traces))


def study_takeaways(study: "CrossSystemStudy") -> list[TakeawayResult]:
    """Evaluate takeaways 1-8 from the (memoized) analyses of ``study``."""
    traces = study.traces
    dl_names = [n for n, t in traces.items() if t.system.kind is SystemKind.DL]
    hpc_names = [n for n in traces if n not in dl_names]
    geometry = study.geometry()
    results: list[TakeawayResult] = []

    # ------------------------------------------------------------------
    # T1: DL runtimes are shorter and more diverse than HPC runtimes.
    dl_rt = [geometry[n].runtime for n in dl_names]
    hpc_rt = [geometry[n].runtime for n in hpc_names]
    med_dl = np.median([r.median for r in dl_rt]) if dl_rt else np.nan
    med_hpc = np.median([r.median for r in hpc_rt]) if hpc_rt else np.nan
    spread = lambda r: np.log10(max(r.violin.p95, 1.0)) - np.log10(
        max(r.violin.p05, 1.0)
    )
    spread_dl = np.mean([spread(r) for r in dl_rt]) if dl_rt else np.nan
    spread_hpc = np.mean([spread(r) for r in hpc_rt]) if hpc_rt else np.nan
    results.append(
        TakeawayResult(
            1,
            "DL job runtimes are shorter and more diverse",
            holds=bool(med_dl < med_hpc and spread_dl > spread_hpc),
            evidence={
                "median_dl_s": float(med_dl),
                "median_hpc_s": float(med_hpc),
                "log10_spread_dl": float(spread_dl),
                "log10_spread_hpc": float(spread_hpc),
            },
        )
    )

    # ------------------------------------------------------------------
    # T2: diurnal periodicity exists but is system-specific (peak ratios
    # differ by a large factor across systems).
    ratios = {name: g.arrival.peak_ratio for name, g in geometry.items()}
    finite = [r for r in ratios.values() if np.isfinite(r)]
    results.append(
        TakeawayResult(
            2,
            "periodic patterns exist but are not general across systems",
            holds=bool(len(finite) >= 2 and max(finite) / min(finite) > 2.0),
            evidence={"peak_ratios": {k: float(v) for k, v in ratios.items()}},
        )
    )

    # ------------------------------------------------------------------
    # T3: DL workloads are dominated by small (1-unit) requests while HPC
    # requests are orders of magnitude larger.
    dl_single = [geometry[n].allocation.single_unit_fraction for n in dl_names]
    hpc_median = [geometry[n].allocation.median_cores for n in hpc_names]
    results.append(
        TakeawayResult(
            3,
            "many more small/short jobs are coming (DL ~1 unit vs HPC >>)",
            holds=bool(
                dl_single
                and min(dl_single) > 0.5
                and hpc_median
                and min(hpc_median) > 100
            ),
            evidence={
                "dl_single_unit_fraction": [float(x) for x in dl_single],
                "hpc_median_cores": [float(x) for x in hpc_median],
            },
        )
    )

    # ------------------------------------------------------------------
    # T4: dominating job groups (>50% of core-hours) exist but shift
    # across systems.
    shares = study.core_hours()
    dominant = {
        name: (s.dominant_size(), s.dominant_length())
        for name, s in shares.items()
    }
    has_dominant = all(
        max(s.by_size.max(), s.by_length.max()) > 0.5 for s in shares.values()
    )
    shifts = len({d for d in dominant.values()}) > 1
    results.append(
        TakeawayResult(
            4,
            "dominating job groups exist but shift across systems",
            holds=bool(has_dominant and shifts),
            evidence={"dominant_classes": dominant},
        )
    )

    # ------------------------------------------------------------------
    # T5: DL clusters show lower utilization than HPC clusters (the load
    # each trace offers, reconstructed from allocations).
    def offered_load(t: Trace) -> float:
        span = max(t.span_seconds, 1.0)
        return float(
            (t["runtime"] * t["cores"]).sum()
            / (t.system.schedulable_units * span)
        )

    util_dl = [offered_load(traces[n]) for n in dl_names]
    util_hpc = [offered_load(traces[n]) for n in hpc_names]
    results.append(
        TakeawayResult(
            5,
            "DL clusters run at lower utilization despite queued jobs",
            holds=bool(
                util_dl
                and util_hpc
                and float(np.mean(util_dl)) < float(np.mean(util_hpc))
                and min(util_dl) < min(util_hpc)
            ),
            evidence={
                "dl_utilization": [float(u) for u in util_dl],
                "hpc_utilization": [float(u) for u in util_hpc],
            },
        )
    )

    # ------------------------------------------------------------------
    # T6: waiting times vary wildly across systems (management matters);
    # the hybrid system waits longest.
    waits = study.waiting()
    medians = {name: w.median_wait for name, w in waits.items()}
    hybrid = [
        name for name, t in traces.items()
        if t.system.kind is SystemKind.HYBRID
    ]
    hybrid_longest = bool(
        hybrid and medians[hybrid[0]] == max(medians.values())
    )
    spread_ok = (
        max(medians.values()) > 50 * max(min(medians.values()), 1e-9)
    )
    results.append(
        TakeawayResult(
            6,
            "waiting time differs hugely across systems; hybrid waits longest",
            holds=bool(spread_ok and hybrid_longest),
            evidence={"median_waits_s": {k: float(v) for k, v in medians.items()}},
        )
    )

    # ------------------------------------------------------------------
    # T7: failure rates are consistently high (passed < 70%) and failed/
    # killed jobs consume disproportionate core-hours.
    st = study.failures()
    pass_ok = all(s.passed_count_share < 0.80 for s in st.values())
    waste_ok = all(s.wasted_core_hour_share > 0.20 for s in st.values())
    falls_with_length = []
    for by_class in study.failures_by_class().values():
        pr = by_class.pass_rate_by_length()
        valid = pr[~np.isnan(pr)]
        if len(valid) >= 2:
            falls_with_length.append(valid[-1] < valid[0])
    results.append(
        TakeawayResult(
            7,
            "job failures are pervasive and costly across all systems",
            holds=bool(pass_ok and waste_ok and all(falls_with_length)),
            evidence={
                "passed_share": {k: float(v.passed_count_share) for k, v in st.items()},
                "wasted_core_hours": {
                    k: float(v.wasted_core_hour_share) for k, v in st.items()
                },
            },
        )
    )

    # ------------------------------------------------------------------
    # T8: per-user behaviour is consistent and exploitable: strong config
    # repetition everywhere; busy queues attract smaller jobs; on DL
    # systems busy queues also attract shorter jobs.
    reps = study.repetition()
    rep_ok = all(r.top(10) > 0.6 for r in reps.values())
    size_trend = []
    for mix in study.size_vs_queue().values():
        mf = mix.minimal_fraction()
        valid = mf[~np.isnan(mf)]
        if len(valid) >= 2:
            size_trend.append(valid[-1] >= valid[0])
    runtime_trend_dl = []
    for n in dl_names:
        # the DL systems only: the HPC runtime mixes are never read
        mix = study._analysis(runtime_vs_queue, n)
        mf = mix.minimal_fraction()
        valid = mf[~np.isnan(mf)]
        if len(valid) >= 2:
            runtime_trend_dl.append(valid[-1] >= valid[0])
    results.append(
        TakeawayResult(
            8,
            "per-user patterns are consistent: repetition + load adaptation",
            holds=bool(
                rep_ok
                and size_trend
                and np.mean(size_trend) >= 0.5
                and (not runtime_trend_dl or all(runtime_trend_dl))
            ),
            evidence={
                "top10_repetition": {k: float(v.top(10)) for k, v in reps.items()},
                "size_shrinks_with_queue": size_trend,
                "dl_runtime_shrinks_with_queue": runtime_trend_dl,
            },
        )
    )

    return results
