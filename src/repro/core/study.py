"""High-level cross-system study orchestrator — the library's front door.

``CrossSystemStudy`` bundles the five target systems' traces and exposes
every analysis of the paper as one method each, so the quickstart is::

    from repro import CrossSystemStudy
    study = CrossSystemStudy.generate(days=30, seed=0)
    study.geometry()          # Fig 1
    study.takeaways()         # the 8 takeaways
    study.prediction()        # Fig 12 (use case 1)
    study.backfilling()       # Table II (use case 2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..predict.harness import ElapsedComparison, run_use_case1
from ..traces.schema import Trace
from ..traces.synth import generate_all_traces
from .adaptive import AdaptiveComparison, run_use_case2
from .corehours import CoreHourShares, core_hour_shares
from .failures import StatusByClass, StatusShares, status_by_class, status_shares
from .geometry import GeometrySummary, analyze_geometry
from .takeaways import TakeawayResult, study_takeaways
from .users import (
    QueueConditioned,
    RepetitionSummary,
    UserStatusProfile,
    repetition_summary,
    runtime_vs_queue,
    size_vs_queue,
    top_user_status_profiles,
)
from .utilization import UtilizationSeries, analyze_utilization
from .waiting import WaitByClass, WaitSummary, wait_by_class, wait_summary

__all__ = ["CrossSystemStudy"]

#: systems the Table II simulation runs on (those with walltimes)
SIMULATABLE = ("blue_waters", "mira", "theta")


@dataclass
class CrossSystemStudy:
    """A set of per-system traces plus every paper analysis.

    Each characterization (``geometry`` ... ``user_status_profiles``, and
    the analyses ``takeaways`` reads) is computed once per system and
    argument set, then served from a memo.  A memo entry is keyed by the
    analysis, its arguments and the identity of the trace it ran on, so
    assigning a new trace to ``traces[name]`` recomputes that system.  The
    memo treats traces as read-only: a trace whose columns are modified in
    place keeps serving its old results.  ``prediction`` and
    ``backfilling`` are not memoized.
    """

    traces: dict[str, Trace]
    meta: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def generate(
        cls,
        days: float = 30.0,
        seed: int = 0,
        systems: list[str] | None = None,
    ) -> "CrossSystemStudy":
        """Generate synthetic traces for the five target systems."""
        traces = generate_all_traces(days=days, seed=seed, systems=systems)
        return cls(traces=traces, meta={"days": days, "seed": seed})

    @classmethod
    def from_traces(cls, traces: dict[str, Trace]) -> "CrossSystemStudy":
        """Wrap externally loaded traces (e.g. real SWF files)."""
        return cls(traces=dict(traces))

    def systems(self) -> list[str]:
        """Names of the systems under study."""
        return list(self.traces)

    def _analysis(self, fn: Callable, name: str, *args, **kwargs):
        """``fn(self.traces[name], *args, **kwargs)``, computed once."""
        trace = self.traces[name]
        key = (fn, name, args, tuple(sorted(kwargs.items())))
        hit = self._memo.get(key)
        if hit is None or hit[0] is not trace:
            hit = self._memo[key] = (trace, fn(trace, *args, **kwargs))
        return hit[1]

    def _each(self, fn: Callable, *args, **kwargs) -> dict:
        return {n: self._analysis(fn, n, *args, **kwargs) for n in self.traces}

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def geometry(self) -> dict[str, GeometrySummary]:
        """Fig 1: job geometries per system."""
        return self._each(analyze_geometry)

    def core_hours(self) -> dict[str, CoreHourShares]:
        """Fig 2: core-hour domination per system."""
        return self._each(core_hour_shares)

    def utilization(self, n_buckets: int = 100) -> dict[str, list[UtilizationSeries]]:
        """Fig 3: utilization series per system."""
        return self._each(analyze_utilization, n_buckets)

    def waiting(self) -> dict[str, WaitSummary]:
        """Fig 4: wait/turnaround CDFs per system."""
        return self._each(wait_summary)

    def waiting_by_class(self) -> dict[str, WaitByClass]:
        """Fig 5: wait vs geometry classes per system."""
        return self._each(wait_by_class)

    def failures(self) -> dict[str, StatusShares]:
        """Fig 6: status distribution per system."""
        return self._each(status_shares)

    def failures_by_class(self) -> dict[str, StatusByClass]:
        """Fig 7: status vs geometry per system."""
        return self._each(status_by_class)

    def repetition(self, **kwargs) -> dict[str, RepetitionSummary]:
        """Fig 8: per-user resource-config repetition."""
        return self._each(repetition_summary, **kwargs)

    def size_vs_queue(self) -> dict[str, QueueConditioned]:
        """Fig 9: requested size vs queue length."""
        return self._each(size_vs_queue)

    def runtime_vs_queue(self) -> dict[str, QueueConditioned]:
        """Fig 10: runtime vs queue length."""
        return self._each(runtime_vs_queue)

    def user_status_profiles(self, n_users: int = 3) -> dict[str, list[UserStatusProfile]]:
        """Fig 11: per-user runtime-by-status profiles."""
        return self._each(top_user_status_profiles, n_users)

    # ------------------------------------------------------------------
    # Takeaways and use cases
    # ------------------------------------------------------------------
    def takeaways(self) -> list[TakeawayResult]:
        """Evaluate the paper's eight takeaways on these traces."""
        return study_takeaways(self)

    def prediction(self, systems: list[str] | None = None, **kwargs) -> dict[str, ElapsedComparison]:
        """Use case 1 (Fig 12): elapsed-time runtime prediction."""
        names = systems or self.systems()
        return {n: run_use_case1(self.traces[n], **kwargs) for n in names}

    def backfilling(
        self, systems: list[str] | None = None, **kwargs
    ) -> dict[str, AdaptiveComparison]:
        """Use case 2 (Table II): adaptive relaxed backfilling."""
        names = systems or [s for s in SIMULATABLE if s in self.traces]
        return {n: run_use_case2(self.traces[n], **kwargs) for n in names}
