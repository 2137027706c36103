"""Scheduling performance metrics (paper §II-C and Table II).

* **wait** — average job waiting time (seconds).
* **bsld** — average bounded slowdown: ``max(1, (wait+run)/max(run, bound))``
  with the conventional 10-second interactivity bound (Feitelson '01) —
  the very bound Takeaway 1 asks the community to reconsider.
* **util** — consumed core-hours over available core-hours of the makespan.
* **violation** — mean delay (seconds) of reserved head-of-queue jobs past
  their first promised start; the cost of *relaxing* backfilling.

Under fault injection (:mod:`repro.sched.faults`) utilization splits into
**goodput** (core-hours of completed jobs' useful work) and **waste**
(core-hours occupied by attempts that produced nothing) —
:func:`compute_resilience_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimResult
from .faults import FaultSimResult

__all__ = [
    "ScheduleMetrics",
    "compute_metrics",
    "observed_metrics",
    "bounded_slowdown",
    "ResilienceMetrics",
    "compute_resilience_metrics",
]

#: Feitelson's interactivity threshold for bounded slowdown (seconds)
BSLD_BOUND = 10.0


def bounded_slowdown(
    wait: np.ndarray, runtime: np.ndarray, bound: float = BSLD_BOUND
) -> np.ndarray:
    """Per-job bounded slowdown."""
    wait = np.asarray(wait, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return np.maximum(1.0, (wait + runtime) / np.maximum(runtime, bound))


@dataclass(frozen=True)
class ScheduleMetrics:
    """Aggregate metrics of one simulation run (Table II row group)."""

    wait: float
    bsld: float
    util: float
    violation: float
    violation_count: int
    n_jobs: int

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dict view for table rendering / JSON export.

        Carries every dataclass field (``ScheduleMetrics(**m.as_dict())``
        round-trips), so exported summaries and cached sweep results keep
        the full metric set.
        """
        return {
            "wait": self.wait,
            "bsld": self.bsld,
            "util": self.util,
            "violation": self.violation,
            "violation_count": self.violation_count,
            "n_jobs": self.n_jobs,
        }


def compute_metrics(result: SimResult, bound: float = BSLD_BOUND) -> ScheduleMetrics:
    """Compute the paper's four scheduling metrics from a run."""
    w = result.workload
    wait = result.wait
    bsld = bounded_slowdown(wait, w.runtime, bound)
    core_seconds = float((w.cores * w.runtime).sum())
    # a workload of only zero-runtime jobs has zero makespan and consumes
    # nothing: utilization of an instant is 0, not 0/0
    denom = result.capacity * result.makespan
    util = core_seconds / denom if denom > 0 else 0.0

    has_promise = np.isfinite(result.promised)
    delays = np.maximum(result.start[has_promise] - result.promised[has_promise], 0.0)
    violated = delays > 1e-9
    # mean reservation delay over all reserved (head-of-queue) jobs --
    # zero-delay reservations included, so the metric is stable when only
    # a handful of jobs are pushed past their promise
    violation = float(delays.mean()) if has_promise.any() else 0.0

    return ScheduleMetrics(
        wait=float(wait.mean()),
        bsld=float(bsld.mean()),
        util=float(util),
        violation=violation,
        violation_count=int(violated.sum()),
        n_jobs=w.n,
    )


@dataclass(frozen=True)
class ResilienceMetrics:
    """Aggregate resilience metrics of one fault-injected run."""

    #: core-hours of useful (eventually completed) work
    goodput_core_hours: float
    #: core-hours occupied by attempts that produced nothing
    wasted_core_hours: float
    #: goodput over available core-hours of the makespan
    effective_util: float
    #: fraction of jobs reaching PASSED
    completed_fraction: float
    #: fraction ending FAILED (intrinsic faults, retries exhausted)
    failed_fraction: float
    #: fraction ending KILLED (user cancels + node kills past max attempts)
    killed_fraction: float
    mean_attempts: float
    max_attempts: int
    #: mean time from submission to first service (seconds)
    mean_wait: float
    n_jobs: int

    def __post_init__(self) -> None:
        # numpy scalars slipped through here before PR 10; pin builtin
        # float/int so cached JSON payloads serialize identically
        # everywhere (mirrors FaultSimResult's array-dtype canon)
        for f, caster in (
            ("goodput_core_hours", float),
            ("wasted_core_hours", float),
            ("effective_util", float),
            ("completed_fraction", float),
            ("failed_fraction", float),
            ("killed_fraction", float),
            ("mean_attempts", float),
            ("max_attempts", int),
            ("mean_wait", float),
            ("n_jobs", int),
        ):
            object.__setattr__(self, f, caster(getattr(self, f)))

    @property
    def waste_share(self) -> float:
        """Wasted fraction of all occupied core-hours."""
        total = self.goodput_core_hours + self.wasted_core_hours
        return self.wasted_core_hours / total if total > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table rendering / JSON export."""
        return {
            "goodput_core_hours": self.goodput_core_hours,
            "wasted_core_hours": self.wasted_core_hours,
            "effective_util": self.effective_util,
            "completed_fraction": self.completed_fraction,
            "failed_fraction": self.failed_fraction,
            "killed_fraction": self.killed_fraction,
            "mean_attempts": self.mean_attempts,
            "max_attempts": self.max_attempts,
            "mean_wait": self.mean_wait,
            "n_jobs": self.n_jobs,
        }


def compute_resilience_metrics(result: FaultSimResult) -> ResilienceMetrics:
    """Goodput/waste accounting of a :func:`simulate_with_faults` run."""
    from ..traces.schema import JobStatus

    goodput = result.goodput_core_seconds
    wasted = result.wasted_core_seconds
    makespan = result.makespan
    available = result.capacity * makespan
    status = result.status
    return ResilienceMetrics(
        goodput_core_hours=goodput / 3600.0,
        wasted_core_hours=wasted / 3600.0,
        effective_util=goodput / available if available > 0 else 0.0,
        completed_fraction=float((status == int(JobStatus.PASSED)).mean()),
        failed_fraction=float((status == int(JobStatus.FAILED)).mean()),
        killed_fraction=float((status == int(JobStatus.KILLED)).mean()),
        mean_attempts=float(result.attempts.mean()),
        max_attempts=int(result.attempts.max()),
        mean_wait=float(result.wait.mean()),
        n_jobs=result.workload.n,
    )


def observed_metrics(trace, bound: float = BSLD_BOUND) -> ScheduleMetrics:
    """Metrics of a trace's *recorded* schedule (no simulation).

    Uses the trace's observed waits directly, so simulated policies can be
    compared against what the production scheduler actually did.
    Utilization is measured over the submission window; violation is not
    observable from a trace and reported as 0.
    """
    wait = trace["wait_time"]
    runtime = trace["runtime"]
    cores = trace["cores"]
    bsld = bounded_slowdown(wait, runtime, bound)
    span = max(trace.span_seconds, 1.0)
    util = float(
        (cores * runtime).sum() / (trace.system.schedulable_units * span)
    )
    return ScheduleMetrics(
        wait=float(wait.mean()),
        bsld=float(bsld.mean()),
        util=min(util, 1.0),
        violation=0.0,
        violation_count=0,
        n_jobs=trace.num_jobs,
    )
