"""Canonical job-trace schema.

Every analysis in :mod:`repro.core` and every simulation in
:mod:`repro.sched` consumes a :class:`Trace`: a :class:`~repro.frame.Frame`
with the canonical columns below plus the :class:`SystemSpec` of the cluster
the jobs ran on.  This mirrors the paper's "dataset alignment" step (§II-B):
only the attributes common across all five systems are kept.

Canonical columns (all times in seconds since trace start):

=================  =======  ====================================================
column             dtype    meaning
=================  =======  ====================================================
``job_id``         int64    unique id within the trace
``user_id``        int64    submitting user (``-1`` when unknown; 0 is a real id)
``submit_time``    float64  submission timestamp
``wait_time``      float64  queue wait observed in the source system
``runtime``        float64  actual execution time
``cores``          int64    requested cores (CPUs for HPC, GPUs for DL systems)
``req_walltime``   float64  user-requested wall time (NaN when unavailable)
``status``         int64    :class:`JobStatus` code
``vc``             int64    virtual-cluster id (0 when none; ``-1`` when unknown)
=================  =======  ====================================================
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..frame import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .systems import SystemSpec

__all__ = ["JobStatus", "Trace", "CANONICAL_COLUMNS", "REQUIRED_COLUMNS"]


class JobStatus(enum.IntEnum):
    """Final job status, aligned across systems per the paper's §IV-A.

    ``PASSED``  — finished normally.
    ``FAILED``  — aborted by a technical fault (SIGABRT/SIGSEGV class).
    ``KILLED``  — terminated externally (SIGTERM/SIGKILL class, incl.
    user cancellation and walltime kills).
    """

    PASSED = 0
    FAILED = 1
    KILLED = 2

    @property
    def label(self) -> str:
        """Capitalized display label as used in the paper's figures."""
        return self.name.capitalize()


CANONICAL_COLUMNS: tuple[str, ...] = (
    "job_id",
    "user_id",
    "submit_time",
    "wait_time",
    "runtime",
    "cores",
    "req_walltime",
    "status",
    "vc",
)

#: Columns that must be present; the rest are filled with defaults.
REQUIRED_COLUMNS: tuple[str, ...] = (
    "submit_time",
    "runtime",
    "cores",
)


@dataclass
class Trace:
    """A job trace bound to the system it was collected on."""

    system: "SystemSpec"
    jobs: Frame
    #: free-form provenance (generator seed, source file, time window...)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [c for c in REQUIRED_COLUMNS if c not in self.jobs]
        if missing:
            raise ValueError(f"trace missing required columns {missing}")
        self.jobs = _fill_defaults(self.jobs)

    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs in the trace."""
        return self.jobs.num_rows

    @property
    def span_seconds(self) -> float:
        """Time between the first and last submission."""
        if self.num_jobs == 0:
            return 0.0
        t = self.jobs["submit_time"]
        return float(t.max() - t.min())

    def __getitem__(self, column: str) -> np.ndarray:
        return self.jobs[column]

    def filter(self, mask: np.ndarray) -> "Trace":
        """Trace restricted to rows where ``mask`` holds."""
        return Trace(self.system, self.jobs.filter(mask), dict(self.meta))

    def sorted_by_submit(self) -> "Trace":
        """Trace with rows in submission order.

        A trace whose ``submit_time`` is already non-decreasing comes back
        sharing its column arrays, as :meth:`Frame.select` does: a stable
        sort of such a column is the identity permutation, so only the
        copy is saved.  A NaN fails the ``>=`` test, so a trace with one
        (and more than one row) is sorted as before.
        """
        t = self.jobs["submit_time"]
        if not np.all(t[1:] >= t[:-1]):
            return Trace(
                self.system, self.jobs.sort_by("submit_time"), dict(self.meta)
            )
        out = copy.copy(self)  # skips __post_init__, whose casts would copy
        out.jobs = self.jobs.select(self.jobs.column_names)
        out.meta = dict(self.meta)
        return out

    def core_hours(self) -> np.ndarray:
        """Per-job consumed core-hours (runtime × cores)."""
        return self.jobs["runtime"] * self.jobs["cores"] / 3600.0

    def turnaround(self) -> np.ndarray:
        """Per-job turnaround (wait + runtime)."""
        return self.jobs["wait_time"] + self.jobs["runtime"]

    def arrival_intervals(self) -> np.ndarray:
        """Deltas between consecutive submissions (submission order)."""
        t = np.sort(self.jobs["submit_time"])
        return np.diff(t)

    def status_mask(self, status: JobStatus) -> np.ndarray:
        """Boolean mask of jobs with the given final status."""
        return self.jobs["status"] == int(status)

    def window(self, start: float, end: float) -> "Trace":
        """Jobs submitted in ``[start, end)``."""
        t = self.jobs["submit_time"]
        return self.filter((t >= start) & (t < end))


def _fill_defaults(jobs: Frame) -> Frame:
    """Add any missing optional canonical columns with default values."""
    n = jobs.num_rows
    out = jobs
    if "job_id" not in out:
        out = out.with_column("job_id", np.arange(n, dtype=np.int64))
    if "user_id" not in out:
        out = out.with_column("user_id", np.zeros(n, dtype=np.int64))
    if "wait_time" not in out:
        out = out.with_column("wait_time", np.zeros(n, dtype=float))
    if "req_walltime" not in out:
        out = out.with_column("req_walltime", np.full(n, np.nan))
    if "status" not in out:
        out = out.with_column(
            "status", np.full(n, int(JobStatus.PASSED), dtype=np.int64)
        )
    if "vc" not in out:
        out = out.with_column("vc", np.zeros(n, dtype=np.int64))
    # enforce dtypes on the numeric core
    out = out.with_column("submit_time", out["submit_time"].astype(float))
    out = out.with_column("runtime", out["runtime"].astype(float))
    out = out.with_column("cores", out["cores"].astype(np.int64))
    return out
