"""Simulation job model and trace conversion.

The simulator works on plain NumPy arrays (struct-of-arrays) for speed; a
:class:`SimWorkload` bundles them.  :func:`workload_from_trace` converts a
:class:`~repro.traces.Trace` into simulator input, replaying the *submit
times, sizes, runtimes and requested walltimes* while letting the simulator
decide starts (the paper's SchedGym methodology: "schedule the exact job
traces using different scheduling strategies").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.schema import JobStatus, Trace

__all__ = ["SimWorkload", "workload_from_trace"]


@dataclass
class SimWorkload:
    """Struct-of-arrays job stream for the simulator (sorted by submit)."""

    submit: np.ndarray
    cores: np.ndarray
    runtime: np.ndarray
    walltime: np.ndarray
    user: np.ndarray
    #: recorded terminal :class:`~repro.traces.schema.JobStatus` codes; the
    #: fault injector calibrates intrinsic failure mixes from them.  All
    #: PASSED when the source carries no status information.
    status: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.submit)
        if self.status is None:
            self.status = np.full(n, int(JobStatus.PASSED), dtype=np.int64)
        else:
            self.status = np.asarray(self.status).astype(np.int64)
        for name in ("cores", "runtime", "walltime", "user", "status"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        # the one input boundary every engine shares: NaN/inf times would
        # hang the readable loops and silently mis-schedule the vectorized
        # ones, so reject them here, naming the field
        for name in ("submit", "runtime", "walltime"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name}: non-finite values (NaN or inf)")
        cores = np.asarray(self.cores)
        if cores.dtype.kind not in "iu" and not np.all(
            np.isfinite(cores) & (cores == np.floor(cores))
        ):
            raise ValueError("cores: non-integral core requests")
        if n and np.any(np.diff(self.submit) < 0):
            raise ValueError("submit times must be sorted ascending")
        if np.any(self.runtime < 0):
            raise ValueError("negative runtimes")
        if np.any(self.cores <= 0):
            raise ValueError("non-positive core requests")
        # walltime is the scheduler's runtime estimate; it can never be
        # below the actual runtime here because the simulator kills at
        # walltime and we replay recorded runtimes.
        self.walltime = np.maximum(self.walltime, self.runtime)

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.submit)

    def slice(self, limit: int) -> "SimWorkload":
        """First ``limit`` jobs (for benches and tests)."""
        return SimWorkload(
            submit=self.submit[:limit],
            cores=self.cores[:limit],
            runtime=self.runtime[:limit],
            walltime=self.walltime[:limit],
            user=self.user[:limit],
            status=self.status[:limit],
        )

    def clipped_to_walltime(self) -> "SimWorkload":
        """Effective workload when the scheduler kills jobs at walltime.

        Runtimes are truncated to the (possibly predicted, possibly too
        short) walltime — the shared ``kill_at_walltime`` semantics of the
        EASY and conservative engines, so :attr:`SimResult.end` reflects
        the truncated runtimes in both.
        """
        return SimWorkload(
            submit=self.submit,
            cores=self.cores,
            runtime=np.minimum(self.runtime, self.walltime),
            walltime=self.walltime,
            user=self.user,
            status=self.status,
        )


def workload_from_trace(
    trace: Trace, walltime_fallback_factor: float = 2.0
) -> SimWorkload:
    """Convert a trace into simulator input.

    Jobs whose ``req_walltime`` is missing get ``runtime *
    walltime_fallback_factor`` (the paper's Table II skips DL traces
    precisely because they carry no walltimes; the fallback keeps the
    simulator usable on them for ablations).
    """
    jobs = trace.sorted_by_submit().jobs
    runtime = jobs["runtime"].astype(float)
    wall = jobs["req_walltime"].astype(float)
    missing = ~np.isfinite(wall)
    wall = np.where(missing, runtime * walltime_fallback_factor, wall)
    capacity = trace.system.schedulable_units
    cores = jobs["cores"].astype(np.int64)
    if capacity > 0 and np.any(cores > capacity):
        raise ValueError(
            "workload contains jobs larger than the system; validate the trace"
        )
    return SimWorkload(
        submit=jobs["submit_time"].astype(float),
        cores=cores,
        runtime=runtime,
        walltime=wall,
        user=jobs["user_id"].astype(np.int64),
        status=jobs["status"].astype(np.int64),
    )
