"""The benchmark's three workloads, one per path of the paper.

Each workload has a ``setup`` (inputs from the seed, as a list of parts;
not timed as run time), a ``body`` (the timed work on one part), a
``check`` (output checks, run after the timer stops) and a
``fingerprint`` (the outputs' identity: digests or values, stored per part
for the default seed in ``expected.json``).  A run repeats the body over
the parts in turn and ends on a whole cycle, so every part counts equally.
``patch`` installs the span wrappers a traced run needs on library entry
points that the library calls internally.

* ``study``   — the characterization: five systems over a two-month window,
  then every Fig 1-11 analysis and the eight takeaways (``build_report``).
* ``predict`` — use case 1 (Fig 12) on 30-day Theta and Philly traces.
* ``replay``  — use case 2 / ``repro simulate``: 20 one-day Blue Waters
  SWFs written at set-up; each repetition reads one and replays it through
  the fast engine family.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.report import build_report
from repro.core.study import CrossSystemStudy
from repro.predict import harness
from repro.predict.models import MODEL_NAMES, RuntimePredictor
from repro import sched
from repro.testkit.invariants import check_fault_result, check_result
from repro.traces import swf
from repro.traces.synth import generator

__all__ = ["WORKLOADS", "Workload", "load_expected"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

STUDY_DAYS = 60.0
PREDICT_DAYS = 30.0
PREDICT_SYSTEMS = ("theta", "philly")
PREDICT_FRACTION = 0.25
#: chronological prefix of each trace that the protocol keeps
PREDICT_MAX_JOBS = 2_500
#: absolute tolerance on Fig 12 rates against the stored default-seed
#: values; exact matches are expected today, but an analytic Tobit
#: gradient moves results at the L-BFGS tolerance, which flips the few
#: test jobs whose prediction sits on the underestimation boundary
PREDICT_TOLERANCE = 0.01
REPLAY_SYSTEM = "blue_waters"
#: independent one-day traces per seed (sub-seeds ``seed * REPLAY_TRACES + i``);
#: engine cost follows each trace's queue bursts, so one trace per seed
#: swings ``run_s`` by seed while the median over many traces does not
REPLAY_TRACES = 20
REPLAY_DAYS = 1.0
#: conservative backfilling replays this prefix of every trace
REPLAY_CONSERVATIVE_JOBS = 1_000
RELAX_BASE = 0.1
FAULT_KNOBS = {"node_mtbf": 30 * 86400.0, "n_nodes": 64, "max_attempts": 3}


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def load_expected() -> dict:
    """Stored default-seed outputs (``expected.json``)."""
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------- study ----
REPORT_SECTIONS = (
    "## Traces",
    "## Job geometries (Fig 1)",
    "## Core-hour domination (Fig 2)",
    "## Utilization (Fig 3)",
    "## Waiting time (Fig 4, 5)",
    "## Failures (Fig 6, 7)",
    "## User behaviour (Fig 8-10)",
    "## Takeaways",
)
#: one evaluated takeaway line of the report
TAKEAWAY_LINE = re.compile(
    r"^- Takeaway (\d+): .* — \*\*(?:HOLDS|DOES NOT HOLD)\*\*$", re.MULTILINE
)
STUDY_METHODS = (
    "geometry",
    "core_hours",
    "utilization",
    "waiting",
    "waiting_by_class",
    "failures",
    "repetition",
    "size_vs_queue",
    "takeaways",
)


def _generate_counts(trace, *args, **kwargs) -> dict:
    return {"jobs": trace.num_jobs}


def study_patch(rec) -> None:
    rec.patch(generator, "generate_trace", "traces.synth.generate", _generate_counts)
    for method in STUDY_METHODS:
        rec.patch(CrossSystemStudy, method, f"core.{method}")


def study_setup(seed: int, workdir: Path, rec) -> list[dict]:
    return [{"seed": seed, "days": STUDY_DAYS}]


def study_body(inputs: dict, rec) -> dict:
    study = CrossSystemStudy.generate(days=inputs["days"], seed=inputs["seed"])
    with rec.span("core.report_render"):
        report = build_report(study)
    return {
        "report": report,
        "jobs": {name: t.num_jobs for name, t in study.traces.items()},
    }


def study_fingerprint(outputs: dict) -> dict:
    return {"report_sha256": hashlib.sha256(outputs["report"].encode()).hexdigest()}


def study_check(outputs: dict, inputs: dict, expected: dict | None) -> list:
    report = outputs["report"]
    numbers = sorted(int(m.group(1)) for m in TAKEAWAY_LINE.finditer(report))
    checks = [
        ("study.systems", len(outputs["jobs"]) == 5 and min(outputs["jobs"].values()) > 0),
        ("study.sections", all(s in report for s in REPORT_SECTIONS)),
        ("study.takeaways", numbers == list(range(1, 9))),
    ]
    if expected is not None:
        checks.append(("study.report_digest", study_fingerprint(outputs) == expected))
    return checks


def study_jobs(inputs: dict, outputs: dict) -> dict:
    return dict(outputs["jobs"])


# -------------------------------------------------------------- predict ----
def predict_patch(rec) -> None:
    rec.patch(generator, "generate_trace", "traces.synth.generate", _generate_counts)
    rec.patch(harness, "build_dataset", "predict.build_dataset")
    rec.patch(harness, "augment_with_checkpoints", "predict.augment")
    rec.patch(
        RuntimePredictor,
        "fit",
        lambda self, data, X: f"ml.{self.name}.fit",
        lambda result, self, data, X: {"fits": 1, "train_rows": int(X.shape[0])},
    )
    rec.patch(
        RuntimePredictor,
        "predict",
        lambda self, data, X: f"ml.{self.name}.predict",
        lambda result, self, data, X: {"rows": int(X.shape[0])},
    )


def predict_setup(seed: int, workdir: Path, rec) -> list[dict]:
    return [
        {
            "traces": {
                name: generator.generate_trace(name, days=PREDICT_DAYS, seed=seed)
                for name in PREDICT_SYSTEMS
            }
        }
    ]


def predict_body(inputs: dict, rec) -> dict:
    cells = {}
    for name, trace in inputs["traces"].items():
        with rec.span("predict.use_case1"):
            comparison = harness.run_use_case1(
                trace, fractions=(PREDICT_FRACTION,), max_jobs=PREDICT_MAX_JOBS
            )
        for r in comparison.results:
            cells[f"{name}/{r.model}/{r.arm}"] = [
                r.underestimate_rate,
                r.avg_accuracy,
                r.n_test,
            ]
    return {"cells": cells}


def predict_fingerprint(outputs: dict) -> dict:
    return {"cells": outputs["cells"]}


def predict_check(outputs: dict, inputs: dict, expected: dict | None) -> list:
    cells = outputs["cells"]
    names = [
        f"{s}/{m}/{arm}"
        for s in PREDICT_SYSTEMS
        for m in MODEL_NAMES
        for arm in ("baseline", "elapsed")
    ]
    checks = [("predict.cells", sorted(cells) == sorted(names))]
    for key, (under, acc, n_test) in cells.items():
        valid = (
            math.isfinite(under)
            and math.isfinite(acc)
            and 0.0 <= under <= 1.0
            and 0.0 <= acc <= 1.0
            and n_test > 0
        )
        checks.append((f"predict.valid.{key}", valid))
    if expected is not None:
        for key, (under, acc, n_test) in expected["cells"].items():
            got = cells.get(key)
            ok = (
                got is not None
                and got[2] == n_test
                and abs(got[0] - under) <= PREDICT_TOLERANCE
                and abs(got[1] - acc) <= PREDICT_TOLERANCE
            )
            checks.append((f"predict.expected.{key}", ok))
    return checks


def predict_jobs(inputs: dict, outputs: dict) -> dict:
    return {name: t.num_jobs for name, t in inputs["traces"].items()}


# --------------------------------------------------------------- replay ----
def replay_patch(rec) -> None:
    rec.patch(generator, "generate_trace", "traces.synth.generate", _generate_counts)


def replay_setup(seed: int, workdir: Path, rec) -> list[dict]:
    parts = []
    for i in range(REPLAY_TRACES):
        sub_seed = seed * REPLAY_TRACES + i
        trace = generator.generate_trace(REPLAY_SYSTEM, days=REPLAY_DAYS, seed=sub_seed)
        path = workdir / f"{REPLAY_SYSTEM}-{i}.swf"
        with rec.span("traces.swf.write", rows=trace.num_jobs):
            swf.write_swf(trace, path)
        parts.append({"path": path, "rows": trace.num_jobs, "seed": sub_seed})
    return parts


def replay_body(inputs: dict, rec) -> dict:
    with rec.span("traces.swf.read") as c:
        trace = swf.read_swf(inputs["path"])
        c["rows"] = trace.num_jobs
    with rec.span("sched.workload_from_trace"):
        workload = sched.workload_from_trace(trace)
    capacity = trace.system.schedulable_units
    prefix = workload.slice(REPLAY_CONSERVATIVE_JOBS)

    with rec.span("sched.relaxed", jobs=workload.n) as c:
        relaxed = sched.simulate_fast(
            workload, capacity, "fcfs", sched.relaxed(RELAX_BASE), track_queue=True
        )
        max_queue = int(relaxed.queue_samples.max()) if len(relaxed.queue_samples) else 0
        c["max_queue"] = max_queue
    with rec.span("sched.adaptive", jobs=workload.n):
        adaptive = sched.simulate_fast(
            workload,
            capacity,
            "fcfs",
            sched.adaptive_relaxed(RELAX_BASE, max_queue_len=max_queue or None),
        )
    with rec.span("sched.easy_sjf", jobs=workload.n):
        easy_sjf = sched.simulate_fast(workload, capacity, "sjf", sched.EASY)
    faults = sched.FaultConfig.from_workload(workload, seed=inputs["seed"], **FAULT_KNOBS)
    with rec.span("sched.faults", jobs=workload.n) as c:
        faulty = sched.simulate_fast_with_faults(
            workload, capacity, "fcfs", sched.EASY, faults
        )
        c["attempts"] = int(faulty.attempts.sum())
    with rec.span("sched.conservative", jobs=prefix.n):
        conservative = sched.simulate_fast_conservative(prefix, capacity, "fcfs")

    schedules = {
        "relaxed": relaxed,
        "adaptive": adaptive,
        "easy_sjf": easy_sjf,
        "conservative": conservative,
    }
    with rec.span("sched.metrics"):
        metrics = {k: sched.compute_metrics(r) for k, r in schedules.items()}
        resilience = sched.compute_resilience_metrics(faulty)
    return {
        "rows": trace.num_jobs,
        "max_queue": max_queue,
        "schedules": schedules,
        "faulty": faulty,
        "metrics": metrics,
        "resilience": resilience,
    }


def replay_fingerprint(outputs: dict) -> dict:
    digests = {k: _sha(r.start, r.promised) for k, r in outputs["schedules"].items()}
    f = outputs["faulty"]
    digests["faults"] = _sha(f.start, f.end, f.status, f.attempts)
    return {"schedules": digests}


def replay_check(outputs: dict, inputs: dict, expected: dict | None) -> list:
    checks = [
        ("replay.swf_rows", outputs["rows"] == inputs["rows"]),
        ("replay.max_queue", outputs["max_queue"] > 0),
    ]
    for key, result in outputs["schedules"].items():
        checks.append((f"replay.invariants.{key}", check_result(result) == []))
        m = outputs["metrics"][key]
        checks.append(
            (
                f"replay.metrics.{key}",
                math.isfinite(m.wait) and math.isfinite(m.bsld) and 0.0 < m.util <= 1.0,
            )
        )
    checks.append(("replay.invariants.faults", check_fault_result(outputs["faulty"]) == []))
    r = outputs["resilience"]
    checks.append(("replay.metrics.faults", 0.0 < r.completed_fraction <= 1.0))
    if expected is not None:
        digests = replay_fingerprint(outputs)["schedules"]
        for key, want in expected["schedules"].items():
            checks.append((f"replay.digest.{key}", digests.get(key) == want))
    return checks


def replay_jobs(inputs: dict, outputs: dict) -> dict:
    return {
        REPLAY_SYSTEM: inputs["rows"],
        "conservative_prefix": int(outputs["schedules"]["conservative"].workload.n),
    }


# ------------------------------------------------------------- registry ----
@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    patch: Callable
    setup: Callable
    body: Callable
    check: Callable
    fingerprint: Callable
    jobs: Callable


WORKLOADS = {
    "study": Workload(
        "study",
        {"days": STUDY_DAYS, "systems": 5},
        study_patch,
        study_setup,
        study_body,
        study_check,
        study_fingerprint,
        study_jobs,
    ),
    "predict": Workload(
        "predict",
        {
            "days": PREDICT_DAYS,
            "systems": list(PREDICT_SYSTEMS),
            "fraction": PREDICT_FRACTION,
            "max_jobs": PREDICT_MAX_JOBS,
            "models": list(MODEL_NAMES),
            "tolerance": PREDICT_TOLERANCE,
        },
        predict_patch,
        predict_setup,
        predict_body,
        predict_check,
        predict_fingerprint,
        predict_jobs,
    ),
    "replay": Workload(
        "replay",
        {
            "system": REPLAY_SYSTEM,
            "traces": REPLAY_TRACES,
            "days": REPLAY_DAYS,
            "conservative_jobs": REPLAY_CONSERVATIVE_JOBS,
            "relax_base": RELAX_BASE,
            "faults": FAULT_KNOBS,
        },
        replay_patch,
        replay_setup,
        replay_body,
        replay_check,
        replay_fingerprint,
        replay_jobs,
    ),
}
