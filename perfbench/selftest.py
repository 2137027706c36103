"""Benchmark self-test: a corrupted output must count as a failed operation.

Runs every workload's body on small inputs, checks that the clean outputs
pass every check (their own fingerprint standing in for the stored one),
then corrupts one output at a time and checks that the benchmark's failure
accounting (``run.tally``) counts the corruption under the expected check.
Exit status 0 means every corruption was caught.  Run it through
``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import workloads
from run import tally
from spans import NULL
from workloads import WORKLOADS, PREDICT_TOLERANCE
from repro.traces import swf
from repro.traces.synth import generator


def _small_inputs(name: str, workdir: Path) -> dict:
    """One small part of the workload's inputs."""
    if name == "study":
        return {"seed": 0, "days": 3.0}
    if name == "predict":
        return {
            "traces": {
                s: generator.generate_trace(s, days=2.0, seed=0)
                for s in workloads.PREDICT_SYSTEMS
            }
        }
    trace = generator.generate_trace(workloads.REPLAY_SYSTEM, days=1.0, seed=0)
    path = workdir / "replay.swf"
    swf.write_swf(trace, path)
    return {"path": path, "rows": trace.num_jobs, "seed": 0}


def _corruptions(name: str, outputs: dict):
    """Yield ``(label, corrupted outputs, check that must fail)``."""
    if name == "study":
        report = outputs["report"]
        dropped = "\n".join(
            line for line in report.splitlines() if not line.startswith("- Takeaway 8")
        )
        yield "takeaway dropped", {**outputs, "report": dropped}, "study.takeaways"
        flipped = report.replace("Takeaway 1", "Takeaway l", 1)
        yield "report byte changed", {**outputs, "report": flipped}, "study.report_digest"
    elif name == "predict":
        cells = outputs["cells"]
        key = sorted(cells)[0]
        bad = dict(cells)
        bad[key] = [1.5, cells[key][1], cells[key][2]]
        yield "rate above 1", {"cells": bad}, f"predict.valid.{key}"
        moved = dict(cells)
        moved[key] = [cells[key][0], cells[key][1] + 2 * PREDICT_TOLERANCE, cells[key][2]]
        yield "rate beyond tolerance", {"cells": moved}, f"predict.expected.{key}"
        missing = {k: v for k, v in cells.items() if k != key}
        yield "cell missing", {"cells": missing}, "predict.cells"
    else:
        schedules = outputs["schedules"]
        relaxed = schedules["relaxed"]
        start = relaxed.start.copy()
        start[0] = relaxed.workload.submit[0] - 1e6
        early = {**schedules, "relaxed": dataclasses.replace(relaxed, start=start)}
        yield "start before submit", {**outputs, "schedules": early}, "replay.invariants.relaxed"
        faulty = outputs["faulty"]
        attempts = faulty.attempts.copy()
        attempts[0] = 0
        yield (
            "zero attempts",
            {**outputs, "faulty": dataclasses.replace(faulty, attempts=attempts)},
            "replay.invariants.faults",
        )
        cons = schedules["conservative"]
        shifted = cons.start.copy()
        shifted[-1] += 1.0
        moved = {**schedules, "conservative": dataclasses.replace(cons, start=shifted)}
        yield "schedule moved", {**outputs, "schedules": moved}, "replay.digest.conservative"


def main() -> int:
    ok = True
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name, wl in WORKLOADS.items():
            inputs = _small_inputs(name, Path(tmp))
            outputs = wl.body(inputs, NULL)
            expected = wl.fingerprint(outputs)
            attempted, failed = tally(wl.check(outputs, inputs, expected))
            clean = failed == 0
            ok &= clean
            print(f"{name:8s} clean outputs: {attempted} checks, {failed} failed"
                  f" -> {'ok' if clean else 'FAIL'}")
            for label, bad, must_fail in _corruptions(name, outputs):
                checks = wl.check(bad, inputs, expected)
                attempted, failed = tally(checks)
                caught = failed >= 1 and (must_fail, False) in checks
                ok &= caught
                print(f"{name:8s} {label}: {attempted} checks, {failed} failed"
                      f" ({must_fail}) -> {'caught' if caught else 'MISSED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
