"""One fresh benchmark process: import ``repro``, set up, run, check.

``run.py`` starts this script once per measurement, with ``src`` on
``PYTHONPATH``::

    python3 perfbench/worker.py --workload W --seed N --mode M \\
        --seconds S --workdir DIR [--spans-out FILE]

Modes:

* ``setup`` — import and build the inputs, then exit (a set-up sample).
* ``run``   — set up, then repeat the untraced body over the workload's
  parts in turn, in whole cycles, and stop on the cycle boundary closest
  to ``S`` seconds (at least one cycle), checking every repetition's
  outputs after its timer stops.
* ``trace`` — set up under the span recorder, then alternate untraced and
  traced cycles (whole pairs, as above) and derive the per-layer metrics from
  the set-up spans and the first traced cycle.

The last line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_repro() -> tuple[object, float]:
    t0 = time.perf_counter()
    import workloads  # imports every repro layer the workloads drive

    return workloads, time.perf_counter() - t0


ENGINES = ("relaxed", "adaptive", "easy_sjf", "faults", "conservative")


def merge_times(times: list[dict]) -> dict:
    """Sum per-span-name slots (self time, calls, counts) over several bodies;
    a ``max_*`` count keeps its largest value instead."""
    merged: dict[str, dict] = {}
    for body in times:
        for name, slot in body.items():
            into = merged.setdefault(name, {})
            for key, value in slot.items():
                if key.startswith("max_"):
                    into[key] = max(into.get(key, value), value)
                else:
                    into[key] = into.get(key, 0) + value
    return merged


def layer_metrics(
    setup_times: dict,
    body_times: dict,
    import_s: float,
    run_s: float,
    traced_run_s: float,
    cycle_s: float,
) -> dict[str, float]:
    """Per-layer metrics from the self times of set-up and one traced cycle.

    ``cycle_s`` is the untraced time of one cycle over every part: the sum
    of each part's median untraced repetition.
    """
    from workloads import MODEL_NAMES, STUDY_METHODS

    merged = merge_times([setup_times, body_times])

    def self_s(name: str) -> float:
        return float(merged.get(name, {}).get("self_s", 0.0))

    def count(name: str, key: str) -> int:
        return int(merged.get(name, {}).get(key, 0))

    m = {
        "import.repro_s": import_s,
        "traces.synth.generate_s": self_s("traces.synth.generate"),
        "traces.synth.jobs": count("traces.synth.generate", "jobs"),
        "traces.swf.write_s": self_s("traces.swf.write"),
        "traces.swf.read_s": self_s("traces.swf.read"),
        "traces.swf.rows": count("traces.swf.read", "rows"),
    }
    for name in STUDY_METHODS + ("report_render",):
        m[f"core.{name}_s"] = self_s(f"core.{name}")
    m["predict.build_dataset_s"] = self_s("predict.build_dataset")
    m["predict.augment_s"] = self_s("predict.augment")
    m["predict.harness_s"] = self_s("predict.use_case1")
    for model in MODEL_NAMES:
        m[f"ml.{model}.fit_s"] = self_s(f"ml.{model}.fit")
        m[f"ml.{model}.predict_s"] = self_s(f"ml.{model}.predict")
        m[f"ml.{model}.fits"] = count(f"ml.{model}.fit", "fits")
        m[f"ml.{model}.train_rows"] = count(f"ml.{model}.fit", "train_rows")
    m["sched.workload_from_trace_s"] = self_s("sched.workload_from_trace")
    jobs = 0
    for engine in ENGINES:
        seconds = self_s(f"sched.{engine}")
        n = count(f"sched.{engine}", "jobs")
        m[f"sched.{engine}_s"] = seconds
        m[f"sched.{engine}_us_per_job"] = 1e6 * seconds / n if n else 0.0
        jobs += n
    m["sched.jobs"] = jobs
    m["sched.max_queue"] = count("sched.relaxed", "max_queue")
    fault_jobs = count("sched.faults", "jobs")
    m["sched.faults.attempts_per_job"] = (
        count("sched.faults", "attempts") / fault_jobs if fault_jobs else 0.0
    )
    m["sched.metrics_s"] = self_s("sched.metrics")

    unattributed = float(body_times.get("bench.body", {}).get("self_s", 0.0))
    layers_s = sum(
        slot["self_s"] for name, slot in body_times.items() if name != "bench.body"
    )
    m["bench.run_s"] = run_s
    m["bench.traced_run_s"] = traced_run_s
    m["bench.trace_overhead_frac"] = traced_run_s / run_s - 1.0
    m["bench.unattributed_s"] = unattributed
    m["bench.spans"] = sum(slot["calls"] for slot in body_times.values())
    m["bench.accounted_frac"] = layers_s / cycle_s
    return m


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if one is found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, wl, jobs: list) -> dict:
    import numpy
    import scipy
    from repro.runner import code_version

    return {
        "workload": wl.name,
        "seed": args.seed,
        "mode": args.mode,
        "run_seconds": args.seconds,
        "sizes": wl.sizes,
        "jobs": jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "code_version": code_version(),
    }


def run_body(wl, inputs: dict, rec) -> tuple[dict, float]:
    t0 = time.perf_counter()
    with rec.span("bench.body"):
        outputs = wl.body(inputs, rec)
    return outputs, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    workloads, import_s = _import_repro()
    from spans import NULL, SpanRecorder, self_times

    wl = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    traced = args.mode == "trace"
    setup_rec = SpanRecorder() if traced else NULL
    if traced:
        wl.patch(setup_rec)
    try:
        with setup_rec.span("bench.setup"):
            inputs = wl.setup(args.seed, args.workdir, setup_rec)
    finally:
        if traced:
            setup_rec.unpatch()
    setup_s = time.perf_counter() - t0
    result: dict = {"import_s": import_s, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    stored = workloads.load_expected()
    expected = stored.get(wl.name) if args.seed == stored["seed"] else None
    n_parts = len(inputs)
    run_s: list[float] = []
    traced_run_s: list[float] = []
    part_run_s: list[list[float]] = [[] for _ in range(n_parts)]
    recorders: list[SpanRecorder] = []
    checks: list[tuple[str, bool]] = []
    first_prints: list = [None] * n_parts
    jobs: list = [None] * n_parts
    unit = 2 if traced else 1
    loop_start = unit_start = time.perf_counter()
    rep = 0
    while True:
        part, cycle = rep % n_parts, rep // n_parts
        traced_rep = traced and cycle % 2 == 1
        rec = SpanRecorder() if traced_rep else NULL
        if traced_rep:
            wl.patch(rec)
            recorders.append(rec)
        try:
            outputs, seconds = run_body(wl, inputs[part], rec)
        finally:
            if traced_rep:
                rec.unpatch()
        if traced_rep:
            traced_run_s.append(seconds)
        else:
            run_s.append(seconds)
            part_run_s[part].append(seconds)
        # ---- checks: outside the timed body --------------------------------
        checks += wl.check(
            outputs, inputs[part], expected[part] if expected is not None else None
        )
        fingerprint = wl.fingerprint(outputs)
        if first_prints[part] is None:
            first_prints[part] = fingerprint
            jobs[part] = wl.jobs(inputs[part], outputs)
        else:
            checks.append(
                (f"{wl.name}.repeat_identical", fingerprint == first_prints[part])
            )
        del outputs
        gc.collect()
        rep += 1
        # a unit is one cycle over the parts (traced: an untraced/traced pair
        # of cycles); stop on the unit boundary closest to ``--seconds``
        if rep % (unit * n_parts) == 0:
            now = time.perf_counter()
            if now - loop_start >= args.seconds - (now - unit_start) / 2:
                break
            unit_start = now

    result.update(
        {
            "run_s": run_s,
            "traced_run_s": traced_run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks": checks,
            "fingerprint": first_prints,
            "provenance": provenance(args, wl, jobs),
        }
    )
    if traced:
        result["layers"] = layer_metrics(
            self_times(setup_rec.spans),
            merge_times([self_times(r.spans) for r in recorders[:n_parts]]),
            import_s,
            statistics.median(run_s),
            statistics.median(traced_run_s),
            sum(statistics.median(times) for times in part_run_s),
        )
        if args.spans_out is not None:
            phases = [("setup", setup_rec)] + [
                (f"body{i}", r) for i, r in enumerate(recorders)
            ]
            args.spans_out.write_text(
                json.dumps(
                    [
                        {"phase": phase, **dataclasses.asdict(span)}
                        for phase, r in phases
                        for span in r.spans
                    ]
                )
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
