"""The repository benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload {study,predict,replay} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics untraced: ``setup_s`` is the
median of ``SETUPS`` fresh-process set-ups, ``run_s`` the median body
repetition of a fresh worker that repeats the body over the workload's
parts in whole cycles for about ``S`` seconds, and ``peak_rss_mb`` that
worker's peak resident memory.  ``--trace 1`` runs a worker that
alternates untraced and traced cycles and prints the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also
leaves a record and its provenance manifest under ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: a run must end within this many seconds, build included
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure (missing source, worker crash)."""


def worker_env() -> dict[str, str]:
    """Environment for workers: ``src`` importable, no more threads than CPUs."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def call(cmd: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run deadline: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited {proc.returncode}: {cmd}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(checks: list) -> tuple[int, int]:
    """``(attempted, failed)``: every check is one operation."""
    return len(checks), sum(1 for _, ok in checks if not ok)


def worker_cmd(args, mode: str, workdir: Path, spans_out: Path | None = None) -> list[str]:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    return cmd


def write_new(path: Path, payload: dict) -> None:
    """Write JSON to a file that must not exist yet (records never overwrite)."""
    with open(path, "x") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    workdir = OUT / f"work-{name}"
    spans_out = OUT / f"{name}.spans.json" if args.trace else None
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                r = call(worker_cmd(args, "setup", workdir / f"setup{i}"), deadline)
                setups.append(r["setup_s"])
        mode = "trace" if args.trace else "run"
        main = call(worker_cmd(args, mode, workdir / mode, spans_out), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main["setup_s"])

    attempted, failed = tally(main["checks"])
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = main["layers"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(main["run_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    if set(values) != set(wanted):
        raise BenchError(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items()},
    }
    record = OUT / f"{name}.json"
    write_new(
        record,
        {
            **result,
            "samples": {
                "setup_s": setups,
                "run_s": main["run_s"],
                "traced_run_s": main["traced_run_s"],
            },
            "failed_checks": [n for n, ok in main["checks"] if not ok],
            "fingerprint": main["fingerprint"],
        },
    )
    write_new(
        record.with_name(record.name + ".manifest.json"),
        {
            "record": record.name,
            "spans": spans_out.name if spans_out else None,
            "command": sys.argv,
            "setups": SETUPS,
            "repetitions": len(main["run_s"]) + len(main["traced_run_s"]),
            "checks": attempted,
            **main["provenance"],
        },
    )
    return result


def self_test() -> int:
    cmd = [sys.executable, str(HERE / "selftest.py")]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=DEADLINE_S)
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("study", "predict", "replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        result = measure(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
