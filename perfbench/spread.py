"""Seed-sensitivity sweep: run the benchmark on several seeds per workload.

Run from the repository root::

    python3 perfbench/spread.py --workloads study predict replay --seeds 0 1 2 3 4

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  The sweep is saved under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["study", "predict", "replay"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 3) for k, v in values.items()},
                  "failed", result["failed"], flush=True)
        stats = {name: spread(v) for name, v in values.items()}
        summary["workloads"][workload] = {"failed": failed, "metrics": stats}
        for name, s in stats.items():
            print(
                f"{workload:8s} {name:12s} median {s['median']:9.3f} "
                f"q1 {s['q1']:9.3f} q3 {s['q3']:9.3f} "
                f"iqr/median {s['iqr_share']:.4f} (bound {bounds[name]})",
                flush=True,
            )
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = HERE / "out" / f"spread-{stamp}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"saved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
