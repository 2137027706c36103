"""CLI entry point: ``python -m repro.experiments <id|all> [--days D] [--seed S]``."""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path

from . import REGISTRY, run_experiment
from .common import DEFAULT_DAYS, DEFAULT_SEED

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Run one or all experiments and print their reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="Experiments: "
        + "; ".join(f"{k} ({v[1]})" for k, v in REGISTRY.items()),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig1, table2) or 'all' / 'list'",
    )
    parser.add_argument(
        "--days",
        type=float,
        default=DEFAULT_DAYS,
        help=f"synthetic trace window in days (default {DEFAULT_DAYS})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="generator seed"
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=0,
        help="cap simulated jobs (experiments that take max_jobs; 0 = default)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        help="also write <exp>.txt and <exp>.json into DIR",
    )
    runner = parser.add_argument_group("parallel runner (docs/PARALLELISM.md)")
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-style experiments (results are "
        "bit-identical at any worker count)",
    )
    runner.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="on-disk result cache for sweep cells "
        "(layout: <dir>/<2-hex>/<fingerprint>.json)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir: recompute every cell",
    )
    crash = parser.add_argument_group(
        "crash safety (docs/PARALLELISM.md, 'Crash-safe sweeps')"
    )
    crash.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock limit enforced by the sweep watchdog",
    )
    crash.add_argument(
        "--on-error",
        choices=("raise", "skip", "retry"),
        default="raise",
        help="terminal cell failures: abort (raise), render FAILED rows "
        "and keep going (skip), or retry transient failures first (retry)",
    )
    crash.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per cell (first try included)",
    )
    crash.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help="append-only journal of completed cells; rerunning with the "
        "same journal replays them without recomputing",
    )
    tracing = parser.add_argument_group(
        "performance tracing (docs/OBSERVABILITY.md, 'Performance tracing')"
    )
    tracing.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the sweep (open in "
        "Perfetto / chrome://tracing)",
    )
    tracing.add_argument(
        "--stacks-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    tracing.add_argument(
        "--sample-hz",
        type=float,
        default=0.0,
        metavar="HZ",
        help="also run a sampling profiler in each worker at HZ samples/s "
        "(0 = spans only)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    if args.task_retries is not None and args.task_retries < 1:
        parser.error("--task-retries must be >= 1")
    if args.sample_hz < 0:
        parser.error("--sample-hz must be >= 0")
    if args.sample_hz > 0 and not (args.trace_out or args.stacks_out):
        parser.error("--sample-hz requires --trace-out or --stacks-out")
    perf = None
    if args.trace_out or args.stacks_out:
        from ..obs import PerfConfig

        perf = PerfConfig(
            sampler_hz=args.sample_hz,
            trace_out=args.trace_out,
            stacks_out=args.stacks_out,
        )

    if args.experiment == "list":
        for key, (_, desc) in REGISTRY.items():
            print(f"{key:8s} {desc}")
        return 0

    ids = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    cache = None
    if args.cache_dir is not None and not args.no_cache:
        # one shared ResultCache instance (run_sweep and the experiment
        # modules accept it wherever a cache dir is expected) so hit/miss
        # counters survive the call and can be reported per experiment
        from ..runner import ResultCache

        cache = ResultCache(args.cache_dir)
    for exp_id in ids:
        t0 = time.time()
        hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
        try:
            kwargs = {"days": args.days, "seed": args.seed}
            entry = REGISTRY.get(exp_id)
            params = (
                inspect.signature(entry[0].run).parameters if entry else {}
            )
            if args.max_jobs > 0 and "max_jobs" in params:
                kwargs["max_jobs"] = args.max_jobs
            if args.jobs > 1 and "jobs" in params:
                kwargs["jobs"] = args.jobs
            if cache is not None and "cache_dir" in params:
                kwargs["cache_dir"] = cache
            if args.task_timeout is not None and "timeout" in params:
                kwargs["timeout"] = args.task_timeout
            if args.on_error != "raise" and "on_error" in params:
                kwargs["on_error"] = args.on_error
            if args.task_retries is not None and "retries" in params:
                kwargs["retries"] = args.task_retries
            if args.journal is not None and "journal" in params:
                kwargs["journal"] = args.journal
            if perf is not None and "perf" in params:
                kwargs["perf"] = perf
            result = run_experiment(exp_id, **kwargs)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(result.render())
        if args.save:
            txt, js = result.save(args.save)
            print(f"(saved {txt} and {js})")
        if cache is not None and "cache_dir" in params:
            print(
                f"(cache {args.cache_dir}: {cache.hits - hits0} hit(s), "
                f"{cache.misses - misses0} miss(es))"
            )
        if perf is not None:
            if "perf" not in params:
                print(
                    f"({exp_id} does not support performance tracing; "
                    "--trace-out/--stacks-out ignored)",
                    file=sys.stderr,
                )
            elif perf.trace is not None:
                written = [str(p) for p in (args.trace_out, args.stacks_out) if p]
                print(
                    f"(trace: {perf.trace.n_cells} cell(s) across "
                    f"{len(perf.trace.workers())} worker(s) -> "
                    + ", ".join(written)
                    + ")"
                )
        print(f"\n({exp_id} completed in {time.time() - t0:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
