"""Lightweight wall-time profiling of engine hot paths.

A :class:`Profiler` hands out :meth:`~Profiler.span` context managers built
on :func:`time.perf_counter`, and accumulates per-name call counts and wall
time.  Coarse structure (a sweep cell, an engine's root ``simulate`` span)
is timed with spans.  An engine's scheduling rounds are too short for a
span object each, so the engines time their phases (event drain, policy
sort, backfill scan, profile rebuild) with a :class:`PhaseClock`, which
sums bare ``perf_counter`` deltas per phase and hands the sums over once
per run through :meth:`Profiler.add_phases`.  The point is the **per-run
breakdown report** — before making a hot path faster you need to know
which one is hot, and every future perf PR benchmarks against these
numbers.

Beyond the aggregate table, every span entry/exit is also recorded as a
node in a **span tree**: each span gets an id, a parent link (whatever
span was open on this profiler when it entered), optional tags, and
start/end offsets against the profiler's epoch.  The tree serializes via
:meth:`Profiler.to_payload` into a process-tagged dict that
:mod:`repro.obs.export_chrome` turns into a Chrome trace-event JSON
(loadable in Perfetto / ``chrome://tracing``) or a collapsed-stack
flamegraph, and that :mod:`repro.runner.sweep` ships across the process
boundary so a sweep parent can merge worker timelines.

Spans are exception-safe: a span exited by an unwinding exception records
its error, and spans still open when :meth:`~Profiler.to_payload` runs
(e.g. the engine died mid-loop) are force-closed and marked ``partial``
rather than silently dropped.

When no profiler is passed, the engines use :data:`NULL_PROFILER`, whose
spans are a single shared no-op object; its ``enabled`` flag is False, so
an unprofiled engine creates no :class:`PhaseClock` and skips its phase
timing with one test of a local per scheduling round.
"""

from __future__ import annotations

import itertools
import os
import time
from time import perf_counter

__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER", "PhaseClock"]

_TRACE_IDS = itertools.count(1)


class _Span:
    """One timed region; records into its profiler on exit."""

    __slots__ = ("_profiler", "_name", "_tags", "_t0", "_id", "_parent_id",
                 "_child_s", "_closed")

    def __init__(self, profiler: "Profiler", name: str, tags: dict | None) -> None:
        self._profiler = profiler
        self._name = name
        self._tags = tags
        self._closed = False

    def __enter__(self) -> "_Span":
        self._child_s = 0.0
        self._profiler._open(self)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter()
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        self._profiler._close(self, t1, error=error)
        return False


class _NullSpan:
    """Reusable no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """Profiler stand-in whose spans measure nothing."""

    enabled = False

    def span(self, name: str, **tags) -> _NullSpan:
        """Return the shared no-op span (tags are discarded)."""
        return _NULL_SPAN


#: shared disabled profiler used as the engines' default
NULL_PROFILER = NullProfiler()


class Profiler:
    """Accumulates wall time per named span and records the span tree.

    Spans with the same name aggregate; nesting works — each span times its
    own region and its *self* time (elapsed minus time spent in child
    spans) is tracked separately, so shares still sum to ~1 even when a
    root span encloses the whole run.  Parent links come from the open-span
    stack: a span entered while another is open becomes its child.

    ``worker`` tags every serialized payload with the producing worker's
    name so cross-process merges can lane-split by worker;
    ``created_unix`` anchors the :func:`~time.perf_counter` epoch to the
    wall clock so traces from different processes align on one timeline.
    Span records are capped at ``max_spans`` (aggregates keep counting;
    ``dropped_spans`` reports the overflow).

    Engine phases arrive summed, through :meth:`add_phases`.
    """

    enabled = True

    def __init__(self, worker: str | None = None, trace_id: int | None = None,
                 max_spans: int = 100_000) -> None:
        # name -> [calls, total_seconds, self_seconds]
        self._stats: dict[str, list] = {}
        self._created = perf_counter()
        self.created_unix = time.time()
        self.worker = worker
        self.trace_id = next(_TRACE_IDS) if trace_id is None else trace_id
        self.max_spans = max_spans
        self.dropped_spans = 0
        #: serialized span records, in close order
        self.records: list[dict] = []
        self._stack: list[_Span] = []
        self._next_span_id = 1

    def span(self, name: str, **tags) -> _Span:
        """Context manager timing one region under ``name``.

        Keyword arguments become the span's tags (e.g.
        ``prof.span("simulate", engine="easy", policy="fcfs")``) and ride
        along into the serialized record's ``args``.
        """
        return _Span(self, name, tags or None)

    def add_phases(self, phases: dict[str, tuple[int, float]]) -> None:
        """Record an engine's summed phase times under the open span.

        ``phases`` maps a phase name to ``(calls, seconds)``, as a
        :class:`PhaseClock` sums them.  Each phase updates the aggregates
        like a leaf span (its self time is its total) and becomes one child
        record of the innermost open span, the engine's root ``simulate``
        span, whose self time shrinks accordingly.  A phase is many short
        intervals, so its record is laid end to end with its siblings from
        the parent's start: the width carries the measurement, the offset
        does not (``args.calls`` counts the intervals).
        """
        parent = self._stack[-1]
        t = parent._t0
        for name, (calls, seconds) in phases.items():
            self._record(name, seconds, calls=calls)
            parent._child_s += seconds
            if len(self.records) >= self.max_spans:
                self.dropped_spans += 1
                continue
            self.records.append({
                "id": self._next_span_id,
                "parent": parent._id,
                "name": name,
                "t0": t - self._created,
                "t1": t + seconds - self._created,
                "args": {"calls": int(calls)},
            })
            self._next_span_id += 1
            t += seconds

    # -- span-tree bookkeeping -------------------------------------------

    def _open(self, span: _Span) -> None:
        span._id = self._next_span_id
        self._next_span_id += 1
        span._parent_id = self._stack[-1]._id if self._stack else None
        self._stack.append(span)

    def _close(self, span: _Span, t1: float, error: str | None = None,
               partial: bool = False) -> None:
        if span._closed:
            return
        stack = self._stack
        if span in stack:
            # force-close children abandoned by a non-local exit first so
            # the tree stays well-formed (they end when their parent does)
            while stack[-1] is not span:
                self._close(stack.pop(), t1, partial=True)
            stack.pop()
        span._closed = True
        elapsed = t1 - span._t0
        self_s = elapsed - span._child_s
        if self_s < 0.0:  # clock-resolution jitter
            self_s = 0.0
        if stack:
            stack[-1]._child_s += elapsed
        self._record(span._name, elapsed, self_s)
        if len(self.records) >= self.max_spans:
            self.dropped_spans += 1
            return
        rec: dict = {
            "id": span._id,
            "parent": span._parent_id,
            "name": span._name,
            "t0": span._t0 - self._created,
            "t1": t1 - self._created,
        }
        if span._tags:
            rec["args"] = span._tags
        if error is not None:
            rec["error"] = error
        if partial:
            rec["partial"] = True
        self.records.append(rec)

    def close_open_spans(self) -> int:
        """Force-close every still-open span, marking it ``partial``.

        Called (directly or via :meth:`to_payload`) after an exception
        unwound past the span sites, so a crashed run still serializes a
        usable partial tree.  Returns the number of spans closed.
        """
        n = len(self._stack)
        now = perf_counter()
        while self._stack:
            self._close(self._stack.pop(), now, partial=True)
        return n

    def _record(self, name: str, elapsed: float, self_s: float | None = None,
                calls: int = 1) -> None:
        if self_s is None:
            self_s = elapsed
        stat = self._stats.get(name)
        if stat is None:
            self._stats[name] = [calls, elapsed, self_s]
        else:
            stat[0] += calls
            stat[1] += elapsed
            stat[2] += self_s

    @property
    def wall_seconds(self) -> float:
        """Wall time since this profiler was created."""
        return perf_counter() - self._created

    @property
    def profiled_seconds(self) -> float:
        """Total *self* time inside spans (across all names).

        Self time excludes nested child spans, so the sum stays bounded by
        wall time even with an all-enclosing root span; for the flat
        non-overlapping engine leaves it equals total span time.
        """
        return sum(stat[2] for stat in self._stats.values())

    def stats(self, name: str) -> tuple[int, float]:
        """(calls, total_seconds) for one span name."""
        count, total, _self_s = self._stats[name]
        return int(count), float(total)

    def as_dict(self) -> dict:
        """Structured breakdown, hottest span (by self time) first."""
        profiled = self.profiled_seconds
        spans = {}
        for name, (count, total, self_s) in sorted(
            self._stats.items(), key=lambda kv: -kv[1][2]
        ):
            spans[name] = {
                "calls": int(count),
                "total_s": float(total),
                "self_s": float(self_s),
                "mean_us": 1e6 * total / count if count else 0.0,
                "share": self_s / profiled if profiled > 0 else 0.0,
            }
        return {
            "wall_s": self.wall_seconds,
            "profiled_s": profiled,
            "spans": spans,
        }

    def to_payload(self, close_open: bool = True) -> dict:
        """JSON-safe snapshot of the span tree for cross-process shipping.

        With ``close_open`` (the default) any spans still on the stack —
        i.e. an exception is unwinding, or the caller snapshots mid-run —
        are force-closed and marked ``partial`` so no timing data is lost.
        The payload is self-contained: :mod:`repro.obs.export_chrome`
        renders it without access to the originating process.
        """
        if close_open:
            self.close_open_spans()
        return {
            "trace_id": self.trace_id,
            "worker": self.worker,
            "pid": os.getpid(),
            "epoch_unix": self.created_unix,
            "wall_s": self.wall_seconds,
            "profiled_s": self.profiled_seconds,
            "dropped_spans": self.dropped_spans,
            "spans": list(self.records),
        }

    def report(self) -> str:
        """Human-readable per-span wall-time breakdown."""
        from ..viz import render_table

        snapshot = self.as_dict()
        rows = [
            [
                name,
                f"{stat['calls']:,}",
                f"{stat['total_s'] * 1e3:.2f}",
                f"{stat['self_s'] * 1e3:.2f}",
                f"{stat['mean_us']:.2f}",
                f"{100.0 * stat['share']:.1f}%",
            ]
            for name, stat in snapshot["spans"].items()
        ]
        if not rows:
            rows = [["(no spans recorded)", "-", "-", "-", "-", "-"]]
        table = render_table(
            ["span", "calls", "total (ms)", "self (ms)", "mean (us)", "share"],
            rows,
            title="hot-path wall-time breakdown",
        )
        return (
            f"{table}\n"
            f"profiled {snapshot['profiled_s'] * 1e3:.2f} ms of "
            f"{snapshot['wall_s'] * 1e3:.2f} ms wall"
        )


class PhaseClock:
    """Per-phase wall time of one engine run, for :meth:`Profiler.add_phases`.

    Created just inside the engine's root span, the clock counts the time
    outside :meth:`round` as ``event_drain``.  A round counts as
    ``policy_sort`` until :meth:`mark` starts a later phase
    (``profile_rebuild``, ``backfill_scan``), so the phases partition the
    event loop.
    """

    __slots__ = ("_profiler", "_sums", "_drain", "_sort", "_acc", "_t0")

    def __init__(self, profiler: Profiler) -> None:
        self._profiler = profiler
        # phase -> [calls, seconds]; `_acc` is the running phase's entry
        self._drain = [0, 0.0]
        self._sort = [0, 0.0]
        self._sums = {"event_drain": self._drain, "policy_sort": self._sort}
        self._acc = self._drain
        self._t0 = perf_counter()

    def round(self, schedule, now: float) -> None:
        """Run ``schedule(now)`` as one timed scheduling round."""
        # the two laps are inlined: this runs once per round
        t = perf_counter()
        drain = self._drain
        drain[0] += 1
        drain[1] += t - self._t0
        self._acc = self._sort
        self._t0 = t
        schedule(now)
        t = perf_counter()
        acc = self._acc
        acc[0] += 1
        acc[1] += t - self._t0
        self._t0 = t

    def mark(self, phase: str) -> None:
        """End the round's running phase now and start ``phase``."""
        t = perf_counter()
        acc = self._acc
        acc[0] += 1
        acc[1] += t - self._t0
        self._t0 = t
        acc = self._sums.get(phase)
        if acc is None:
            acc = self._sums[phase] = [0, 0.0]
        self._acc = acc

    def report(self) -> None:
        """Hand the sums to the profiler, under its open (root) span."""
        self._profiler.add_phases(self._sums)
