"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, counts)``.  Spans are opened either
explicitly around a call the benchmark makes (``with rec.span(...)``) or by
a wrapper that :meth:`SpanRecorder.patch` installs on a library entry point
the library itself calls internally (``generate_trace`` inside
``generate_all_traces``, the study methods inside ``build_report``, ...).
Nothing is written until the run ends; :func:`self_times` derives each
name's self time (duration minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

__all__ = ["NULL", "NullRecorder", "Span", "SpanRecorder", "self_times"]


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """Collects spans in memory; :meth:`patch` wraps library entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record one span; yields its ``counts`` dict for the caller to fill."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent, counts=dict(counts))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span.counts
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is a string or ``name(*args, **kwargs)``; ``counts`` maps
        ``(result, *args, **kwargs)`` to a dict of counts for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as span_counts:
                result = original(*args, **kwargs)
                if counts is not None:
                    span_counts.update(counts(result, *args, **kwargs))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class NullRecorder:
    """Recorder for untraced runs: spans cost one context-manager entry."""

    def span(self, name: str, **counts):
        return contextlib.nullcontext({})


NULL = NullRecorder()


def self_times(spans: list[Span]) -> dict[str, dict]:
    """``{name: {"self_s", "calls", <summed counts>}}`` over ``spans``.

    Span parents index into ``spans``, so pass one recorder's list whole.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict] = {}
    for span, covered in zip(spans, child_time):
        slot = out.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        slot["self_s"] += (span.end - span.start) - covered
        slot["calls"] += 1
        for key, value in span.counts.items():
            slot[key] = slot.get(key, 0) + value
    return out
