"""Span-based query-lifecycle tracing.

One :class:`Tracer` covers one traced query from parse to execution.  The
engine opens a span per lifecycle phase (``parse`` → ``bind`` →
``optimize`` → ``place_partition_selectors`` → ``execute``),
the executor adds one child span per slice, and the optimizer pours typed
search events into the tracer's :class:`~repro.obs.opt_events
.OptimizerEventLog` — Orca's minidump idea scaled to this engine.

Tracing is **off by default and costs nothing when off**: instrumented
code paths call :func:`current` / :func:`span`, which reduce to one
thread-local read when no tracer is active, and no instrumentation site
sits on a per-row path (spans are per phase / per slice; optimizer events
are per group / per request).

Activation is scoped, not ambient, and **per thread**::

    tracer = Tracer()
    with activate(tracer):
        plan = db.plan("SELECT ...")
    tracer.seconds("optimize")      # wall time of the optimize phase

A tracer records only the spans opened on the thread that activated it
(a statement runs on one thread): a statement traced at once on another
thread never writes into it, so a tracer has one writer and no lock.

The stable export is JSON lines (:meth:`Tracer.to_jsonl`): one object per
span in start order, so a trace file can be streamed, grepped and diffed.
Schema documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Iterator


class _Scope(threading.local):
    """This thread's active tracer (set via :class:`activate`) and phase
    sink (set via :class:`feed_phases`); None = off.  Class-level
    defaults keep the read cheap on a thread that set neither."""

    tracer: "Tracer | None" = None
    sink = None


_scope = _Scope()


def current() -> "Tracer | None":
    """This thread's active tracer, or None when tracing is off."""
    return _scope.tracer


class feed_phases:
    """Context manager feeding lifecycle span *names* to ``sink``.

    The live activity registry (:mod:`repro.obs.live`) uses this to learn
    a running query's current phase without new instrumentation sites:
    every :func:`span` call — which happens per phase / per slice, never
    per row, and fires even when tracing is off — also notifies the
    thread's installed sink.  Scoped per thread, like :class:`activate`,
    so concurrent serving queries each feed their own activity record (a
    statement runs on one thread).  Nesting restores the previous sink.
    """

    __slots__ = ("sink", "_previous")

    def __init__(self, sink):
        self.sink = sink
        self._previous = None

    def __enter__(self):
        self._previous = _scope.sink
        _scope.sink = self.sink
        return self.sink

    def __exit__(self, *exc) -> bool:
        _scope.sink = self._previous
        return False


class activate:
    """Context manager installing ``tracer`` as this thread's active
    tracer.

    ``activate(None)`` is a supported no-op, so callers can write one
    ``with`` block for both traced and untraced runs.  Nesting restores
    the previous tracer on exit.
    """

    def __init__(self, tracer: "Tracer | None"):
        self.tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> "Tracer | None":
        self._previous = _scope.tracer
        if self.tracer is not None:
            _scope.tracer = self.tracer
        return self.tracer

    def __exit__(self, *exc) -> bool:
        _scope.tracer = self._previous
        return False


class _NullSpan:
    """Reusable no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A span on this thread's active tracer, or a no-op when tracing is
    off.

    This is the one call instrumented code makes; the off path is two
    thread-local reads (the :class:`feed_phases` sink and the tracer)
    plus two branches — per phase/slice, never per row.
    """
    sink = _scope.sink
    if sink is not None:
        sink(name)
    tracer = _scope.tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


class Span:
    """One timed region of the query lifecycle.

    Times are seconds relative to the tracer's origin, so exported spans
    are small stable offsets rather than absolute clock values.
    """

    __slots__ = ("span_id", "parent_id", "name", "depth", "start_s", "end_s", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        depth: int,
        start_s: float,
        attrs: dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.start_s = start_s
        self.end_s: float | None = None
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_ms": self.start_s * 1000.0,
            "duration_ms": self.duration_s * 1000.0,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1000:.2f} ms)"


class _SpanHandle:
    """Context manager opening/closing one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """All spans (and optimizer events) of one traced query."""

    def __init__(self):
        # local import: opt_events imports this module at its top level
        from .opt_events import OptimizerEventLog

        self._clock = time.perf_counter
        self._origin = self._clock()
        #: spans in start order (the stable export order)
        self.spans: list[Span] = []
        #: the open spans, innermost last
        self._stack: list[Span] = []
        #: typed optimizer search events (see :mod:`repro.obs.opt_events`)
        self.optimizer = OptimizerEventLog()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a span under the innermost open span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        opened = Span(
            len(self.spans),
            parent.span_id if parent is not None else None,
            name,
            parent.depth + 1 if parent is not None else 0,
            self._clock() - self._origin,
            attrs,
        )
        self.spans.append(opened)
        stack.append(opened)
        return _SpanHandle(self, opened)

    def _close(self, span: Span) -> None:
        span.end_s = self._clock() - self._origin
        # Close any dangling descendants too (exception unwinding).
        stack = self._stack
        while stack:
            top = stack.pop()
            if top.end_s is None:
                top.end_s = span.end_s
            if top is span:
                break

    # -- queries -----------------------------------------------------------

    def phase_names(self) -> list[str]:
        """Span names in start order (phases and slices interleaved)."""
        return [s.name for s in self.spans]

    def find(self, name: str) -> Span | None:
        """The first span named ``name``, or None."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def seconds(self, name: str) -> float:
        """Total wall time across all spans named ``name``."""
        return sum(s.duration_s for s in self.spans if s.name == name)

    def children(self, parent: Span) -> Iterator[Span]:
        for s in self.spans:
            if s.parent_id == parent.span_id:
                yield s

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``trace`` section of the metrics export (schema v3)."""
        return {
            "phases": [s.name for s in self.spans if s.parent_id is None],
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_jsonl(self) -> str:
        """One JSON object per span, in start order, stable key order."""
        return "\n".join(
            json.dumps(s.to_dict(), sort_keys=True, default=str)
            for s in self.spans
        )

    def render(self) -> str:
        """Indented span tree with wall times (for ``EXPLAIN (TRACE)``)."""
        lines = []
        for s in self.spans:
            attrs = "".join(
                f" {key}={value}" for key, value in sorted(s.attrs.items())
            )
            lines.append(
                f"{'  ' * s.depth}{s.name}: {s.duration_s * 1000:.2f} ms{attrs}"
            )
        return "\n".join(lines)
