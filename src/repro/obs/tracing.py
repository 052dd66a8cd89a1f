"""Hierarchical tracing spans with contextvar propagation.

The matching pipeline is a tree of stages — ``search`` fans out to one
``plan`` span per workload plan, each of which runs ``compile``,
``bgp-join``, ``closure-bfs`` and ``tag-rebind`` work — and several
searches may run at once on different threads of the HTTP front.  A
:class:`Tracer` records that tree:

* :meth:`Tracer.span` is a context manager opening a child of the
  *current* span, carried in a :class:`contextvars.ContextVar` so
  nesting works across function boundaries without threading a span
  argument through every call.
* Each thread has its own context, so concurrent searches on one
  engine keep separate span stacks: every ``plan`` span parents under
  its own ``search`` span (no orphans, no cross-search adoption).
* A disabled tracer (the default) costs one attribute check per
  ``span()`` call and allocates nothing.

Finished spans are kept in a bounded buffer and exportable as plain
JSON (:meth:`Tracer.to_json_objects`) or Chrome ``trace_event`` format
(:meth:`Tracer.to_chrome_trace` — load the file in ``chrome://tracing``
or Perfetto).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "TracingProbe", "current_span", "SPAN_STAGES"]

#: The span taxonomy, outermost first (see docs/observability.md).
SPAN_STAGES = (
    "search",
    "plan",
    "compile",
    "bgp-join",
    "closure-bfs",
    "tag-rebind",
)

_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The innermost open span in this context, or ``None``."""
    return _current_span.get()


class Span:
    """One timed stage; immutable once :meth:`finish` has run."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "attrs",
        "thread_id",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.thread_id = threading.get_ident()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_json_object(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spanId": self.span_id,
            "parentId": self.parent_id,
            "traceId": self.trace_id,
            "startSeconds": self.start,
            "durationSeconds": self.duration,
            "threadId": self.thread_id,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration:.6f}s)"
        )


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a bounded buffer of finished :class:`Span` objects.

    ``Tracer(enabled=False)`` (the default construction in the engine)
    short-circuits ``span()`` to a shared no-op context manager; the
    differential tests prove enabled vs. disabled never changes results,
    and ``tests/obs/test_disabled_path.py`` proves a default-engine
    search constructs no :class:`Span` at all.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 100_000):
        self.enabled = enabled
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._dropped = 0
        # Deterministic ids: monotonically increasing per tracer, so a
        # fixed workload yields a stable trace topology for goldens.
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        """Open a child of the current span for the ``with`` body.

        New root spans (no current span) start a fresh trace id; the
        engine opens one ``search`` root per search call.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = _current_span.get()
        with self._lock:
            span_id = next(self._ids)
            trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        span = Span(
            name,
            span_id,
            parent.span_id if parent is not None else None,
            trace_id,
            attrs or None,
        )
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)
            span.finish()
            with self._lock:
                if len(self._spans) < self.max_spans:
                    self._spans.append(span)
                else:
                    self._dropped += 1

    # -- access / export -----------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def to_json_objects(self) -> List[Dict[str, Any]]:
        return [span.to_json_object() for span in self.spans()]

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant (zero-duration) span under the current span.

        Used for after-the-fact facts — e.g. a closure BFS reported by
        the evaluator probe, where the work is already done by the time
        the hook fires.
        """
        if not self.enabled:
            return
        parent = _current_span.get()
        with self._lock:
            span_id = next(self._ids)
            trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        span = Span(
            name,
            span_id,
            parent.span_id if parent is not None else None,
            trace_id,
            attrs or None,
        )
        span.end = span.start
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self._dropped += 1

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON ("X" complete events, µs units).

        Timestamps are rebased to the earliest span so the trace starts
        at t=0 regardless of process uptime.
        """
        spans = self.spans()
        base = min((span.start for span in spans), default=0.0)
        events = []
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - base) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.trace_id,
                    "tid": span.thread_id,
                    "args": {
                        "spanId": span.span_id,
                        "parentId": span.parent_id,
                        **span.attrs,
                    },
                }
            )
        events.sort(key=lambda event: (event["ts"], event["args"]["spanId"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class TracingProbe:
    """Evaluator probe that turns closure BFS completions into spans.

    Installed by the engine (via :func:`repro.obs.instrument.probing`)
    only while its tracer is enabled, so the ``closure-bfs`` stage of
    the span taxonomy shows up parented under the ``bgp-join``/``plan``
    span that triggered it.  Duck-typed to
    :class:`repro.obs.instrument.EvalProbe` — this module cannot import
    it back-to-front, but the probe contract is structural.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def bgp(self, patterns, compiled) -> None:
        pass

    def pattern_input(self, pattern, bindings) -> None:
        pass

    def pattern_output(self, pattern) -> None:
        pass

    def closure(self, path, start, forward, frontier_sizes, cached) -> None:
        self._tracer.event(
            "closure-bfs",
            cached=cached,
            forward=forward,
            frontierSizes=list(frontier_sizes) if frontier_sizes else [],
        )

    def bgp_plan(self, patterns, compiled, plan, filters=()) -> None:
        pass

    def closure_plan(self, path, decision) -> None:
        self._tracer.event(
            "closure-plan",
            direction=decision.get("direction"),
            mode=decision.get("mode"),
            seeds=decision.get("seeds"),
            totalNodes=decision.get("totalNodes"),
        )
