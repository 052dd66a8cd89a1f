"""Zero-dependency observability: metrics, tracing, probes, profiling.

The subsystem has four parts (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (one lock per metric, pre-bound
  label children) that the engine, knowledge base, server and client
  record into;
* :mod:`repro.obs.prometheus` — the text exposition renderer behind
  ``GET /metrics``;
* :mod:`repro.obs.tracing` — hierarchical spans
  (``search → plan → compile → …``) carried per thread/context by
  contextvars, exportable as JSON or Chrome ``trace_event``;
* :mod:`repro.obs.profiler` — the EXPLAIN-style matcher profile behind
  ``OptImatch.explain`` / the CLI ``profile`` subcommand, plus the
  :class:`StageTimer` the experiment reports embed.

Import discipline: the evaluator imports :mod:`repro.obs.instrument`
(hooks only), so ``instrument``/``metrics``/``tracing`` must not import
anything from :mod:`repro.sparql` or :mod:`repro.core`.  The profiler
does import them, so it is loaded lazily here.
"""

from __future__ import annotations

from .instrument import EvalProbe, active_probe, probing
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .prometheus import render_text
from .tracing import Span, Tracer, current_span

__all__ = [
    "Counter",
    "EvalProbe",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_probe",
    "current_span",
    "probing",
    "render_text",
    # lazy (see __getattr__):
    "CollectingProbe",
    "ExplainReport",
    "StageTimer",
    "explain",
]

_LAZY = {"CollectingProbe", "ExplainReport", "StageTimer", "explain"}


def __getattr__(name):
    if name in _LAZY:
        from . import profiler

        return getattr(profiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
