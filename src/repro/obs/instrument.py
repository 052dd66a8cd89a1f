"""Evaluator instrumentation hooks (the probe seam).

:mod:`repro.sparql.evaluator` is the hottest code in the system, so its
instrumentation follows the budget pattern from :mod:`repro.core.limits`:
a contextvar carries an optional probe, the evaluator fetches it **once
per BGP join / closure call** (never per binding) and threads it down
the recursion as a parameter defaulting to ``None``.  With no probe
installed every hook site is a single ``probe is not None`` check —
the same cost class as the existing budget checks.  The engine installs
a probe only while tracing, so with its default (disabled) tracer every
:func:`active_probe` call returns ``None`` — pinned by
``tests/obs/test_disabled_path.py``.

This module is imported by the evaluator, so it must not import
anything from :mod:`repro.sparql` or :mod:`repro.core`; the concrete
:class:`~repro.obs.profiler.CollectingProbe` lives in
:mod:`repro.obs.profiler`, which may freely import the evaluator.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence

__all__ = ["EvalProbe", "active_probe", "probing"]


class EvalProbe:
    """Base probe: every hook is a no-op; override what you need.

    Hook contract (all calls happen on the evaluating thread; a probe
    shared by concurrent searches must be thread-safe):

    * ``bgp(patterns, compiled)`` — once per BGP join.  *patterns* are
      the source :class:`~repro.sparql.ast.TriplePattern` objects;
      *compiled* is the parallel list of compiled pattern tuples.
      Positional correspondence maps compiled-tuple identity back to
      display text.
    * ``pattern_input(pattern, bindings)`` — a pattern was chosen as the
      next join step for one intermediate solution.  *pattern* is the
      compiled tuple; *bindings* the current ``Variable -> int``
      solution, from which boundness — and therefore the index the
      store will pick — is derived.
    * ``pattern_output(pattern)`` — one extension was produced by that
      pattern (output cardinality).
    * ``closure(path, start, forward, frontier_sizes, cached)`` — one
      property-path closure BFS finished.  *frontier_sizes* lists the
      BFS frontier size per level (``None`` when served from the
      closure memo, in which case ``cached`` is True).
    * ``bgp_plan(patterns, compiled, plan, filters)`` — the cost-based
      planner fixed a join order for this BGP.  *plan* is a
      ``repro.sparql.planner.BGPPlan``; *compiled* is the compiled
      pattern list; *filters* are the FILTERs pushed into the join, in
      the order of ``plan.filters``.  Fired once per distinct plan per
      BGP join.
    * ``closure_plan(path, decision)`` — a both-free closure picked its
      direction/seeding.  *decision* is a dict with ``direction``,
      ``mode`` ("seeded" / "full-scan"), ``seeds``, ``totalNodes`` and
      the candidate counts per direction.
    """

    __slots__ = ()

    def bgp(self, patterns: Sequence[Any], compiled: Sequence[Any]) -> None:
        pass

    def pattern_input(self, pattern: Any, bindings: Any) -> None:
        pass

    def pattern_output(self, pattern: Any) -> None:
        pass

    def closure(
        self,
        path: Any,
        start: Any,
        forward: bool,
        frontier_sizes: Optional[List[int]],
        cached: bool,
    ) -> None:
        pass

    def bgp_plan(
        self,
        patterns: Sequence[Any],
        compiled: Sequence[Any],
        plan: Any,
        filters: Sequence[Any] = (),
    ) -> None:
        pass

    def closure_plan(self, path: Any, decision: dict) -> None:
        pass


_active_probe: contextvars.ContextVar[Optional[EvalProbe]] = contextvars.ContextVar(
    "repro_obs_active_probe", default=None
)


def active_probe() -> Optional[EvalProbe]:
    """The probe installed in this context, or ``None`` (the fast path)."""
    return _active_probe.get()


@contextmanager
def probing(probe: Optional[EvalProbe]) -> Iterator[Optional[EvalProbe]]:
    """Install *probe* for the duration of the ``with`` block.

    ``probing(None)`` is a no-op, mirroring ``limits.activate(None)``.
    """
    if probe is None:
        yield None
        return
    token = _active_probe.set(probe)
    try:
        yield probe
    finally:
        _active_probe.reset(token)
