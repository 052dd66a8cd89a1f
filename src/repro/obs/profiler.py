"""EXPLAIN-style profiling of pattern matching against one plan.

:func:`explain` runs one pattern against one transformed plan with a
:class:`CollectingProbe` installed (see :mod:`repro.obs.instrument`) and
an unlimited :class:`~repro.core.limits.Budget` counting visited
bindings, then reports what the evaluator actually did:

* per-triple-pattern **input cardinality** (how many intermediate
  solutions reached the pattern) and **output cardinality** (how many
  extensions it produced),
* the **index chosen** per lookup (SPO/POS/OSP, mirroring the branch
  order of :meth:`repro.rdf.graph.Graph.triples_ids`),
* the **join order** the evaluator settled on, and — when the
  cost-based planner is active — the **planned order with estimated
  cardinalities** per step next to the actual ones, and the step after
  which each FILTER pushed into the join runs, with its selectivity,
* property-path **closure BFS frontier sizes** and memo hits, plus the
  planner's **closure direction decisions** (forward vs reverse BFS,
  seeded vs full node scan) for both-ends-free closures,
* **budget ticks** consumed (visited bindings — the same quantity the
  resource governor caps).

This is the workload-tuning loop GALO automates and Waveguide plots:
see which pattern explodes, reorder or tighten it, re-profile.  Exposed
as :meth:`repro.core.optimatch.OptImatch.explain` and the CLI
``profile`` subcommand.

This module may import the evaluator (the reverse import is forbidden —
the evaluator only sees :mod:`repro.obs.instrument`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .instrument import EvalProbe, probing

__all__ = [
    "ClosureProfile",
    "CollectingProbe",
    "ExplainReport",
    "PatternProfile",
    "StageTimer",
    "explain",
]


# ----------------------------------------------------------------------
# Display formatting for patterns and paths
# ----------------------------------------------------------------------
def _format_term(term: Any) -> str:
    from repro.rdf.term import Variable

    if isinstance(term, Variable):
        return f"?{term.name}"
    n3 = getattr(term, "n3", None)
    return n3() if callable(n3) else str(term)


def _format_path(path: Any) -> str:
    from repro.sparql import ast

    if isinstance(path, ast.PathLink):
        return _format_term(path.iri)
    if isinstance(path, ast.PathInverse):
        return f"^({_format_path(path.path)})"
    if isinstance(path, ast.PathSequence):
        return "/".join(_format_path(p) for p in path.parts)
    if isinstance(path, ast.PathAlternative):
        return "(" + "|".join(_format_path(p) for p in path.parts) + ")"
    if isinstance(path, ast.PathMod):
        return f"({_format_path(path.path)}){path.modifier}"
    return repr(path)


_XSD_NUMERIC = {
    "http://www.w3.org/2001/XMLSchema#" + name
    for name in ("integer", "decimal", "double", "float")
}


def _format_expr(expr: Any, nested: bool = False) -> str:
    """SPARQL-like text of a FILTER expression."""
    from repro.rdf.term import Literal
    from repro.sparql import ast

    if isinstance(expr, ast.TermExpr):
        term = expr.term
        if isinstance(term, Literal) and term.datatype in _XSD_NUMERIC:
            return term.lexical
        return _format_term(term)
    if isinstance(expr, ast.UnaryExpr):
        return expr.op + _format_expr(expr.operand, True)
    if isinstance(expr, ast.BinaryExpr):
        text = (
            f"{_format_expr(expr.left, True)} {expr.op} "
            f"{_format_expr(expr.right, True)}"
        )
        return f"({text})" if nested else text
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name}({', '.join(_format_expr(a) for a in expr.args)})"
    if isinstance(expr, ast.InExpr):
        options = ", ".join(_format_expr(o) for o in expr.options)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"{_format_expr(expr.value, True)} {keyword} ({options})"
    return repr(expr)


def _format_pattern(tp: Any) -> str:
    from repro.sparql import ast

    pred = tp.predicate
    pred_text = (
        _format_path(pred) if isinstance(pred, ast.Path) else _format_term(pred)
    )
    return f"{_format_term(tp.subject)} {pred_text} {_format_term(tp.obj)}"


# ----------------------------------------------------------------------
# Index choice
# ----------------------------------------------------------------------
def _index_for(pattern: Any, bindings: Any) -> str:
    """The store index a probe ``pattern_input`` lookup walks.

    *pattern* is a compiled pattern tuple and *bindings* the current
    ``Variable -> int`` solution; the planner's
    :func:`~repro.sparql.planner._index_for_bounds` maps the observed
    boundness to the index.
    """
    from repro.sparql.planner import PATH, VAR, _index_for_bounds

    s_spec, p_spec, o_spec = pattern[0], pattern[1], pattern[2]

    def bound(spec) -> bool:
        # GROUND and ABSENT positions are statically bound; a VAR
        # position is bound when the current solution carries it.
        return spec[0] != VAR or spec[1] in bindings

    is_path = p_spec[0] == PATH
    return _index_for_bounds(
        bound(s_spec), not is_path and bound(p_spec), bound(o_spec), is_path
    )


# ----------------------------------------------------------------------
# Collected profiles
# ----------------------------------------------------------------------
@dataclass
class PatternProfile:
    """Aggregated evaluator activity for one triple pattern."""

    pattern: str
    order: int  # 1-based position in the observed join order
    inputs: int = 0
    outputs: int = 0
    indexes: Dict[str, int] = field(default_factory=dict)
    #: Planner-estimated cumulative rows after this pattern's join step
    #: (None when the cost planner did not plan this pattern).
    estimated: Optional[float] = None

    def to_json_object(self) -> dict:
        return {
            "pattern": self.pattern,
            "order": self.order,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "indexes": dict(self.indexes),
            "estimated": self.estimated,
        }


@dataclass
class ClosureProfile:
    """Aggregated BFS activity for one property-path closure."""

    path: str
    runs: int = 0
    cached_hits: int = 0
    levels: int = 0  # deepest BFS level seen
    max_frontier: int = 0
    nodes_discovered: int = 0
    frontier_sizes: List[List[int]] = field(default_factory=list)

    def to_json_object(self) -> dict:
        return {
            "path": self.path,
            "runs": self.runs,
            "cachedHits": self.cached_hits,
            "levels": self.levels,
            "maxFrontier": self.max_frontier,
            "nodesDiscovered": self.nodes_discovered,
            "frontierSizes": [list(sizes) for sizes in self.frontier_sizes],
        }


#: Cap on raw per-run frontier-size lists kept per closure (aggregates
#: keep accumulating past it).
_MAX_FRONTIER_SAMPLES = 16


class CollectingProbe(EvalProbe):
    """Thread-safe probe aggregating pattern and closure statistics.

    Patterns are keyed by display text, so re-compilations of the same
    BGP (one per OPTIONAL/UNION sub-group invocation, one per plan)
    aggregate into one row.  Join order is the order in which patterns
    first receive an input solution.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._display: Dict[int, str] = {}  # id(pattern object) -> text
        self._patterns: Dict[str, PatternProfile] = {}
        self._closures: Dict[str, ClosureProfile] = {}
        # Pin registered pattern objects so their ids cannot be recycled
        # and remapped to a different pattern mid-profile.
        self._pinned: List[Any] = []
        # Cost-planner observations: one entry per distinct BGP plan and
        # per distinct closure-direction decision, plus the estimated
        # cumulative rows per pattern (keyed by display text).
        self._plans: List[dict] = []
        self._plan_keys: set = set()
        self._closure_plans: Dict[Tuple, dict] = {}
        self._estimates: Dict[str, float] = {}

    # -- EvalProbe hooks ----------------------------------------------
    def bgp(self, patterns: Sequence[Any], compiled: Sequence[Any]) -> None:
        with self._lock:
            self._register(patterns, compiled)

    def pattern_input(self, pattern: Any, bindings: Any) -> None:
        index = _index_for(pattern, bindings)
        with self._lock:
            profile = self._profile_for(pattern)
            profile.inputs += 1
            profile.indexes[index] = profile.indexes.get(index, 0) + 1

    def pattern_output(self, pattern: Any) -> None:
        with self._lock:
            self._profile_for(pattern).outputs += 1

    def closure(
        self,
        path: Any,
        start: Any,
        forward: bool,
        frontier_sizes: Optional[List[int]],
        cached: bool,
    ) -> None:
        text = _format_path(path) + ("" if forward else " (reverse)")
        with self._lock:
            profile = self._closures.get(text)
            if profile is None:
                profile = ClosureProfile(path=text)
                self._closures[text] = profile
            if cached:
                profile.cached_hits += 1
                return
            profile.runs += 1
            if frontier_sizes:
                profile.levels = max(profile.levels, len(frontier_sizes))
                profile.max_frontier = max(profile.max_frontier, max(frontier_sizes))
                # The start node itself is level 0; discovered nodes are
                # everything the later frontiers carried.
                profile.nodes_discovered += sum(frontier_sizes[1:])
                if len(profile.frontier_sizes) < _MAX_FRONTIER_SAMPLES:
                    profile.frontier_sizes.append(list(frontier_sizes))

    def bgp_plan(self, patterns, compiled, plan, filters=()) -> None:
        pushed = [
            {
                "filter": _format_expr(flt.expr),
                "afterStep": after,
                "selectivity": selectivity,
            }
            for flt, (after, selectivity) in zip(filters, plan.filters)
        ]
        with self._lock:
            self._register(patterns, compiled)
            texts = [_format_pattern(patterns[i]) for i in plan.order]
            dedup = (
                tuple(texts),
                plan.method,
                tuple(plan.indexes),
                tuple((f["filter"], f["afterStep"]) for f in pushed),
            )
            if dedup in self._plan_keys:
                return
            self._plan_keys.add(dedup)
            for text, estimate in zip(texts, plan.estimates):
                self._estimates.setdefault(text, estimate)
            self._plans.append(
                {
                    "method": plan.method,
                    "cost": plan.cost,
                    "order": texts,
                    "estimatedRows": list(plan.estimates),
                    "indexes": list(plan.indexes),
                    "filters": pushed,
                }
            )

    def closure_plan(self, path, decision: dict) -> None:
        text = _format_path(path)
        key = (text, decision.get("direction"), decision.get("mode"))
        with self._lock:
            if key not in self._closure_plans:
                self._closure_plans[key] = {"path": text, **decision}

    # -- aggregation ---------------------------------------------------
    def _register(self, patterns: Sequence[Any], compiled: Sequence[Any]) -> None:
        # Caller holds the lock.  Compiled-tuple identity maps back to
        # the source pattern's display text.
        for source, key_obj in zip(patterns, compiled):
            self._display[id(key_obj)] = _format_pattern(source)
            self._pinned.append(key_obj)

    def _profile_for(self, pattern: Any) -> PatternProfile:
        # Caller holds the lock.
        text = self._display.get(id(pattern))
        if text is None:  # pattern never registered through bgp()
            text = repr(pattern)
            self._display[id(pattern)] = text
            self._pinned.append(pattern)
        profile = self._patterns.get(text)
        if profile is None:
            profile = PatternProfile(pattern=text, order=len(self._patterns) + 1)
            self._patterns[text] = profile
        return profile

    def pattern_profiles(self) -> List[PatternProfile]:
        with self._lock:
            profiles = sorted(self._patterns.values(), key=lambda p: p.order)
            for profile in profiles:
                if profile.estimated is None:
                    profile.estimated = self._estimates.get(profile.pattern)
            return profiles

    def closure_profiles(self) -> List[ClosureProfile]:
        with self._lock:
            return sorted(self._closures.values(), key=lambda c: c.path)

    def plans(self) -> List[dict]:
        """Distinct BGP plans observed, in first-seen order."""
        with self._lock:
            return [dict(plan) for plan in self._plans]

    def closure_plan_decisions(self) -> List[dict]:
        """Distinct closure-direction decisions, sorted by path text."""
        with self._lock:
            return sorted(
                (dict(d) for d in self._closure_plans.values()),
                key=lambda d: (d.get("path", ""), d.get("direction", "")),
            )


# ----------------------------------------------------------------------
# The EXPLAIN report
# ----------------------------------------------------------------------
@dataclass
class ExplainReport:
    """What the evaluator did matching one pattern against one plan."""

    plan_id: str
    query: Optional[str]
    occurrences: int
    elapsed_seconds: float
    budget_ticks: int
    patterns: List[PatternProfile] = field(default_factory=list)
    closures: List[ClosureProfile] = field(default_factory=list)
    plans: List[dict] = field(default_factory=list)
    closure_plans: List[dict] = field(default_factory=list)

    def to_json_object(self) -> dict:
        return {
            "planId": self.plan_id,
            "query": self.query,
            "occurrences": self.occurrences,
            "elapsedSeconds": round(self.elapsed_seconds, 6),
            "budgetTicks": self.budget_ticks,
            "patterns": [p.to_json_object() for p in self.patterns],
            "closures": [c.to_json_object() for c in self.closures],
            "plans": [dict(p) for p in self.plans],
            "closurePlans": [dict(d) for d in self.closure_plans],
        }

    def to_text(self) -> str:
        lines = [
            f"EXPLAIN plan {self.plan_id}: {self.occurrences} occurrence(s), "
            f"{self.elapsed_seconds * 1000:.2f} ms, "
            f"{self.budget_ticks} budget tick(s)"
        ]
        if self.patterns:
            rows = [
                (
                    f"#{p.order}",
                    p.pattern,
                    str(p.inputs),
                    str(p.outputs),
                    "-" if p.estimated is None else f"{p.estimated:.1f}",
                    _summarize_indexes(p.indexes),
                )
                for p in self.patterns
            ]
            header = ("step", "triple pattern", "in", "out", "est", "index")
            widths = [
                max(len(header[col]), *(len(row[col]) for row in rows))
                for col in range(len(header))
            ]
            fmt = "  ".join(f"{{:<{w}}}" for w in widths)
            lines.append(fmt.format(*header))
            lines.append(fmt.format(*("-" * w for w in widths)))
            lines.extend(fmt.format(*row) for row in rows)
        else:
            lines.append("(no triple patterns evaluated)")
        for plan in self.plans:
            order = " -> ".join(
                f"#{i + 1} {text}" for i, text in enumerate(plan.get("order", []))
            )
            pushed = "".join(
                f" [FILTER ({f['filter']}) after #{f['afterStep']}, "
                f"sel {f['selectivity']:.3g}]"
                for f in plan.get("filters", [])
            )
            lines.append(
                f"plan ({plan.get('method')}, est cost {plan.get('cost', 0):.1f}): "
                f"{order}{pushed}"
            )
        for decision in self.closure_plans:
            seeds = decision.get("seeds")
            seed_note = "full scan" if seeds is None else f"{seeds} seed(s)"
            lines.append(
                f"closure plan {decision.get('path')}: {decision.get('direction')} "
                f"({decision.get('mode')}, {seed_note}, "
                f"{decision.get('totalNodes')} node(s) total)"
            )
        for c in self.closures:
            detail = (
                f"{c.runs} BFS run(s), {c.cached_hits} memo hit(s), "
                f"{c.levels} level(s), max frontier {c.max_frontier}, "
                f"{c.nodes_discovered} node(s) discovered"
            )
            lines.append(f"closure {c.path}: {detail}")
        return "\n".join(lines)


def _summarize_indexes(indexes: Dict[str, int]) -> str:
    if not indexes:
        return "-"
    parts = sorted(indexes.items(), key=lambda kv: (-kv[1], kv[0]))
    return ",".join(
        name if len(parts) == 1 else f"{name}x{count}" for name, count in parts
    )


def explain(sparql_or_pattern: Any, transformed: Any) -> ExplainReport:
    """Profile one pattern against one transformed plan.

    Accepts the same inputs as :func:`repro.core.matcher.search_plan`
    (a :class:`~repro.core.pattern.ProblemPattern`, SPARQL text, or a
    prepared AST).  Runs with an unlimited budget purely to count
    visited bindings; results are identical to an unprofiled search
    (guaranteed by ``tests/obs/test_instrumented_differential.py``).
    """
    from repro.core import limits
    from repro.core.matcher import _prepare, search_plan
    from repro.core.pattern import ProblemPattern
    from repro.core.sparqlgen import pattern_to_sparql

    if isinstance(sparql_or_pattern, ProblemPattern):
        query_text: Optional[str] = pattern_to_sparql(sparql_or_pattern)
    elif isinstance(sparql_or_pattern, str):
        query_text = sparql_or_pattern
    else:
        query_text = None
    ast = _prepare(sparql_or_pattern)
    probe = CollectingProbe()
    budget = limits.Budget()  # no caps: counts ticks without limiting
    started = time.perf_counter()
    with limits.activate(budget), probing(probe):
        plan_matches = search_plan(ast, transformed)
    elapsed = time.perf_counter() - started
    return ExplainReport(
        plan_id=transformed.plan_id,
        query=query_text,
        occurrences=plan_matches.count,
        elapsed_seconds=elapsed,
        budget_ticks=budget.bindings,
        patterns=probe.pattern_profiles(),
        closures=probe.closure_profiles(),
        plans=probe.plans(),
        closure_plans=probe.closure_plan_decisions(),
    )


# ----------------------------------------------------------------------
# Stage timing for experiment reports
# ----------------------------------------------------------------------
class StageTimer:
    """Accumulates named stage durations for an experiment report.

    The experiment drivers (``fig9``-``fig11``, ``user_study``) wrap
    their phases — workload generation, transform, matching,
    recommendation handling — so every report embeds the same stage
    breakdown the paper's figures are about.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def breakdown(self) -> Dict[str, float]:
        """Stage -> cumulative seconds, in first-recorded order."""
        with self._lock:
            return dict(self._seconds)

    def to_note(self) -> str:
        parts = [
            f"{name}={seconds:.4f}s" for name, seconds in self.breakdown().items()
        ]
        return "stage breakdown: " + (", ".join(parts) if parts else "(empty)")
