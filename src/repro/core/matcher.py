"""Pattern matching against transformed plans (Algorithm 3).

``find_matches`` compiles the pattern once, evaluates the SPARQL query
against every plan's RDF graph, and *de-transforms* each solution: every
result-handler binding is mapped from its RDF resource back to the
:class:`PlanOperator` / :class:`BaseObject` it came from, so callers see
plan context (operator numbers, table names, costs) rather than URIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.core.pattern import ProblemPattern
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import TransformedPlan
from repro.qep.model import BaseObject, PlanOperator
from repro.sparql import prepare_query, query as run_query
from repro.sparql.results import ResultRow
from repro.testing import chaos

PlanNode = Union[PlanOperator, BaseObject]


@dataclass
class Match:
    """One occurrence of a pattern in one plan.

    ``bindings`` maps output names (aliases such as ``TOP`` or raw result
    handlers such as ``pop3``) to de-transformed plan nodes.
    """

    plan_id: str
    bindings: Dict[str, PlanNode] = field(default_factory=dict)

    def node(self, name: str) -> Optional[PlanNode]:
        key = name[1:] if name.startswith("?") else name
        return self.bindings.get(key)

    def operators(self) -> List[PlanOperator]:
        return [n for n in self.bindings.values() if isinstance(n, PlanOperator)]

    def signature(self) -> tuple:
        """Hashable identity of this occurrence (for dedup in reports)."""
        parts = []
        for name in sorted(self.bindings):
            node = self.bindings[name]
            if isinstance(node, PlanOperator):
                parts.append((name, "op", node.number))
            else:
                parts.append((name, "obj", node.qualified_name))
        return tuple(parts)

    def describe(self) -> str:
        parts = []
        for name in sorted(self.bindings):
            node = self.bindings[name]
            if isinstance(node, PlanOperator):
                parts.append(f"?{name}={node.display_name}({node.number})")
            else:
                parts.append(f"?{name}={node.qualified_name}")
        return f"[{self.plan_id}] " + " ".join(parts)


@dataclass
class PlanMatches:
    """All occurrences of one pattern within one plan."""

    transformed: TransformedPlan
    occurrences: List[Match] = field(default_factory=list)

    @property
    def plan_id(self) -> str:
        return self.transformed.plan_id

    @property
    def count(self) -> int:
        return len(self.occurrences)

    def __bool__(self) -> bool:
        return bool(self.occurrences)

    def __iter__(self):
        return iter(self.occurrences)


def _detransform_items(
    items, transformed: TransformedPlan
) -> Optional[Match]:
    """Map one solution's ``(name, term)`` pairs back to plan nodes."""
    match = Match(plan_id=transformed.plan_id)
    for name, term in items:
        if term is None:
            continue
        node = transformed.node_for(term)
        if node is not None:
            match.bindings[name] = node
    if not match.bindings:
        return None
    return match


class RowCollector:
    """Accumulates solution rows into a deduped :class:`PlanMatches`.

    This is the single definition of the de-transform + dedup-by-
    signature semantics: :func:`search_plan` feeds it rows evaluated
    in-process, and the multiprocess tier (:mod:`repro.core.mpexec`)
    feeds it rows marshalled back from pool workers — both in the
    evaluator's emission order, so the two paths produce bit-identical
    occurrence lists.
    """

    __slots__ = ("result", "_seen")

    def __init__(self, transformed: TransformedPlan):
        self.result = PlanMatches(transformed=transformed)
        self._seen = set()

    def add(self, items) -> None:
        """Fold in one solution row (an iterable of ``(name, term)``)."""
        match = _detransform_items(items, self.result.transformed)
        if match is None:
            return
        signature = match.signature()
        if signature in self._seen:
            return
        self._seen.add(signature)
        self.result.occurrences.append(match)

    def add_row(self, row: ResultRow) -> None:
        self.add(row.items())


def _prepare(sparql_or_pattern) -> object:
    """Accept a ProblemPattern, a SPARQL string, or an already-parsed AST."""
    if isinstance(sparql_or_pattern, ProblemPattern):
        return prepare_query(pattern_to_sparql(sparql_or_pattern))
    if isinstance(sparql_or_pattern, str):
        return prepare_query(sparql_or_pattern)
    return sparql_or_pattern  # assume a prepared query AST


def search_plan(
    sparql_or_pattern: Union[str, ProblemPattern, object],
    transformed: TransformedPlan,
    tracer=None,
) -> PlanMatches:
    """Match one pattern (or SPARQL text / prepared query) against one plan.

    With a *tracer* (an enabled :class:`repro.obs.tracing.Tracer`) the
    two stages get their own spans: ``bgp-join`` for the SPARQL
    evaluation and ``tag-rebind`` for de-transformation back to plan
    nodes.  The traced path materializes the solution rows between the
    stages; the default path stays streaming.
    """
    if chaos.active:
        chaos.trip("matcher.search_plan", transformed.plan_id)
    ast = _prepare(sparql_or_pattern)
    collector = RowCollector(transformed)

    if tracer is not None and tracer.enabled:
        with tracer.span("bgp-join", planId=transformed.plan_id) as span:
            rows = list(run_query(transformed.graph, ast))
            span.set_attr("rows", len(rows))
        with tracer.span("tag-rebind", planId=transformed.plan_id) as span:
            for row in rows:
                collector.add_row(row)
            span.set_attr("occurrences", len(collector.result.occurrences))
        return collector.result
    for row in run_query(transformed.graph, ast):
        collector.add_row(row)
    return collector.result


def find_matches(
    sparql_or_pattern: Union[str, ProblemPattern],
    workload: Iterable[TransformedPlan],
) -> List[PlanMatches]:
    """Algorithm 3: match the pattern against every plan in the workload.

    Returns one :class:`PlanMatches` per plan that has at least one
    occurrence, in workload order.  Each plan goes through
    :func:`search_plan`, so the dedup-by-signature semantics are defined
    in exactly one place.  For repeated or parallel workload-scale runs
    use :class:`repro.core.engine.MatchingEngine`, which wraps the same
    per-plan primitive with caching and an optional process pool.
    """
    ast = _prepare(sparql_or_pattern)
    matches: List[PlanMatches] = []
    for transformed in workload:
        result = search_plan(ast, transformed)
        if result:
            matches.append(result)
    return matches
