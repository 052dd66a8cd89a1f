"""A deliberately naive SPARQL reference evaluator for differential tests.

It shares no code with :mod:`repro.sparql.evaluator` or
:mod:`repro.sparql.planner`.  It uses only the parser's AST, the
term-level ``Graph.triples()`` and :mod:`repro.sparql.functions` for
FILTER expressions and ORDER BY keys, and everything else is written the
slow, obvious way after the SPARQL 1.1 algebra:

* **BGPs** are nested loops in written order.  Each triple pattern is
  one ``graph.triples(s, p, o)`` call with its bound positions
  substituted from the solution so far.
* **Property paths** denote sets of (x, y) pairs built from one-step
  functions, forward and backward.  A link is one store lookup, ``^``
  swaps the direction, ``/`` composes, ``|`` unions, ``+`` is a BFS over
  the inner step, ``*`` also adds x itself and ``?`` is x itself plus
  one inner step.  With both ends free, x ranges over every subject and
  object of the graph.  A bound end relates to itself at length zero
  whether or not the graph holds it (§18.5, ZeroLengthPath and ALP).
  Because a path denotes a *set* of pairs, ``/`` and ``|`` yield each
  (x, y) pair once, where the spec's join and union translation would
  count routes; the engine does the same on purpose.
* **Groups** are the Join of their independently evaluated elements:
  a nested group or UNION is evaluated on its own and joined, OPTIONAL
  is a LeftJoin whose FILTERs see the merged solution, and the group's
  own FILTERs apply last.
* **Solution modifiers**: projection with AS, DISTINCT, ORDER BY as a
  stable sort applied right to left, then OFFSET and LIMIT.

Anything else (MINUS, BIND, VALUES, sub-queries, aggregates, EXISTS)
raises :class:`NotImplementedError`, so no corpus query is silently
skipped.

Out of scope: a nested group, OPTIONAL or UNION branch whose result
depends on a variable bound only outside it.  The engine evaluates such
a group once per outer solution, with that solution substituted, while
the spec evaluates it bottom-up.  The two differ when a FILTER inside
the group reads the outer variable, or when a zero-length path inside
it has an end bound outside to a term that is not a node of the graph.
The differential corpus contains neither.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.term import Term, Variable
from repro.sparql import ast
from repro.sparql.functions import (
    ExprError,
    effective_boolean_value,
    evaluate_expression,
    order_key,
)

Solution = Dict[Variable, Term]


def select(query: ast.SelectQuery, graph) -> Tuple[List[str], List[tuple]]:
    """``(variable names, rows)`` of a parsed SELECT query over *graph*."""
    if not isinstance(query, ast.SelectQuery) or query.has_aggregates():
        raise NotImplementedError("oracle: only plain SELECT queries")
    solutions = eval_group(query.where, graph)
    if query.is_select_star:
        names = sorted({v.name for v in ast.walk_pattern_variables(query.where)})
        items = [(name, ast.TermExpr(Variable(name))) for name in names]
    else:
        items = [(item.output_name(), item.expr) for item in query.select]
        names = [name for name, _ in items]
    # Each solution is extended with the projected values, so ORDER BY
    # may read both WHERE variables and AS aliases.
    decorated = []
    for solution in solutions:
        scope = dict(solution)
        row = []
        for name, expr in items:
            value = _value_or_none(expr, solution, graph)
            row.append(value)
            if value is not None:
                scope.setdefault(Variable(name), value)
        decorated.append((scope, tuple(row)))
    for cond in reversed(query.order_by):
        decorated.sort(
            key=lambda pair, cond=cond: order_key(
                _value_or_none(cond.expr, pair[0], graph)
            ),
            reverse=cond.descending,
        )
    rows = [row for _, row in decorated]
    if query.distinct:
        unique: List[tuple] = []
        for row in rows:
            if row not in unique:
                unique.append(row)
        rows = unique
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[:query.limit]
    return names, rows


def eval_group(
    group: ast.GroupGraphPattern, graph, initial: Optional[Solution] = None
) -> List[Solution]:
    """Solutions of *group*, its triple patterns starting from *initial*."""
    filters = [e for e in group.elements if isinstance(e, ast.Filter)]
    solutions = _join_elements(group, graph, initial)
    return [s for s in solutions if _passes(filters, s, graph)]


def _join_elements(group, graph, initial: Optional[Solution]) -> List[Solution]:
    """The Join of every non-FILTER element of *group*, in written order."""
    solutions: List[Solution] = [dict(initial or {})]
    for element in group.elements:
        if isinstance(element, ast.Filter):
            continue
        if isinstance(element, ast.TriplePattern):
            solutions = [
                ext for s in solutions for ext in _match(element, graph, s)
            ]
        elif isinstance(element, ast.GroupGraphPattern):
            solutions = _join(solutions, eval_group(element, graph))
        elif isinstance(element, ast.Union_):
            branches = [s for g in element.groups for s in eval_group(g, graph)]
            solutions = _join(solutions, branches)
        elif isinstance(element, ast.Optional_):
            solutions = _left_join(solutions, element.group, graph)
        else:
            raise NotImplementedError(f"oracle: {type(element).__name__}")
    return solutions


def _join(left: List[Solution], right: List[Solution]) -> List[Solution]:
    return [
        {**a, **b} for a in left for b in right if _compatible(a, b)
    ]


def _left_join(left: List[Solution], group, graph) -> List[Solution]:
    """LeftJoin: the OPTIONAL group's FILTERs see the merged solution."""
    filters = [e for e in group.elements if isinstance(e, ast.Filter)]
    right = _join_elements(group, graph, None)
    out: List[Solution] = []
    for a in left:
        merged = [
            {**a, **b}
            for b in right
            if _compatible(a, b) and _passes(filters, {**a, **b}, graph)
        ]
        out.extend(merged if merged else [a])
    return out


def _compatible(a: Solution, b: Solution) -> bool:
    return all(a[v] == b[v] for v in a.keys() & b.keys())


def _passes(filters, solution: Solution, graph) -> bool:
    for flt in filters:
        try:
            value = evaluate_expression(flt.expr, solution, graph, _no_exists)
            if not effective_boolean_value(value):
                return False
        except ExprError:
            return False
    return True


def _no_exists(group, graph, bindings):
    raise NotImplementedError("oracle: EXISTS")


def _value_or_none(expr, solution: Solution, graph) -> Optional[Term]:
    try:
        return evaluate_expression(expr, solution, graph, _no_exists)
    except ExprError:
        return None


# ----------------------------------------------------------------------
# Triple patterns
# ----------------------------------------------------------------------
def _match(tp: ast.TriplePattern, graph, solution: Solution) -> Iterable[Solution]:
    s = _ground(tp.subject, solution)
    o = _ground(tp.obj, solution)
    if isinstance(tp.predicate, ast.Path):
        for x, y in path_pairs(tp.predicate, graph, s, o):
            ext = _bind(_bind(solution, tp.subject, x), tp.obj, y)
            if ext is not None:
                yield ext
        return
    p = _ground(tp.predicate, solution)
    for x, q, y in graph.triples(s, p, o):
        ext = _bind(_bind(_bind(solution, tp.subject, x), tp.predicate, q), tp.obj, y)
        if ext is not None:
            yield ext


def _ground(term, solution: Solution) -> Optional[Term]:
    if isinstance(term, Variable):
        return solution.get(term)
    return term


def _bind(solution: Optional[Solution], term, value: Term) -> Optional[Solution]:
    """*solution* with *term* bound to *value*; None on a conflict."""
    if solution is None or not isinstance(term, Variable):
        return solution
    if term in solution:
        return solution if solution[term] == value else None
    return {**solution, term: value}


# ----------------------------------------------------------------------
# Property paths
# ----------------------------------------------------------------------
def path_pairs(
    path: ast.Path, graph, s: Optional[Term], o: Optional[Term]
) -> Set[Tuple[Term, Term]]:
    """The (x, y) pairs *path* relates, restricted to the bound ends."""
    if s is not None:
        return {(s, y) for y in step(path, graph, s, True) if o is None or y == o}
    if o is not None:
        return {(x, o) for x in step(path, graph, o, False)}
    nodes = {t for triple in graph.triples() for t in (triple[0], triple[2])}
    return {(x, y) for x in nodes for y in step(path, graph, x, True)}


def step(path: ast.Path, graph, node: Term, forward: bool) -> Set[Term]:
    """Nodes *path* leads to from *node* (forward) or from (backward)."""
    if isinstance(path, ast.PathLink):
        if forward:
            return {t[2] for t in graph.triples(node, path.iri, None)}
        return {t[0] for t in graph.triples(None, path.iri, node)}
    if isinstance(path, ast.PathInverse):
        return step(path.path, graph, node, not forward)
    if isinstance(path, ast.PathAlternative):
        return set().union(*(step(p, graph, node, forward) for p in path.parts))
    if isinstance(path, ast.PathSequence):
        parts = path.parts if forward else tuple(reversed(path.parts))
        current = {node}
        for part in parts:
            current = {n for c in current for n in step(part, graph, c, forward)}
        return current
    if isinstance(path, ast.PathMod):
        if path.modifier == "?":
            return {node} | step(path.path, graph, node, forward)
        reached: Set[Term] = set()
        frontier = [node]
        while frontier:
            found = [
                n for c in frontier for n in step(path.path, graph, c, forward)
            ]
            frontier = [n for n in found if n not in reached]
            reached.update(frontier)
        if path.modifier == "*":
            reached.add(node)
        return reached
    raise NotImplementedError(f"oracle: path {path!r}")
