"""SPARQL query evaluation over :class:`repro.rdf.Graph`.

Evaluation is streaming where possible: a group graph pattern produces an
iterator of binding dictionaries (``Variable -> Term``).

There is one join core.  A basic graph pattern is compiled once per join
(every ground term is encoded against the graph dictionary) and then
evaluated in **ID space**: bindings are carried as ``Variable -> int``
dictionaries, conflict checks compare machine ints, and terms are
decoded only when solutions cross back into the term world (FILTER
evaluation, OPTIONAL/UNION sub-groups, projection).  Any store with the
ID-level API of :class:`~repro.rdf.graph.Graph` works; the other one is
:class:`repro.rdf.snapshot.GraphView`, the shared-memory stand-in the
process pool evaluates against.

FILTERs run inside the join where they can.  A group hands each FILTER
without EXISTS whose variables all occur in one run of its triple
patterns to that run's join, which tests it right after the step that
binds its last variable (before the join when the incoming solution
binds them all); a rejected extension still counts as visited but goes
no further.  Numeric orderings (``?v < 3``, ``3 > ?v``, ``?v < ?w``)
compare the memoized numbers of the bound dictionary terms directly;
any other pushed FILTER is evaluated on its variables, decoded as the
solution would be.  FILTERs a group does not hand on apply after it.

Two policies sit on top of the core, as module switches that stay on in
production (the DESIGN.md §4 ablations and the tests turn them off):

* ``JOIN_REORDERING``: the cost-based planner (:mod:`repro.sparql.
  planner`) fixes each BGP's join order and FILTER placement once per
  (pattern set, pushed FILTERs, bound variables, graph version).  Off,
  patterns join in written order, and FILTERs are still tested as soon
  as their variables are bound.
* ``CLOSURE_CACHING``: transitive closures are memoized per graph
  version.  Off, every closure reruns its BFS.

Property paths run as breadth-first fixpoints over dictionary IDs.
Both-ends-free closures are seeded from the planner's cheaper endpoint
set instead of every graph node, and a closure with both ends bound is
a memoized membership test.  Zero-length paths follow SPARQL 1.1
(§18.5, ZeroLengthPath and ALP): a ground or bound end relates to itself
at length zero whether or not the graph holds it, and with both ends
free the zero-length pairs range over every subject and object of the
graph.  Two behaviours depart from the spec on purpose:

* ``/`` and ``|`` yield **distinct** (start, end) pairs.  The spec
  translates them into a join and a union, so two routes between the
  same pair would give two rows.  Here a match is a pair of nodes, not a
  count of routes: with ``a e0 m1 . a e0 m2 . m1 e1 c . m2 e1 c``,
  ``?x p:e0/p:e1 ?y`` returns one row where the spelled-out
  ``?x p:e0 ?m . ?m p:e1 ?y`` returns two.
* Path ends decode to the **dictionary's spelling**.  Equal numeric
  literals (``"100"`` and ``"1e2"``) share one dictionary ID.  A plain
  triple pattern binds the spelling its own triple stored, but a path
  end binds the spelling the dictionary saw first.
"""

from __future__ import annotations

import operator
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.core.limits import active_budget
from repro.obs.instrument import active_probe
from repro.rdf.graph import Graph
from repro.rdf.term import Literal, Term, URIRef, Variable
from repro.sparql import ast, planner
from repro.sparql.functions import (
    ExprError,
    compare_terms,
    effective_boolean_value,
    evaluate_expression,
    order_key,
)
from repro.sparql.planner import ABSENT, GROUND, PATH, UNMATCHABLE, VAR
from repro.sparql.results import ResultRow, ResultSet

Bindings = Dict[Variable, Term]

_XSD = "http://www.w3.org/2001/XMLSchema#"

#: Policy switches (used by the ablation tests; leave True in
#: production).  JOIN_REORDERING toggles the cost-based BGP join order
#: (off: written order); CLOSURE_CACHING toggles the per-graph
#: property-path closure memo.
JOIN_REORDERING = True
CLOSURE_CACHING = True


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def evaluate_query(query, graph: Graph):
    """Evaluate a parsed query against *graph*.

    SELECT queries return a :class:`ResultSet`; ASK queries return bool.
    """
    if isinstance(query, ast.AskQuery):
        return group_matches(query.where, graph, {})
    budget = active_budget()
    if budget is None:
        solutions = list(eval_group(query.where, graph, {}))
    else:
        # Enforce the result-row cap while solutions materialize, so an
        # exploding WHERE clause is stopped before it fills memory.
        budget.check()
        solutions = []
        for solution in eval_group(query.where, graph, {}):
            budget.count_row()
            solutions.append(solution)
    if query.has_aggregates():
        rows, variables = _project_aggregated(query, graph, solutions)
        if query.order_by:
            rows = _apply_order(query, graph, rows, variables)
    else:
        # ORDER BY applies before projection (it may reference WHERE
        # variables that the SELECT clause renames, as the paper's
        # generated queries do: SELECT ?pop1 AS ?TOP ... ORDER BY ?pop1).
        if query.order_by:
            solutions = _order_solutions(query, graph, solutions)
        rows, variables = _project_plain(query, graph, solutions)
    if query.distinct:
        rows = _apply_distinct(rows, variables)
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[:query.limit]
    return ResultSet(variables, [ResultRow(dict(zip(variables, r))) for r in rows])


def group_matches(group: ast.GroupGraphPattern, graph: Graph, bindings: Bindings) -> bool:
    """True when *group* has at least one solution under *bindings*.

    Used for EXISTS / NOT EXISTS.
    """
    for _ in eval_group(group, graph, bindings):
        return True
    return False


# ----------------------------------------------------------------------
# Group graph pattern evaluation
# ----------------------------------------------------------------------
def eval_group(
    group: ast.GroupGraphPattern, graph: Graph, bindings: Bindings
) -> Iterator[Bindings]:
    """Yield solutions for *group* extending the initial *bindings*.

    SPARQL scopes FILTERs to the whole group.  Each run of consecutive
    triple patterns is joined as one BGP.  A FILTER without EXISTS whose
    variables all occur in a run is handed to the first such run, whose
    join tests it as soon as those variables are bound: every variable
    it reads is bound by then and never changes afterwards, so it sees
    the value it would see at the end of the group.  The other FILTERs
    apply once every non-filter element has been joined.
    """
    steps: List[object] = []
    filters: List[ast.Filter] = []
    for element in group.elements:
        if isinstance(element, ast.Filter):
            filters.append(element)
        elif isinstance(element, ast.TriplePattern):
            if steps and isinstance(steps[-1], list):
                steps[-1].append(element)
            else:
                steps.append([element])
        else:
            steps.append(element)
    pushed: Dict[int, List[ast.Filter]] = {}
    if filters:
        runs = [
            (index, set().union(*map(ast.walk_pattern_variables, step)))
            for index, step in enumerate(steps)
            if isinstance(step, list)
        ]
        kept = []
        for flt in filters:
            target = None
            if not _has_exists(flt.expr):
                variables = ast.expression_variables(flt.expr)
                target = next(
                    (index for index, run_vars in runs if variables <= run_vars),
                    None,
                )
            if target is None:
                kept.append(flt)
            else:
                pushed.setdefault(target, []).append(flt)
        filters = kept
    stream: Iterable[Bindings] = iter([dict(bindings)])
    for index, step in enumerate(steps):
        if isinstance(step, list):
            stream = _join_bgp(stream, step, graph, pushed.get(index, ()))
        else:
            stream = _apply_element(stream, step, graph)
    for solution in stream:
        if _passes_filters(filters, solution, graph):
            yield solution


def _has_exists(expr: ast.Expr) -> bool:
    """True when *expr* contains an EXISTS / NOT EXISTS."""
    if isinstance(expr, ast.ExistsExpr):
        return True
    if isinstance(expr, ast.UnaryExpr):
        return _has_exists(expr.operand)
    if isinstance(expr, ast.BinaryExpr):
        return _has_exists(expr.left) or _has_exists(expr.right)
    if isinstance(expr, ast.FunctionCall):
        return any(_has_exists(arg) for arg in expr.args)
    if isinstance(expr, ast.InExpr):
        return _has_exists(expr.value) or any(map(_has_exists, expr.options))
    return False


def _apply_element(
    stream: Iterable[Bindings], element, graph: Graph
) -> Iterator[Bindings]:
    if isinstance(element, ast.GroupGraphPattern):
        for solution in stream:
            yield from eval_group(element, graph, solution)
        return
    if isinstance(element, ast.Optional_):
        for solution in stream:
            extended = False
            for ext in eval_group(element.group, graph, solution):
                extended = True
                yield ext
            if not extended:
                yield solution
        return
    if isinstance(element, ast.Union_):
        for solution in stream:
            for branch in element.groups:
                yield from eval_group(branch, graph, solution)
        return
    if isinstance(element, ast.Minus):
        removed = list(eval_group(element.group, graph, {}))
        for solution in stream:
            if not any(_minus_conflicts(solution, other) for other in removed):
                yield solution
        return
    if isinstance(element, ast.Bind):
        for solution in stream:
            if element.var in solution:
                raise ValueError(
                    f"BIND would rebind already-bound variable ?{element.var.name}"
                )
            new = dict(solution)
            try:
                new[element.var] = evaluate_expression(
                    element.expr, solution, graph, group_matches
                )
            except ExprError:
                pass  # per spec the variable stays unbound
            yield new
        return
    if isinstance(element, ast.SubSelect):
        # SPARQL evaluates subqueries bottom-up: the inner SELECT runs
        # against the graph alone, then its projected rows join with the
        # outer solutions on shared variables.
        inner = evaluate_query(element.query, graph)
        inner_bindings: List[Bindings] = []
        for row in inner:
            binding: Bindings = {}
            for name, term in row.items():
                if term is not None:
                    binding[Variable(name)] = term
            inner_bindings.append(binding)
        for solution in stream:
            for candidate in inner_bindings:
                merged = dict(solution)
                compatible = True
                for var, term in candidate.items():
                    bound = merged.get(var)
                    if bound is None:
                        merged[var] = term
                    elif bound != term:
                        compatible = False
                        break
                if compatible:
                    yield merged
        return
    if isinstance(element, ast.InlineValues):
        for solution in stream:
            for row in element.rows:
                merged = dict(solution)
                compatible = True
                for var, term in zip(element.variables, row):
                    if term is None:
                        continue
                    bound = merged.get(var)
                    if bound is None:
                        merged[var] = term
                    elif bound != term:
                        compatible = False
                        break
                if compatible:
                    yield merged
        return
    raise TypeError(f"unsupported pattern element {element!r}")


def _minus_conflicts(solution: Bindings, other: Bindings) -> bool:
    shared = set(solution) & set(other)
    if not shared:
        return False
    return all(solution[v] == other[v] for v in shared)


def _passes_filters(
    filters: List[ast.Filter], solution: Bindings, graph: Graph
) -> bool:
    for flt in filters:
        try:
            value = evaluate_expression(flt.expr, solution, graph, group_matches)
            if not effective_boolean_value(value):
                return False
        except ExprError:
            return False
    return True


# ----------------------------------------------------------------------
# Basic graph patterns: the ID-space join core
# ----------------------------------------------------------------------
def _join_bgp(
    stream: Iterable[Bindings],
    patterns: List[ast.TriplePattern],
    graph: Graph,
    filters: Sequence[ast.Filter] = (),
) -> Iterator[Bindings]:
    """Join a run of triple patterns, testing the pushed *filters* in it."""
    budget = active_budget()
    # The probe is fetched once per BGP join (not per binding) and
    # threaded down the recursion; with no probe installed every hook
    # site below is a single ``is not None`` check.
    probe = active_probe()
    compiled = _compile_bgp(patterns, graph)
    if probe is not None:
        probe.bgp(patterns, compiled)
    planned = JOIN_REORDERING and len(compiled) > 1
    tests = [_compile_filter(flt, graph) for flt in filters]
    filter_vars = [frozenset(ast.expression_variables(f.expr)) for f in filters]
    # One order and filter placement per distinct bound-variable set;
    # within this call they are cached locally so the per-graph plan
    # memo is consulted once per bound set, not per solution.
    pattern_vars = frozenset(v for cp in compiled for v in cp[3])
    prepared: Dict[frozenset, tuple] = {}
    reported: Set[int] = set()
    for solution in stream:
        bound = frozenset(solution) & pattern_vars
        entry = prepared.get(bound)
        if entry is None:
            if planned:
                plan = planner.plan_bgp(patterns, compiled, graph, bound, filters)
                if probe is not None and id(plan) not in reported:
                    reported.add(id(plan))
                    probe.bgp_plan(patterns, compiled, plan, filters)
                order = plan.order
                placement = [after for after, _ in plan.filters]
            else:
                order = range(len(compiled))
                placement = planner.place_filters(compiled, order, bound, filter_vars)
            checks: List[list] = [[] for _ in range(len(compiled) + 1)]
            for test, after in zip(tests, placement):
                checks[after].append(test)
            entry = prepared[bound] = (
                [(compiled[i], checks[step] or None)
                 for step, i in enumerate(order, 1)],
                checks[0] or None,
            )
        yield from _eval_bgp_encoded(
            entry[0], entry[1], graph, solution, budget, probe
        )


IdBindings = Dict[Variable, int]

#: A compiled pattern: (s_spec, p_spec, o_spec, variables).  Each spec
#: is a ``(kind, payload)`` pair with a kind from the planner (GROUND: a
#: dictionary ID; VAR: a Variable; ABSENT: a ground term the dictionary
#: does not hold; PATH: a property path, predicate only).  Ground terms
#: are encoded ONCE per _join_bgp call instead of per recursion step per
#: solution.  *variables* lists the Variable payloads of the VAR
#: positions (one entry per occurrence), for the join-order planner.
_CompiledPattern = Tuple[
    Tuple[int, object],
    Tuple[int, object],
    Tuple[int, object],
    Tuple[Variable, ...],
]


def _compile_bgp(
    patterns: List[ast.TriplePattern], graph: Graph
) -> List[_CompiledPattern]:
    """Pre-encode every ground pattern term against the graph dictionary."""

    def position(term) -> Tuple[int, object]:
        if isinstance(term, Variable):
            return (VAR, term)
        tid = graph.term_id(term)
        return (ABSENT, term) if tid is None else (GROUND, tid)

    compiled: List[_CompiledPattern] = []
    for tp in patterns:
        pred = tp.predicate
        if isinstance(pred, ast.Path):
            p_spec: Tuple[int, object] = (PATH, pred)
        else:
            p_spec = position(pred)
        s_spec = position(tp.subject)
        o_spec = position(tp.obj)
        pat_vars = tuple(
            spec[1] for spec in (s_spec, p_spec, o_spec) if spec[0] == VAR
        )
        compiled.append((s_spec, p_spec, o_spec, pat_vars))
    return compiled


def _eval_bgp_encoded(
    steps: List[_Step],
    before: Optional[List["_FilterTest"]],
    graph: Graph,
    bindings: Bindings,
    budget=None,
    probe=None,
) -> Iterator[Bindings]:
    """Evaluate a compiled BGP in ID space, decoding only at the boundary.

    *steps* are the patterns in join order, each with the FILTER tests
    placed after it; *before* holds the tests the incoming solution
    already binds.  Incoming term bindings are encoded once; a variable
    bound to a term the graph's dictionary does not hold goes into
    *dead*, mapped to that term.  A plain triple pattern using a dead
    variable matches nothing, while a path pattern can still match it at
    length zero.  Solutions keep every incoming term binding intact.
    """
    ids: IdBindings = {}
    dead: Dict[Variable, Term] = {}
    term_id = graph.term_id
    for var, term in bindings.items():
        tid = term_id(term)
        if tid is None:
            dead[var] = term
        else:
            ids[var] = tid
    if before is not None and not _passes(before, ids, _NO_SPELL, bindings):
        return
    id_term = graph.id_term
    for solution_ids, spell in _eval_bgp_ids_ordered(
        steps, 0, graph, ids, dead, _NO_SPELL, bindings, budget, probe
    ):
        out = dict(bindings)
        for var, tid in solution_ids.items():
            if var not in out:
                own = spell.get(var) if spell else None
                out[var] = own if own is not None else id_term(tid)
        yield out


#: A join step: a compiled pattern and the tests of the FILTERs placed
#: after it (None when there are none).
_Step = Tuple[_CompiledPattern, Optional[List["_FilterTest"]]]

#: A pushed FILTER compiled for the join: ``test(ids, spell, terms)``
#: says whether an ID-space solution passes (*terms* are the incoming
#: term bindings).
_FilterTest = Callable[[IdBindings, Dict[Variable, Term], Bindings], bool]

_ORDERINGS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile_filter(flt: ast.Filter, graph: Graph) -> _FilterTest:
    """A pushed FILTER as a test on an ID-space solution.

    Numeric orderings (``?v op number``, ``number op ?v``, ``?v op ?w``)
    compare the memoized ``as_number()`` of the bound terms directly.  A
    value that is not a numeric literal fails ``?v op number``, as the
    ``ExprError`` of :func:`compare_terms` would; ``?v op ?w`` then asks
    :func:`compare_terms` itself (two plain literals compare
    lexically).  Every other FILTER goes through ``evaluate_expression``
    on its variables, decoded by the rule for solution output.
    """
    id_term = graph.id_term
    shape = planner.numeric_comparison(flt.expr)
    if shape is None:
        expr = flt.expr
        variables = tuple(ast.expression_variables(expr))

        def test(ids, spell, terms):
            solution = {
                var: _decode(var, ids, spell, terms, id_term) for var in variables
            }
            try:
                value = evaluate_expression(expr, solution, graph, group_matches)
                return effective_boolean_value(value)
            except ExprError:
                return False

        return test
    op, var, other = shape
    ordered = _ORDERINGS[op]
    if not isinstance(other, Variable):
        def test(ids, spell, terms):
            term = _decode(var, ids, spell, terms, id_term)
            number = term.as_number() if isinstance(term, Literal) else None
            return number is not None and ordered(number, other)

        return test

    def test(ids, spell, terms):
        left = _decode(var, ids, spell, terms, id_term)
        right = _decode(other, ids, spell, terms, id_term)
        if isinstance(left, Literal) and isinstance(right, Literal):
            a, b = left.as_number(), right.as_number()
            if a is not None and b is not None:
                return ordered(a, b)
        try:
            return compare_terms(op, left, right)
        except ExprError:
            return False

    return test


def _decode(
    var: Variable,
    ids: IdBindings,
    spell: Dict[Variable, Term],
    terms: Bindings,
    id_term,
) -> Term:
    """A bound variable's term by the rule for solution output: the
    incoming binding (which covers dead variables), then the spelling
    override (which covers variables bound to UNMATCHABLE), then the
    dictionary."""
    term = terms.get(var)
    if term is None:
        term = spell.get(var)
        if term is None:
            term = id_term(ids[var])
    return term


def _passes(
    checks: List[_FilterTest],
    ids: IdBindings,
    spell: Dict[Variable, Term],
    terms: Bindings,
) -> bool:
    for test in checks:
        if not test(ids, spell, terms):
            return False
    return True


#: Shared empty spelling-override map — almost every solution carries no
#: overrides, so they all alias this one dict (copy-on-write on bind).
_NO_SPELL: Dict[Variable, Term] = {}


def _eval_bgp_ids_ordered(
    steps: List[_Step],
    position: int,
    graph: Graph,
    ids: IdBindings,
    dead: Dict[Variable, Term],
    spell: Dict[Variable, Term],
    terms: Bindings,
    budget=None,
    probe=None,
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    """ID-space BGP recursion over a fixed pattern order.

    The order and the FILTER placement were decided once per
    bound-variable set (planned, or the written order), so no step
    re-ranks the remaining patterns.  Every extension ticks the budget
    and counts as the pattern's output; one a FILTER placed at this step
    rejects goes no further.  *terms* are the incoming term bindings.
    """
    if position == len(steps):
        yield ids, spell
        return
    pattern, checks = steps[position]
    if probe is not None:
        probe.pattern_input(pattern, ids)
    position += 1
    last = position == len(steps)
    for ext_ids, ext_spell in _match_triple_ids(pattern, graph, ids, dead, spell):
        if budget is not None:
            budget.tick()
        if probe is not None:
            probe.pattern_output(pattern)
        if checks is not None and not _passes(checks, ext_ids, ext_spell, terms):
            continue
        if last:
            yield ext_ids, ext_spell
        else:
            yield from _eval_bgp_ids_ordered(
                steps, position, graph, ext_ids, dead, ext_spell, terms, budget, probe
            )


def _match_triple_ids(
    cp: _CompiledPattern,
    graph: Graph,
    ids: IdBindings,
    dead: Dict[Variable, Term],
    spell: Dict[Variable, Term],
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
    if p_spec[0] == PATH:
        yield from _match_path_ids(cp, graph, ids, dead, spell)
        return
    # Inlined resolution of all three positions — this is the hot loop
    # of every BGP join; an unmatchable position returns early.  A
    # variable bound to UNMATCHABLE resolves to it, and the store finds
    # nothing under it.
    kind, payload = s_spec
    if kind == GROUND:
        subject = payload
    elif kind == VAR:
        if dead and payload in dead:
            return
        subject = ids.get(payload)
    else:
        return  # ABSENT
    kind, payload = o_spec
    if kind == GROUND:
        obj = payload
    elif kind == VAR:
        if dead and payload in dead:
            return
        obj = ids.get(payload)
    else:
        return  # ABSENT
    kind, payload = p_spec
    if kind == GROUND:
        pred = payload
    elif kind == VAR:
        if dead and payload in dead:
            return
        pred = ids.get(payload)
    else:
        return  # ABSENT
    # The store filters on every resolved position, so a returned triple
    # already agrees with the bound ones; only the genuinely free
    # variable positions extend the solution.  Resolving them up front
    # means one dict copy per match instead of one per position, and a
    # duplicated free variable (``?x :p ?x``) shows up twice here so the
    # consistency check below still applies.
    free: List[Tuple[Variable, int]] = []
    if s_spec[0] == VAR and subject is None:
        free.append((s_spec[1], 0))
    if p_spec[0] == VAR and pred is None:
        free.append((p_spec[1], 1))
    if o_spec[0] == VAR and obj is None:
        free.append((o_spec[1], 2))
    # Spelling fidelity: a variable first bound from a cell whose literal
    # spelling differs from the dictionary representative decodes to the
    # cell's own spelling.  The override is recorded only on first bind —
    # re-matching the same value later keeps the original binding.
    track_spelling = obj is None and o_spec[0] == VAR and graph.has_spellings
    for triple in graph.triples_ids(subject, pred, obj):
        if free:
            extended = dict(ids)
            ok = True
            for var, pos in free:
                value = triple[pos]
                bound = extended.get(var)
                if bound is None:
                    extended[var] = value
                elif bound != value:
                    ok = False
                    break
            if not ok:
                continue
        else:
            extended = ids
        out_spell = spell
        if track_spelling:
            own = graph.spelling(triple[0], triple[1], triple[2])
            if own is not None:
                out_spell = dict(spell)
                out_spell[o_spec[1]] = own
        yield extended, out_spell


def _match_path_ids(
    cp: _CompiledPattern,
    graph: Graph,
    ids: IdBindings,
    dead: Dict[Variable, Term],
    spell: Dict[Variable, Term],
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    """Match a property-path pattern (see :func:`_match_triple_ids`)."""
    s_spec, o_spec = cp[0], cp[2]
    subject = _path_end(s_spec, ids, dead)
    obj = _path_end(o_spec, ids, dead)
    if subject == UNMATCHABLE or obj == UNMATCHABLE:
        yield from _match_absent_end(cp, subject, obj, ids, dead, spell)
        return
    for s_id, o_id in _eval_path_ids(cp[1][1], graph, subject, obj):
        extended = _extend_id(ids, s_spec, s_id)
        if extended is None:
            continue
        extended = _extend_id(extended, o_spec, o_id)
        if extended is not None:
            yield extended, spell


def _path_end(
    spec: Tuple[int, object], ids: IdBindings, dead: Dict[Variable, Term]
) -> Optional[int]:
    """ID of a path end: ``None`` when free, UNMATCHABLE when the graph's
    dictionary does not hold its term."""
    kind, payload = spec
    if kind == GROUND:
        return payload
    if kind == VAR:
        return UNMATCHABLE if payload in dead else ids.get(payload)
    return UNMATCHABLE  # ABSENT


def _match_absent_end(
    cp: _CompiledPattern,
    subject: Optional[int],
    obj: Optional[int],
    ids: IdBindings,
    dead: Dict[Variable, Term],
    spell: Dict[Variable, Term],
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    """Match a path pattern with an end the graph's dictionary lacks.

    Such a term has no edges, so only the empty route reaches it, and
    SPARQL 1.1 relates a ground or bound end to itself at length zero
    whether or not the graph holds it.  The pattern matches once when
    its path can be empty and the other end is the same term or a free
    variable.  That variable is bound to UNMATCHABLE, which every store
    lookup misses, with the term as its spelling override, so the
    solution decodes to the term and later path patterns read it back.
    """
    if not planner.can_be_zero(cp[1][1]):
        return
    if subject is None or obj is None:
        free, absent = (cp[0], cp[2]) if subject is None else (cp[2], cp[0])
        extended = dict(ids)
        extended[free[1]] = UNMATCHABLE
        out_spell = dict(spell)
        out_spell[free[1]] = _absent_term(absent, dead, spell)
        yield extended, out_spell
    elif subject == obj and _absent_term(cp[0], dead, spell) == _absent_term(
        cp[2], dead, spell
    ):
        yield ids, spell


def _absent_term(
    spec: Tuple[int, object], dead: Dict[Variable, Term], spell: Dict[Variable, Term]
) -> Term:
    """The term an UNMATCHABLE path end stands for."""
    kind, payload = spec
    if kind == ABSENT:
        return payload
    return dead[payload] if payload in dead else spell[payload]


def _extend_id(
    ids: IdBindings, spec: Tuple[int, object], value: int
) -> Optional[IdBindings]:
    """Bind the spec's variable (if any) to the ID *value*; None on conflict.

    Conflict detection is an int compare: equal terms share one
    dictionary ID (numeric-literal canonicalization included), so ID
    equality coincides exactly with term equality within one graph.
    """
    if spec[0] != VAR:
        return ids
    var = spec[1]
    bound = ids.get(var)
    if bound is None:
        new = dict(ids)
        new[var] = value
        return new
    if bound == value:
        return ids
    return None


# ----------------------------------------------------------------------
# Property paths in ID space
# ----------------------------------------------------------------------
# The BFS frontiers, the dedup sets and the closure-memo entries all hold
# dictionary IDs; terms appear only when a solution is decoded.


def _eval_path_ids(
    path: ast.Path, graph: Graph, subject: Optional[int], obj: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """Yield (subject_id, object_id) pairs connected by *path*.

    Either end may be bound (an ID) or free (``None``).
    """
    if isinstance(path, ast.PathLink):
        pred = graph.term_id(path.iri)
        if pred is None:
            return
        for s, _, o in graph.triples_ids(subject, pred, obj):
            yield (s, o)
        return
    if isinstance(path, ast.PathInverse):
        for o, s in _eval_path_ids(path.path, graph, obj, subject):
            yield (s, o)
        return
    if isinstance(path, ast.PathAlternative):
        seen: Set[Tuple[int, int]] = set()
        for part in path.parts:
            for pair in _eval_path_ids(part, graph, subject, obj):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return
    if isinstance(path, ast.PathSequence):
        yield from _eval_sequence_ids(path.parts, graph, subject, obj)
        return
    if isinstance(path, ast.PathMod):
        yield from _eval_mod_ids(path, graph, subject, obj)
        return
    raise TypeError(f"unsupported path {path!r}")


def _eval_sequence_ids(
    parts: Tuple[ast.Path, ...],
    graph: Graph,
    subject: Optional[int],
    obj: Optional[int],
) -> Iterator[Tuple[int, int]]:
    if len(parts) == 1:
        yield from _eval_path_ids(parts[0], graph, subject, obj)
        return
    # Evaluate left-to-right when the subject is bound (or both free),
    # right-to-left when only the object is bound.
    if subject is None and obj is not None:
        last = parts[-1]
        rest = parts[:-1]
        seen: Set[Tuple[int, int]] = set()
        for mid, o_val in _eval_path_ids(last, graph, None, obj):
            for s_val, _ in _eval_sequence_ids(rest, graph, None, mid):
                pair = (s_val, o_val)
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return
    first = parts[0]
    rest = parts[1:]
    seen = set()
    for s_val, mid in _eval_path_ids(first, graph, subject, None):
        for _, o_val in _eval_sequence_ids(rest, graph, mid, obj):
            pair = (s_val, o_val)
            if pair not in seen:
                seen.add(pair)
                yield pair


def _path_successors_ids(
    path: ast.Path, graph: Graph, node: int, forward: bool
) -> Iterator[int]:
    """One application of *path* starting at the ID *node*."""
    if forward:
        for _, target in _eval_path_ids(path, graph, node, None):
            yield target
    else:
        for source, _ in _eval_path_ids(path, graph, None, node):
            yield source


#: Cap on memoized closures per graph.  Recursive (descendant) patterns
#: re-query the same closure for every candidate binding, so closures
#: live in the graph's per-version memo (kind ``"closures"``); past the
#: cap the oldest entry is evicted.  Keys are path-object identities, so
#: one-off ad-hoc queries leave entries no later query reuses.  On the
#: largest benchmark plan (539 operators, 13k triples) one query adds at
#: most 51 entries for Patterns A-D and the KB queries, and 2,722 for a
#: both-ends-free mutual-reachability join, so no query evicts its own
#: entries.
MAX_CLOSURES_PER_GRAPH = 4096


def _closure_ids(
    path: ast.Path, graph: Graph, start: int, forward: bool
) -> Iterator[int]:
    """IDs reachable from *start* by one or more applications of *path*.

    Yields in BFS discovery order, not set order, so results are
    deterministic given the store.
    """
    probe = active_probe()
    budget = active_budget()
    cache = None
    key = None
    if CLOSURE_CACHING:
        # The dict is captured once: should the graph mutate mid-BFS,
        # this closure lands in the superseded memo (TermReads.memo).
        cache = graph.memo("closures")
        # Key the path by identity, not value: hashing a nested path
        # expression recursively on every lookup costs more than the
        # BFS it saves.  The cached entry pins the path object so its
        # id cannot be recycled while the entry lives.
        key = (id(path), start, forward)
        hit = cache.get(key)
        if hit is not None:
            if probe is not None:
                probe.closure(path, start, forward, None, cached=True)
            # Warm hits still consume budget per yielded node: a cached
            # closure feeds the same downstream join work as a cold one,
            # and deadline/visit governance must see it.
            if budget is None:
                yield from hit[1]
            else:
                for node in hit[1]:
                    budget.tick()
                    yield node
            return
    frontier_sizes: Optional[List[int]] = [] if probe is not None else None
    seen: Set[int] = set()
    order: List[int] = []
    frontier = [start]
    while frontier:
        if frontier_sizes is not None:
            frontier_sizes.append(len(frontier))
        next_frontier: List[int] = []
        for node in frontier:
            for successor in _path_successors_ids(path, graph, node, forward):
                if budget is not None:
                    budget.tick()
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    if cache is not None:
        # (pinned path, discovery order, membership set) — the set backs
        # the both-bound membership test in _eval_mod_ids.
        graph.memo_insert(
            cache, key, (path, tuple(order), frozenset(order)),
            MAX_CLOSURES_PER_GRAPH,
        )
    if probe is not None:
        probe.closure(path, start, forward, frontier_sizes, cached=False)
    yield from order


def _closure_contains_ids(
    path: ast.Path, graph: Graph, start: int, target: int
) -> bool:
    """Is *target* forward-reachable from *start*?  Memoized membership.

    A warm closure answers in O(1) against the cached membership set —
    one budget tick instead of a scan of the whole closure sequence.
    Cold closures run (and memoize) the full BFS via :func:`_closure_ids`.
    """
    if CLOSURE_CACHING:
        hit = graph.memo("closures").get((id(path), start, True))
        if hit is not None:
            budget = active_budget()
            if budget is not None:
                budget.tick()
            probe = active_probe()
            if probe is not None:
                probe.closure(path, start, True, None, cached=True)
            return target in hit[2]
    found = False
    # Drain fully (no early break) so _closure_ids reaches its cache
    # write and the next membership probe for this start is O(1).
    for node in _closure_ids(path, graph, start, forward=True):
        if node == target:
            found = True
    return found


def _closure_decision(plan, total_nodes: int) -> Dict[str, object]:
    """Probe payload describing a both-free closure-direction decision."""
    return {
        "direction": plan.direction,
        "mode": "full-scan" if plan.seeds is None else "seeded",
        "seeds": total_nodes if plan.seeds is None else len(plan.seeds),
        "totalNodes": total_nodes,
        "forwardCandidates": plan.forward_count,
        "reverseCandidates": plan.reverse_count,
    }


def _eval_mod_ids(
    path: ast.PathMod, graph: Graph, subject: Optional[int], obj: Optional[int]
) -> Iterator[Tuple[int, int]]:
    inner = path.path
    mod = path.modifier
    emitted: Set[Tuple[int, int]] = set()

    def emit(pair: Tuple[int, int]) -> Iterator[Tuple[int, int]]:
        if pair not in emitted:
            emitted.add(pair)
            yield pair

    if mod == "?":
        # zero-length
        if subject is not None and obj is not None:
            if subject == obj:
                yield from emit((subject, obj))
        elif subject is not None:
            yield from emit((subject, subject))
        elif obj is not None:
            yield from emit((obj, obj))
        else:
            for node in graph.node_ids():
                yield from emit((node, node))
        for pair in _eval_path_ids(inner, graph, subject, obj):
            yield from emit(pair)
        return

    budget = active_budget()
    include_zero = mod == "*"
    if subject is not None:
        if obj is not None:
            # Both ends bound: memoized membership test instead of a
            # scan of the whole closure sequence per candidate pair —
            # this is what turns the pathological mutual-reachability
            # join from O(pairs x closure) into O(pairs).
            if include_zero and obj == subject:
                yield from emit((subject, subject))
            if _closure_contains_ids(inner, graph, subject, obj):
                if budget is not None:
                    budget.tick()
                yield from emit((subject, obj))
            return
        if include_zero:
            yield from emit((subject, subject))
        for target in _closure_ids(inner, graph, subject, forward=True):
            if budget is not None:
                budget.tick()
            yield from emit((subject, target))
        return
    if obj is not None:
        if include_zero:
            yield from emit((obj, obj))
        for source in _closure_ids(inner, graph, obj, forward=False):
            if budget is not None:
                budget.tick()
            yield from emit((source, obj))
        return
    # Both ends free: zero-length pairs cover every node, but non-empty
    # closures can only start from the planner's endpoint candidates.
    nodes = graph.node_ids()
    if include_zero:
        for node in nodes:
            yield from emit((node, node))
    plan = planner.plan_closure(inner, graph)
    probe = active_probe()
    if probe is not None:
        probe.closure_plan(inner, _closure_decision(plan, len(nodes)))
    # A literal can start a path too: through an inverse step, or at
    # length zero inside the inner path (``(p?)+``).
    if plan.direction == "forward":
        for node in nodes if plan.seeds is None else plan.seeds:
            for target in _closure_ids(inner, graph, node, forward=True):
                if budget is not None:
                    budget.tick()
                yield from emit((node, target))
        return
    for node in plan.seeds:  # reverse: seeds are the reachable endpoints
        for source in _closure_ids(inner, graph, node, forward=False):
            if budget is not None:
                budget.tick()
            yield from emit((source, node))


# ----------------------------------------------------------------------
# Projection, aggregation, solution modifiers
# ----------------------------------------------------------------------
def _project_plain(
    query: ast.SelectQuery, graph: Graph, solutions: List[Bindings]
) -> Tuple[List[Tuple], List[str]]:
    if query.is_select_star:
        names: List[str] = []
        seen = set()
        for var in sorted(
            ast.walk_pattern_variables(query.where), key=lambda v: v.name
        ):
            if var.name not in seen:
                seen.add(var.name)
                names.append(var.name)
        rows = [
            tuple(solution.get(Variable(name)) for name in names)
            for solution in solutions
        ]
        return rows, names
    names = [item.output_name() for item in query.select]
    rows = []
    for solution in solutions:
        row = []
        for item in query.select:
            try:
                row.append(
                    evaluate_expression(item.expr, solution, graph, group_matches)
                )
            except ExprError:
                row.append(None)
        rows.append(tuple(row))
    return rows, names


def _group_key(exprs: List[ast.Expr], solution: Bindings, graph: Graph) -> Tuple:
    key = []
    for expr in exprs:
        try:
            key.append(evaluate_expression(expr, solution, graph, group_matches))
        except ExprError:
            key.append(None)
    return tuple(key)


def _project_aggregated(
    query: ast.SelectQuery, graph: Graph, solutions: List[Bindings]
) -> Tuple[List[Tuple], List[str]]:
    groups: Dict[Tuple, List[Bindings]] = {}
    if query.group_by:
        for solution in solutions:
            groups.setdefault(
                _group_key(query.group_by, solution, graph), []
            ).append(solution)
    else:
        groups[()] = solutions
    names = [item.output_name() for item in query.select]
    rows: List[Tuple] = []
    for key, members in groups.items():
        if query.having and not _passes_having(query, graph, members):
            continue
        row = []
        for item in query.select:
            row.append(_eval_with_aggregates(item.expr, members, graph, query))
        rows.append(tuple(row))
    return rows, names


def _passes_having(
    query: ast.SelectQuery, graph: Graph, members: List[Bindings]
) -> bool:
    for expr in query.having:
        value = _eval_with_aggregates(expr, members, graph, query)
        if value is None:
            return False
        try:
            if not effective_boolean_value(value):
                return False
        except ExprError:
            return False
    return True


def _eval_with_aggregates(
    expr: ast.Expr, members: List[Bindings], graph: Graph, query: ast.SelectQuery
) -> Optional[Term]:
    """Evaluate an expression that may contain aggregates over a group."""
    if isinstance(expr, ast.Aggregate):
        return _eval_aggregate(expr, members, graph)
    if isinstance(expr, ast.TermExpr):
        term = expr.term
        if isinstance(term, Variable):
            # A bare variable in an aggregate query must be a group key;
            # take its value from the first member.
            if members and term in members[0]:
                return members[0][term]
            return None
        return term
    if isinstance(expr, ast.UnaryExpr):
        inner = _eval_with_aggregates(expr.operand, members, graph, query)
        if inner is None:
            return None
        try:
            return evaluate_expression(
                ast.UnaryExpr(expr.op, ast.TermExpr(inner)), {}, graph, group_matches
            )
        except ExprError:
            return None
    if isinstance(expr, ast.BinaryExpr):
        left = _eval_with_aggregates(expr.left, members, graph, query)
        right = _eval_with_aggregates(expr.right, members, graph, query)
        if left is None or right is None:
            return None
        try:
            return evaluate_expression(
                ast.BinaryExpr(expr.op, ast.TermExpr(left), ast.TermExpr(right)),
                {},
                graph,
                group_matches,
            )
        except ExprError:
            return None
    if isinstance(expr, ast.FunctionCall):
        args = []
        for arg in expr.args:
            value = _eval_with_aggregates(arg, members, graph, query)
            if value is None:
                return None
            args.append(ast.TermExpr(value))
        try:
            return evaluate_expression(
                ast.FunctionCall(expr.name, tuple(args)), {}, graph, group_matches
            )
        except ExprError:
            return None
    try:
        return evaluate_expression(
            expr, members[0] if members else {}, graph, group_matches
        )
    except ExprError:
        return None


def _eval_aggregate(
    agg: ast.Aggregate, members: List[Bindings], graph: Graph
) -> Optional[Term]:
    if agg.name == "COUNT" and agg.expr is None:
        return Literal(str(len(members)), datatype=_XSD + "integer")
    values: List[Term] = []
    for member in members:
        try:
            values.append(
                evaluate_expression(agg.expr, member, graph, group_matches)
            )
        except ExprError:
            continue
    if agg.distinct:
        unique: List[Term] = []
        seen: Set[Term] = set()
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    if agg.name == "COUNT":
        return Literal(str(len(values)), datatype=_XSD + "integer")
    if agg.name == "SAMPLE":
        return values[0] if values else None
    if agg.name == "GROUP_CONCAT":
        parts = []
        for value in values:
            if isinstance(value, Literal):
                parts.append(value.lexical)
            elif isinstance(value, URIRef):
                parts.append(value.value)
            else:
                parts.append(value.n3())
        return Literal(agg.separator.join(parts))
    numbers = []
    for value in values:
        if isinstance(value, Literal):
            num = value.as_number()
            if num is not None:
                numbers.append(num)
                continue
        if agg.name in ("MIN", "MAX"):
            continue
        return None  # SUM/AVG over non-numbers is an error
    if agg.name in ("MIN", "MAX"):
        if not values:
            return None
        chosen = (min if agg.name == "MIN" else max)(values, key=order_key)
        return chosen
    if not numbers:
        return None if agg.name == "AVG" else Literal("0", datatype=_XSD + "integer")
    if agg.name == "SUM":
        return _num_literal(sum(numbers))
    if agg.name == "AVG":
        return _num_literal(sum(numbers) / len(numbers))
    return None


def _num_literal(value: float) -> Literal:
    if value == int(value) and abs(value) < 1e15:
        return Literal(str(int(value)), datatype=_XSD + "integer")
    return Literal(repr(value), datatype=_XSD + "double")


def _order_solutions(
    query: ast.SelectQuery, graph: Graph, solutions: List[Bindings]
) -> List[Bindings]:
    """Sort unprojected solutions by the ORDER BY conditions (stable).

    Projection aliases (``SELECT (expr AS ?x)``) are in scope for ORDER
    BY per the SPARQL spec, so each solution is extended with the
    evaluated aliases before the sort keys are computed.
    """
    alias_items = [
        (item.alias, item.expr)
        for item in query.select
        if item.alias is not None
    ]

    def extend(solution: Bindings) -> Bindings:
        if not alias_items:
            return solution
        extended = dict(solution)
        for alias, expr in alias_items:
            if alias in extended:
                continue
            try:
                extended[alias] = evaluate_expression(
                    expr, solution, graph, group_matches
                )
            except ExprError:
                pass
        return extended

    decorated = [(extend(solution), solution) for solution in solutions]
    for position in reversed(range(len(query.order_by))):
        cond = query.order_by[position]

        def key_for(pair, cond=cond):
            try:
                value = evaluate_expression(
                    cond.expr, pair[0], graph, group_matches
                )
            except ExprError:
                value = None
            return order_key(value)

        decorated = sorted(decorated, key=key_for, reverse=cond.descending)
    return [solution for _, solution in decorated]


def _apply_order(
    query: ast.SelectQuery, graph: Graph, rows: List[Tuple], names: List[str]
) -> List[Tuple]:
    """Sort projected *rows* by the ORDER BY conditions.

    ORDER BY expressions may reference projected names (including AS
    aliases), so a bindings dict is rebuilt per row from the projection.
    Python's sort is stable, so conditions are applied right-to-left.
    """

    def row_bindings(row: Tuple) -> Bindings:
        bindings: Bindings = {}
        for name, value in zip(names, row):
            if value is not None:
                bindings[Variable(name)] = value
        return bindings

    decorated = rows
    for position in reversed(range(len(query.order_by))):
        cond = query.order_by[position]

        def key_for(row, cond=cond):
            try:
                value = evaluate_expression(
                    cond.expr, row_bindings(row), graph, group_matches
                )
            except ExprError:
                value = None
            return order_key(value)

        decorated = sorted(decorated, key=key_for, reverse=cond.descending)
    return decorated


def _apply_distinct(rows: List[Tuple], variables: List[str]) -> List[Tuple]:
    seen: Set[Tuple] = set()
    out: List[Tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out
