"""SPARQL query evaluation over :class:`repro.rdf.Graph`.

Evaluation is streaming where possible: a group graph pattern produces an
iterator of binding dictionaries (``Variable -> Term``).  Basic graph
patterns are ordered ahead of time by the cost-based planner
(:mod:`repro.sparql.planner`) — exact DP over join orders for small
BGPs, greedy cheapest-next-connected for large ones, memoized per
(pattern set, bound vars, graph version) — with the original
per-solution greedy (most-bound positions, estimate tie-break) retained
as the ``COST_PLANNER = False`` ablation.  Property paths are evaluated
with breadth-first fixpoints, matching SPARQL 1.1 semantics for
``/ | ^ + * ?``; both-ends-free closures are seeded from the planner's
cheaper endpoint set instead of every graph node, and closures with
both ends bound become memoized membership tests.

Against a dictionary-encoded :class:`~repro.rdf.graph.Graph`, the BGP
join core and the property-path fixpoints run entirely in **ID space**:
query terms are encoded once per BGP, bindings are carried as
``Variable -> int`` dictionaries, conflict checks compare machine ints,
and terms are decoded only when solutions cross back into the term world
(FILTER evaluation, OPTIONAL/UNION sub-groups, projection).  A graph
object without the ID-level API (or the ``ID_SPACE_JOIN`` ablation
switch turned off) falls back to the original term-space path; both
paths enumerate the same matches in the same order because they iterate
the same underlying indexes.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.core.limits import active_budget
from repro.obs.instrument import active_probe
from repro.rdf.graph import Graph
from repro.rdf.term import BNode, Literal, Term, URIRef, Variable
from repro.sparql import ast, planner
from repro.sparql.functions import (
    ExprError,
    effective_boolean_value,
    evaluate_expression,
    order_key,
)
from repro.sparql.results import ResultRow, ResultSet

Bindings = Dict[Variable, Term]

_XSD = "http://www.w3.org/2001/XMLSchema#"

#: Ablation switches (used by benchmarks; leave True in production).
#: JOIN_REORDERING toggles greedy estimate-based BGP ordering;
#: CLOSURE_CACHING toggles the per-graph property-path closure memo;
#: ID_SPACE_JOIN toggles the dictionary-encoded (int-space) BGP core;
#: COST_PLANNER toggles the ahead-of-time cost-based plans (BGP join
#: order and closure direction/seeding) — off, evaluation falls back to
#: the per-solution greedy and the full-node-scan closure paths.
JOIN_REORDERING = True
CLOSURE_CACHING = True
ID_SPACE_JOIN = True
COST_PLANNER = True


def _id_capable(graph) -> bool:
    """Does *graph* expose the full ID-level store API?

    A capability check rather than ``isinstance(graph, Graph)``: the
    compiled ID-space join core, the cost planner and the closure BFS
    must also engage for :class:`repro.rdf.snapshot.GraphView` — the
    zero-copy shared-memory stand-in the multiprocess pool evaluates
    against — and for any future store that advertises the API.
    """
    return getattr(graph, "supports_id_api", False)


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

    SPARQL scopes FILTERs to the whole group, so filters are collected
    and applied once every non-filter element has been joined.
    """
    patterns = [e for e in group.elements if not isinstance(e, ast.Filter)]
    filters = [e for e in group.elements if isinstance(e, ast.Filter)]
    stream: Iterable[Bindings] = iter([dict(bindings)])
    index = 0
    while index < len(patterns):
        element = patterns[index]
        if isinstance(element, ast.TriplePattern):
            # Batch this run of consecutive triple patterns into one BGP
            # so the greedy reorderer sees them all.
            run: List[ast.TriplePattern] = []
            while index < len(patterns) and isinstance(
                patterns[index], ast.TriplePattern
            ):
                run.append(patterns[index])
                index += 1
            stream = _join_bgp(stream, run, graph)
            continue
        stream = _apply_element(stream, element, graph)
        index += 1
    for solution in stream:
        if _passes_filters(filters, solution, graph):
            yield solution


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
# Basic graph patterns with greedy reordering
# ----------------------------------------------------------------------
def _join_bgp(
    stream: Iterable[Bindings], patterns: List[ast.TriplePattern], graph: Graph
) -> Iterator[Bindings]:
    budget = active_budget()
    # The probe is fetched once per BGP join (not per binding) and
    # threaded down the recursion; with no probe installed every hook
    # site below is a single ``is not None`` check.
    probe = active_probe()
    encoded = ID_SPACE_JOIN and _id_capable(graph)
    # Planning needs compiled patterns (for the static cost model) even
    # on the term-space path, and applies identically to both join
    # cores so they keep emitting solutions in the same order.
    planned = (
        COST_PLANNER
        and JOIN_REORDERING
        and len(patterns) > 1
        and _id_capable(graph)
    )
    compiled = _compile_bgp(patterns, graph) if (encoded or planned) else None
    if probe is not None:
        probe.bgp(patterns, compiled if encoded else None)
    if planned:
        # One plan per distinct bound-variable set; within this call the
        # (tiny) set of orders seen is cached locally so the per-graph
        # memo is consulted once per bound set, not per solution.
        pattern_vars = frozenset(v for cp in compiled for v in cp[3])
        orders: Dict[frozenset, list] = {}
        reported: Set[int] = set()
        source = compiled if encoded else patterns
        for solution in stream:
            bound = frozenset(solution) & pattern_vars
            ordered = orders.get(bound)
            if ordered is None:
                plan = planner.plan_bgp(patterns, compiled, graph, bound)
                if probe is not None and id(plan) not in reported:
                    reported.add(id(plan))
                    probe.bgp_plan(patterns, compiled if encoded else None, plan)
                ordered = [source[i] for i in plan.order]
                orders[bound] = ordered
            if encoded:
                yield from _eval_bgp_encoded(
                    ordered, graph, solution, budget, probe, planned=True
                )
            else:
                yield from _eval_bgp_ordered(
                    ordered, 0, graph, solution, budget, probe
                )
        return
    if encoded:
        for solution in stream:
            yield from _eval_bgp_encoded(compiled, graph, solution, budget, probe)
        return
    for solution in stream:
        yield from _eval_bgp(patterns, graph, solution, budget, probe)


def _eval_bgp(
    patterns: List[ast.TriplePattern],
    graph: Graph,
    bindings: Bindings,
    budget=None,
    probe=None,
) -> Iterator[Bindings]:
    if not patterns:
        yield bindings
        return
    remaining = list(patterns)
    order = _choose_next(remaining, bindings, graph)
    pattern = remaining.pop(order)
    if probe is not None:
        probe.pattern_input(pattern, bindings)
    for extended in _match_triple(pattern, graph, bindings):
        if budget is not None:
            budget.tick()
        if probe is not None:
            probe.pattern_output(pattern)
        yield from _eval_bgp(remaining, graph, extended, budget, probe)


def _eval_bgp_ordered(
    ordered: List[ast.TriplePattern],
    position: int,
    graph: Graph,
    bindings: Bindings,
    budget=None,
    probe=None,
) -> Iterator[Bindings]:
    """Term-space BGP recursion over a planner-fixed pattern order."""
    if position == len(ordered):
        yield bindings
        return
    pattern = ordered[position]
    if probe is not None:
        probe.pattern_input(pattern, bindings)
    position += 1
    for extended in _match_triple(pattern, graph, bindings):
        if budget is not None:
            budget.tick()
        if probe is not None:
            probe.pattern_output(pattern)
        yield from _eval_bgp_ordered(
            ordered, position, graph, extended, budget, probe
        )


#: Assumed result sizes for property-path patterns by number of bound
#: endpoints (0, 1, 2).  A path with a bound endpoint explores one BFS
#: closure, which on plan graphs is far cheaper than enumerating a large
#: unbound candidate set first.
_PATH_ESTIMATES = (1 << 30, 64, 2)


def _choose_next(
    patterns: List[ast.TriplePattern], bindings: Bindings, graph: Graph
) -> int:
    """Index of the cheapest remaining pattern under the current bindings.

    Two-phase greedy: rank first by number of bound positions (cheap);
    break ties with exact index-based estimates from the triple store
    (property paths use a coarse bound-endpoint heuristic).  The tie
    break is what routes recursive queries through the bound end of a
    path instead of enumerating a large unbound candidate set.
    """
    if len(patterns) == 1 or not JOIN_REORDERING:
        return 0

    def bound_count(tp: ast.TriplePattern) -> int:
        count = 0
        if not isinstance(tp.subject, Variable) or tp.subject in bindings:
            count += 1
        if not isinstance(tp.predicate, ast.Path):
            if not isinstance(tp.predicate, Variable) or tp.predicate in bindings:
                count += 1
        if not isinstance(tp.obj, Variable) or tp.obj in bindings:
            count += 1
        return count

    counts = [bound_count(tp) for tp in patterns]
    best_count = max(counts)
    candidates = [i for i, c in enumerate(counts) if c == best_count]
    if len(candidates) == 1:
        return candidates[0]

    def estimate(tp: ast.TriplePattern) -> Tuple[int, int]:
        subject = _resolve(tp.subject, bindings)
        obj = _resolve(tp.obj, bindings)
        if isinstance(tp.predicate, ast.Path):
            bound_ends = (subject is not None) + (obj is not None)
            return (_PATH_ESTIMATES[bound_ends], 1)
        predicate = _resolve(tp.predicate, bindings)
        return (graph.estimate(subject, predicate, obj), 0)

    return min(candidates, key=lambda i: estimate(patterns[i]))


def _resolve(term: Term, bindings: Bindings) -> Optional[Term]:
    """Ground value of *term* under bindings, or None if still free."""
    if isinstance(term, Variable):
        return bindings.get(term)
    return term


def _match_triple(
    pattern: ast.TriplePattern, graph: Graph, bindings: Bindings
) -> Iterator[Bindings]:
    subject = _resolve(pattern.subject, bindings)
    obj = _resolve(pattern.obj, bindings)
    predicate = pattern.predicate
    if isinstance(predicate, ast.Path):
        for s_val, o_val in eval_path(predicate, graph, subject, obj):
            extended = _extend(bindings, pattern.subject, s_val)
            if extended is None:
                continue
            extended = _extend(extended, pattern.obj, o_val)
            if extended is not None:
                yield extended
        return
    pred = _resolve(predicate, bindings)
    for s_val, p_val, o_val in graph.triples(subject, pred, obj):
        extended = _extend(bindings, pattern.subject, s_val)
        if extended is None:
            continue
        extended = _extend(extended, predicate, p_val)
        if extended is None:
            continue
        extended = _extend(extended, pattern.obj, o_val)
        if extended is not None:
            yield extended


def _extend(bindings: Bindings, term: Term, value: Term) -> Optional[Bindings]:
    """Bind *term* (if a variable) to *value*; None on conflict."""
    if not isinstance(term, Variable):
        return bindings
    bound = bindings.get(term)
    if bound is None:
        new = dict(bindings)
        new[term] = value
        return new
    if bound == value:
        return bindings
    return None


# ----------------------------------------------------------------------
# ID-space BGP join core (dictionary-encoded graphs)
# ----------------------------------------------------------------------
#: Sentinel for a pattern position whose ground value is provably absent
#: from the graph dictionary (real IDs are always >= 0).  A pattern with
#: an unmatchable position matches nothing.  The planner owns the
#: compiled-pattern spec vocabulary (it consumes compiled patterns but
#: must not import this module); the historical underscore names are
#: kept here for the profiler and tests.
_UNMATCHABLE = planner.UNMATCHABLE

#: Position-spec kinds for compiled triple patterns.
_GROUND = planner.GROUND  # pre-encoded dictionary ID
_VAR = planner.VAR        # a Variable, resolved against the ID bindings
_ABSENT = planner.ABSENT  # ground term not in the dictionary: matches nothing
_PATH = planner.PATH      # predicate position only: a property path

IdBindings = Dict[Variable, int]

#: A compiled pattern: (subject_spec, predicate_spec, object_spec) where
#: each spec is a (kind, payload) pair.  Ground terms are encoded ONCE
#: per _join_bgp call instead of per recursion step per solution.
#: (s_spec, p_spec, o_spec, variables, static_bound) — the last two are
#: precomputed for the join-order heuristic: *variables* lists the
#: Variable payloads of the _VAR positions (one entry per occurrence),
#: *static_bound* counts the positions that are bound regardless of the
#: current solution (_GROUND / _ABSENT; _PATH predicates count zero,
#: matching the term-space heuristic).
_CompiledPattern = Tuple[
    Tuple[int, object],
    Tuple[int, object],
    Tuple[int, object],
    Tuple[Variable, ...],
    int,
]


def _compile_bgp(
    patterns: List[ast.TriplePattern], graph: Graph
) -> List[_CompiledPattern]:
    """Pre-encode every ground pattern term against the graph dictionary."""

    def position(term) -> Tuple[int, object]:
        if isinstance(term, Variable):
            return (_VAR, term)
        tid = graph.term_id(term)
        return (_ABSENT, None) if tid is None else (_GROUND, tid)

    compiled: List[_CompiledPattern] = []
    for tp in patterns:
        pred = tp.predicate
        if isinstance(pred, ast.Path):
            p_spec: Tuple[int, object] = (_PATH, pred)
        else:
            p_spec = position(pred)
        s_spec = position(tp.subject)
        o_spec = position(tp.obj)
        pat_vars: List[Variable] = []
        static_bound = 0
        for spec in (s_spec, p_spec, o_spec):
            if spec[0] == _VAR:
                pat_vars.append(spec[1])
            elif spec[0] != _PATH:
                static_bound += 1
        compiled.append((s_spec, p_spec, o_spec, tuple(pat_vars), static_bound))
    return compiled


def _eval_bgp_encoded(
    compiled: List[_CompiledPattern],
    graph: Graph,
    bindings: Bindings,
    budget=None,
    probe=None,
    planned: bool = False,
) -> Iterator[Bindings]:
    """Evaluate a compiled BGP in ID space, decoding only at the boundary.

    Incoming term bindings are encoded once; variables bound to terms
    the graph has never seen go into *dead* — any pattern referencing
    one matches nothing, while solutions not touching it pass through
    with the original term binding intact.  With *planned* true,
    *compiled* is already in plan order and evaluated as-is; otherwise
    the per-solution greedy picks the order.
    """
    ids: IdBindings = {}
    dead: Set[Variable] = set()
    term_id = graph.term_id
    for var, term in bindings.items():
        tid = term_id(term)
        if tid is None:
            dead.add(var)
        else:
            ids[var] = tid
    id_term = graph.id_term
    if planned:
        solutions = _eval_bgp_ids_ordered(
            compiled, 0, graph, ids, dead, _NO_SPELL, budget, probe
        )
    else:
        solutions = _eval_bgp_ids(
            compiled, graph, ids, dead, _NO_SPELL, budget, probe
        )
    for solution_ids, spell in solutions:
        out = dict(bindings)
        for var, tid in solution_ids.items():
            if var not in out:
                own = spell.get(var) if spell else None
                out[var] = own if own is not None else id_term(tid)
        yield out


#: Shared empty spelling-override map — almost every solution carries no
#: overrides, so they all alias this one dict (copy-on-write on bind).
_NO_SPELL: Dict[Variable, Term] = {}


def _eval_bgp_ids(
    compiled: List[_CompiledPattern],
    graph: Graph,
    ids: IdBindings,
    dead: Set[Variable],
    spell: Dict[Variable, Term],
    budget=None,
    probe=None,
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    if not compiled:
        yield ids, spell
        return
    remaining = list(compiled)
    order = _choose_next_ids(remaining, ids, dead, graph)
    pattern = remaining.pop(order)
    if probe is not None:
        probe.pattern_input(pattern, ids)
    for ext_ids, ext_spell in _match_triple_ids(pattern, graph, ids, dead, spell):
        if budget is not None:
            budget.tick()
        if probe is not None:
            probe.pattern_output(pattern)
        yield from _eval_bgp_ids(
            remaining, graph, ext_ids, dead, ext_spell, budget, probe
        )


def _eval_bgp_ids_ordered(
    ordered: List[_CompiledPattern],
    position: int,
    graph: Graph,
    ids: IdBindings,
    dead: Set[Variable],
    spell: Dict[Variable, Term],
    budget=None,
    probe=None,
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    """ID-space BGP recursion over a planner-fixed pattern order.

    Skipping the per-solution ``_choose_next_ids`` is itself a win on
    deep joins: the order was decided once from static selectivities.
    """
    if position == len(ordered):
        yield ids, spell
        return
    pattern = ordered[position]
    if probe is not None:
        probe.pattern_input(pattern, ids)
    position += 1
    for ext_ids, ext_spell in _match_triple_ids(pattern, graph, ids, dead, spell):
        if budget is not None:
            budget.tick()
        if probe is not None:
            probe.pattern_output(pattern)
        yield from _eval_bgp_ids_ordered(
            ordered, position, graph, ext_ids, dead, ext_spell, budget, probe
        )


def _resolve_spec(
    spec: Tuple[int, object], ids: IdBindings, dead: Set[Variable]
) -> Optional[int]:
    """ID of a compiled position under the bindings: an int when ground
    and present, ``None`` when still free, ``_UNMATCHABLE`` when the
    pattern provably matches nothing through this position."""
    kind, payload = spec
    if kind == _GROUND:
        return payload
    if kind == _VAR:
        if dead and payload in dead:
            return _UNMATCHABLE
        return ids.get(payload)
    return _UNMATCHABLE  # _ABSENT


def _choose_next_ids(
    compiled: List[_CompiledPattern],
    ids: IdBindings,
    dead: Set[Variable],
    graph: Graph,
) -> int:
    """ID-space twin of :func:`_choose_next` (same two-phase greedy).

    The ranking decisions are bit-identical to the term-space version:
    a compiled _ABSENT position corresponds to a ground term for which
    ``graph.estimate`` would return 0, and bound/free classification of
    variables is unchanged.
    """
    if len(compiled) == 1 or not JOIN_REORDERING:
        return 0

    # Phase 1: most-bound-positions-first.  A compiled pattern carries
    # its static bound count and variable occurrences, so this is a
    # membership check per variable — no spec unpacking in the loop.
    best_count = -1
    candidates: List[int] = []
    for i, cp in enumerate(compiled):
        count = cp[4]
        for var in cp[3]:
            if var in ids or (dead and var in dead):
                count += 1
        if count > best_count:
            best_count = count
            candidates = [i]
        elif count == best_count:
            candidates.append(i)
    if len(candidates) == 1:
        return candidates[0]

    # Phase 2: cheapest estimate among the tied candidates.  Inlined
    # _resolve_spec — this runs once per tied pattern per solution.
    ids_get = ids.get
    best_i = -1
    best_key: Tuple[int, int] = (0, 0)
    for i in candidates:
        cp = compiled[i]
        s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
        kind, payload = s_spec
        if kind == _GROUND:
            subject = payload
        elif kind == _VAR:
            subject = _UNMATCHABLE if dead and payload in dead else ids_get(payload)
        else:
            subject = _UNMATCHABLE
        kind, payload = o_spec
        if kind == _GROUND:
            obj = payload
        elif kind == _VAR:
            obj = _UNMATCHABLE if dead and payload in dead else ids_get(payload)
        else:
            obj = _UNMATCHABLE
        if p_spec[0] == _PATH:
            bound_ends = (subject is not None) + (obj is not None)
            key = (_PATH_ESTIMATES[bound_ends], 1)
        else:
            kind, payload = p_spec
            if kind == _GROUND:
                predicate = payload
            elif kind == _VAR:
                predicate = (
                    _UNMATCHABLE if dead and payload in dead else ids_get(payload)
                )
            else:
                predicate = _UNMATCHABLE
            if _UNMATCHABLE in (subject, predicate, obj):
                # mirrors graph.estimate() == 0 for absent terms
                key = (0, 0)
            else:
                key = (graph.estimate_ids(subject, predicate, obj), 0)
        if best_i < 0 or key < best_key:
            best_i = i
            best_key = key
    return best_i


def _match_triple_ids(
    cp: _CompiledPattern,
    graph: Graph,
    ids: IdBindings,
    dead: Set[Variable],
    spell: Dict[Variable, Term],
) -> Iterator[Tuple[IdBindings, Dict[Variable, Term]]]:
    s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
    # Inlined _resolve_spec for all three positions — this is the hot
    # loop of every BGP join; an unmatchable position returns early.
    kind, payload = s_spec
    if kind == _GROUND:
        subject = payload
    elif kind == _VAR:
        if dead and payload in dead:
            return
        subject = ids.get(payload)
    else:
        return  # _ABSENT
    kind, payload = o_spec
    if kind == _GROUND:
        obj = payload
    elif kind == _VAR:
        if dead and payload in dead:
            return
        obj = ids.get(payload)
    else:
        return  # _ABSENT
    if p_spec[0] == _PATH:
        for s_id, o_id in _eval_path_ids(p_spec[1], graph, subject, obj):
            extended = _extend_id(ids, s_spec, s_id)
            if extended is None:
                continue
            extended = _extend_id(extended, o_spec, o_id)
            if extended is not None:
                yield extended, spell
        return
    kind, payload = p_spec
    if kind == _GROUND:
        pred = payload
    elif kind == _VAR:
        if dead and payload in dead:
            return
        pred = ids.get(payload)
    else:
        return  # _ABSENT
    # The store filters on every resolved position, so a returned triple
    # already agrees with the bound ones; only the genuinely free
    # variable positions extend the solution.  Resolving them up front
    # means one dict copy per match instead of one per position, and a
    # duplicated free variable (``?x :p ?x``) shows up twice here so the
    # consistency check below still applies.
    free: List[Tuple[Variable, int]] = []
    if s_spec[0] == _VAR and subject is None:
        free.append((s_spec[1], 0))
    if p_spec[0] == _VAR and pred is None:
        free.append((p_spec[1], 1))
    if o_spec[0] == _VAR and obj is None:
        free.append((o_spec[1], 2))
    # Spelling fidelity: a variable first bound from a cell whose literal
    # spelling differs from the dictionary representative must decode to
    # the cell's own spelling (the term-keyed store's behavior).  The
    # override is recorded only on first bind — re-matching the same
    # value later keeps the original binding, exactly like _extend.
    track_spelling = obj is None and o_spec[0] == _VAR and graph.has_spellings
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


def _extend_id(
    ids: IdBindings, spec: Tuple[int, object], value: int
) -> Optional[IdBindings]:
    """Bind the spec's variable (if any) to the ID *value*; None on conflict.

    Conflict detection is an int compare: equal terms share one
    dictionary ID (numeric-literal canonicalization included), so ID
    equality coincides exactly with term equality within one graph.
    """
    if spec[0] != _VAR:
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
# Property paths
# ----------------------------------------------------------------------
def eval_path(
    path: ast.Path, graph: Graph, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    """Yield (subject, object) pairs connected by *path*.

    Either end may be bound (a ground term) or free (``None``).
    """
    if isinstance(path, ast.PathLink):
        for s, _, o in graph.triples(subject, path.iri, obj):
            yield (s, o)
        return
    if isinstance(path, ast.PathInverse):
        for o, s in eval_path(path.path, graph, obj, subject):
            yield (s, o)
        return
    if isinstance(path, ast.PathAlternative):
        seen: Set[Tuple[Term, Term]] = set()
        for part in path.parts:
            for pair in eval_path(part, graph, subject, obj):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return
    if isinstance(path, ast.PathSequence):
        yield from _eval_sequence(path.parts, graph, subject, obj)
        return
    if isinstance(path, ast.PathMod):
        yield from _eval_mod(path, graph, subject, obj)
        return
    raise TypeError(f"unsupported path {path!r}")


def _eval_sequence(
    parts: Tuple[ast.Path, ...],
    graph: Graph,
    subject: Optional[Term],
    obj: Optional[Term],
) -> Iterator[Tuple[Term, Term]]:
    if len(parts) == 1:
        yield from eval_path(parts[0], graph, subject, obj)
        return
    # Evaluate left-to-right when the subject is bound (or both free),
    # right-to-left when only the object is bound.
    if subject is None and obj is not None:
        last = parts[-1]
        rest = parts[:-1]
        seen: Set[Tuple[Term, Term]] = set()
        for mid, o_val in eval_path(last, graph, None, obj):
            for s_val, _ in _eval_sequence(rest, graph, None, mid):
                pair = (s_val, o_val)
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return
    first = parts[0]
    rest = parts[1:]
    seen = set()
    for s_val, mid in eval_path(first, graph, subject, None):
        for _, o_val in _eval_sequence(rest, graph, mid, obj):
            pair = (s_val, o_val)
            if pair not in seen:
                seen.add(pair)
                yield pair


def _path_successors(
    path: ast.Path, graph: Graph, node: Term, forward: bool
) -> Iterator[Term]:
    """One application of *path* starting at *node*."""
    if forward:
        for _, target in eval_path(path, graph, node, None):
            yield target
    else:
        for source, _ in eval_path(path, graph, None, node):
            yield source


# Per-graph memo for transitive-closure path evaluation.  Recursive
# (descendant) patterns re-query the same closure for every candidate
# binding; caching turns the repeated BFS into a dictionary lookup.  The
# state lives in an attribute ON the graph object, so it shares the
# graph's lifetime with no weak-reference machinery, and — critically —
# no hashing of the graph: a WeakKeyDictionary here would fall back to
# the value-based ``Graph.__eq__`` (an O(size) triple comparison) on any
# bucket collision, which profiling showed dominating recursive-pattern
# evaluation.  Invalidation goes through the graph's mutation counter.
_CLOSURE_ATTR = "_sparql_closure_cache"

#: Cap on memoized closures per graph; past it the oldest entry is
#: evicted.  Keys are path-object identities, so one-off ad-hoc queries
#: leave entries no later query reuses.  On the largest benchmark plan
#: (539 operators, 13k triples) one query adds at most 51 entries for
#: Patterns A-D and the KB queries, and 2,722 for a both-ends-free
#: mutual-reachability join, so no query evicts its own entries.
MAX_CLOSURES_PER_GRAPH = 4096

#: Guards the attach/replace of the per-graph closure memo and every
#: insert/eviction.  Multiple engine workers share one graph; without
#: the lock two threads racing a version bump could each install a
#: fresh state and interleave writes across them, a reader could
#: observe a state dict whose "entries" belong to another version, or
#: two evictions could race on the same oldest entry.
_CLOSURE_LOCK = threading.Lock()


def _closure_entries(graph: Graph) -> dict:
    """A snapshot of the (version-checked) closure memo for *graph*.

    The returned entries dict is captured once per call: a caller keeps
    reading/writing the dict it was handed even if the graph mutates
    mid-iteration and a newer state replaces the attribute.  Writes then
    land in the superseded snapshot and are garbage-collected with it —
    stale closures are never served to post-mutation readers, matching
    the version check at generator start.
    """
    state = getattr(graph, _CLOSURE_ATTR, None)
    version = graph.version
    if state is None or state["version"] != version:
        with _CLOSURE_LOCK:
            state = getattr(graph, _CLOSURE_ATTR, None)
            if state is None or state["version"] != version:
                state = {"version": version, "entries": {}}
                setattr(graph, _CLOSURE_ATTR, state)
    return state["entries"]


def _closure(
    path: ast.Path, graph: Graph, start: Term, forward: bool
) -> Iterator[Term]:
    """Nodes reachable from *start* by one or more applications of *path*."""
    probe = active_probe()
    budget = active_budget()
    cache = None
    key = None
    if CLOSURE_CACHING:
        try:
            cache = _closure_entries(graph)
            # Key the path by identity, not value: hashing a nested path
            # expression recursively on every lookup costs more than the
            # BFS it saves.  The cached entry pins the path object so its
            # id cannot be recycled while the entry lives.
            key = (id(path), start, forward)
            hit = cache.get(key)
            if hit is not None:
                if probe is not None:
                    probe.closure(path, start, forward, None, cached=True)
                # Warm hits still consume budget per yielded node: a
                # cached closure feeds the same downstream join work as
                # a cold one, and deadline/visit governance must see it.
                if budget is None:
                    yield from hit[1]
                else:
                    for node in hit[1]:
                        budget.tick()
                        yield node
                return
        except (TypeError, AttributeError):  # unhashable term / frozen graph
            cache = None
            key = None
    # BFS discovery order, not set order: deterministic given the store,
    # and identical to the ID-space closure over the same encoded graph
    # (both walk the same int-keyed indexes).
    frontier_sizes: Optional[List[int]] = [] if probe is not None else None
    seen: Set[Term] = set()
    order: List[Term] = []
    frontier = [start]
    while frontier:
        if frontier_sizes is not None:
            frontier_sizes.append(len(frontier))
        next_frontier: List[Term] = []
        for node in frontier:
            for successor in _path_successors(path, graph, node, forward):
                if budget is not None:
                    budget.tick()
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    if cache is not None:
        # (pinned path, discovery order, membership set): the set serves
        # the both-bound membership fast path in _eval_mod.
        planner.memo_insert(
            cache, key, (path, tuple(order), frozenset(order)),
            MAX_CLOSURES_PER_GRAPH, _CLOSURE_LOCK,
        )
    if probe is not None:
        probe.closure(path, start, forward, frontier_sizes, cached=False)
    yield from order


def _closure_contains(
    path: ast.Path, graph: Graph, start: Term, target: Term
) -> bool:
    """Is *target* forward-reachable from *start*?  Memoized membership.

    A warm closure answers in O(1) against the cached membership set —
    one budget tick instead of a scan of the whole closure sequence.
    Cold closures run (and memoize) the full BFS via :func:`_closure`.
    """
    if CLOSURE_CACHING:
        try:
            hit = _closure_entries(graph).get((id(path), start, True))
        except (TypeError, AttributeError):
            hit = None
        if hit is not None:
            budget = active_budget()
            if budget is not None:
                budget.tick()
            probe = active_probe()
            if probe is not None:
                probe.closure(path, start, True, None, cached=True)
            return target in hit[2]
    found = False
    # Drain fully (no early break) so the generator reaches its cache
    # write and the next membership probe for this start is O(1).
    for node in _closure(path, graph, start, forward=True):
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


def _graph_nodes(graph: Graph) -> Iterable[Term]:
    """Every subject/object node, deterministically ordered when possible.

    Encoded graphs enumerate in ascending dictionary-ID order — the same
    order the ID-space path uses, so both join cores emit both-free path
    solutions identically.  Plain stores fall back to an unordered set.
    """
    if _id_capable(graph):
        id_term = graph.id_term
        return [id_term(tid) for tid in graph.node_ids()]
    nodes: Set[Term] = set(graph.subject_set())
    for s, p, o in graph.triples():
        nodes.add(o)
    return nodes


def _eval_mod(
    path: ast.PathMod, graph: Graph, subject: Optional[Term], obj: Optional[Term]
) -> Iterator[Tuple[Term, Term]]:
    inner = path.path
    mod = path.modifier
    emitted: Set[Tuple[Term, Term]] = set()

    def emit(pair: Tuple[Term, Term]) -> Iterator[Tuple[Term, Term]]:
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
            for node in _graph_nodes(graph):
                yield from emit((node, node))
        for pair in eval_path(inner, graph, subject, obj):
            yield from emit(pair)
        return

    budget = active_budget()
    include_zero = mod == "*"
    if subject is not None:
        if obj is not None and COST_PLANNER:
            # Both ends bound: the closure only decides whether *obj* is
            # reachable — a memoized membership test, not a scan of the
            # whole closure sequence per candidate pair.
            if include_zero and obj == subject:
                yield from emit((subject, subject))
            if _closure_contains(inner, graph, subject, obj):
                if budget is not None:
                    budget.tick()
                yield from emit((subject, obj))
            return
        if include_zero and (obj is None or obj == subject):
            yield from emit((subject, subject))
        for target in _closure(inner, graph, subject, forward=True):
            if budget is not None:
                budget.tick()
            if obj is None or target == obj:
                yield from emit((subject, target))
        return
    if obj is not None:
        if include_zero:
            yield from emit((obj, obj))
        for source in _closure(inner, graph, obj, forward=False):
            if budget is not None:
                budget.tick()
            yield from emit((source, obj))
        return
    # Both ends free: zero-length pairs cover every node, but non-empty
    # closures can only start from the planner's endpoint candidates.
    nodes = _graph_nodes(graph)
    if include_zero:
        for node in nodes:
            yield from emit((node, node))
    plan = (
        planner.plan_closure(inner, graph)
        if COST_PLANNER and _id_capable(graph)
        else None
    )
    probe = active_probe()
    if probe is not None and plan is not None:
        probe.closure_plan(inner, _closure_decision(plan, len(nodes)))
    if plan is None or plan.seeds is None:
        for node in nodes:
            if isinstance(node, Literal):
                continue  # literals cannot start a forward path
            for target in _closure(inner, graph, node, forward=True):
                if budget is not None:
                    budget.tick()
                yield from emit((node, target))
        return
    id_term = graph.id_term
    if plan.direction == "forward":
        for tid in plan.seeds:
            node = id_term(tid)
            if isinstance(node, Literal):
                continue  # literals cannot start a forward path
            for target in _closure(inner, graph, node, forward=True):
                if budget is not None:
                    budget.tick()
                yield from emit((node, target))
        return
    for tid in plan.seeds:  # reverse: seeds are the reachable endpoints
        node = id_term(tid)
        for source in _closure(inner, graph, node, forward=False):
            if budget is not None:
                budget.tick()
            if isinstance(source, Literal):
                continue  # literal sources match the forward skip above
            yield from emit((source, node))


# ----------------------------------------------------------------------
# Property paths in ID space
# ----------------------------------------------------------------------
# Twins of the term-space path evaluation above, operating on dictionary
# IDs throughout: the BFS frontiers, the dedup sets and the closure-cache
# entries all hold ints.  Semantics (including the left-to-right /
# right-to-left sequence orientation and zero-length cases) mirror the
# term versions line for line.


def _eval_path_ids(
    path: ast.Path, graph: Graph, subject: Optional[int], obj: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """Yield (subject_id, object_id) pairs connected by *path*."""
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


def _closure_ids(
    path: ast.Path, graph: Graph, start: int, forward: bool
) -> Iterator[int]:
    """IDs reachable from *start* by one or more applications of *path*.

    Shares the per-graph memo with the term-space closure — the key
    carries an int start in ID mode and a Term in term mode, which can
    never collide (an int never equals a Term).
    """
    probe = active_probe()
    budget = active_budget()
    cache = None
    key = None
    if CLOSURE_CACHING:
        cache = _closure_entries(graph)
        key = (id(path), start, forward)
        hit = cache.get(key)
        if hit is not None:
            if probe is not None:
                probe.closure(path, start, forward, None, cached=True)
            # Warm hits still consume budget per yielded node (see the
            # term-space twin): governance must not be bypassed by the
            # memo.
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
        # the both-bound membership fast path in _eval_mod_ids.
        planner.memo_insert(
            cache, key, (path, tuple(order), frozenset(order)),
            MAX_CLOSURES_PER_GRAPH, _CLOSURE_LOCK,
        )
    if probe is not None:
        probe.closure(path, start, forward, frontier_sizes, cached=False)
    yield from order


def _closure_contains_ids(
    path: ast.Path, graph: Graph, start: int, target: int
) -> bool:
    """ID-space twin of :func:`_closure_contains` (O(1) when warm)."""
    if CLOSURE_CACHING:
        hit = _closure_entries(graph).get((id(path), start, True))
        if hit is not None:
            budget = active_budget()
            if budget is not None:
                budget.tick()
            probe = active_probe()
            if probe is not None:
                probe.closure(path, start, True, None, cached=True)
            return target in hit[2]
    found = False
    # Drain fully so _closure_ids reaches its cache write.
    for node in _closure_ids(path, graph, start, forward=True):
        if node == target:
            found = True
    return found


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
        if obj is not None and COST_PLANNER:
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
        if include_zero and (obj is None or obj == subject):
            yield from emit((subject, subject))
        for target in _closure_ids(inner, graph, subject, forward=True):
            if budget is not None:
                budget.tick()
            if obj is None or target == obj:
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
    plan = planner.plan_closure(inner, graph) if COST_PLANNER else None
    probe = active_probe()
    if probe is not None and plan is not None:
        probe.closure_plan(inner, _closure_decision(plan, len(nodes)))
    if plan is None or plan.seeds is None:
        for node in nodes:
            if graph.is_literal_id(node):
                continue  # literals cannot start a forward path
            for target in _closure_ids(inner, graph, node, forward=True):
                if budget is not None:
                    budget.tick()
                yield from emit((node, target))
        return
    if plan.direction == "forward":
        for node in plan.seeds:
            if graph.is_literal_id(node):
                continue  # literals cannot start a forward path
            for target in _closure_ids(inner, graph, node, forward=True):
                if budget is not None:
                    budget.tick()
                yield from emit((node, target))
        return
    for node in plan.seeds:  # reverse: seeds are the reachable endpoints
        for source in _closure_ids(inner, graph, node, forward=False):
            if budget is not None:
                budget.tick()
            if graph.is_literal_id(source):
                continue  # literal sources match the forward skip above
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
