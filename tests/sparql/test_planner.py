"""Unit tests for the cost-based BGP/closure planner.

Covers the join-order search (tie-breaking toward the written order,
field-identical plans against a naive set-based reference search, the
number of estimates one search makes, the anchor-path-anchor trap and
its visited bindings against written order, the both-free closure
workload),
FILTER costing and placement (exact selectivities, the step EXPLAIN
reports), the per-graph plan memo (hits, version invalidation, explicit
invalidation, bounded size), index selection, and the closure-direction
planner's seed-safety contract: every node whose closure is non-empty
must appear in the planned seed set.
"""

import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import limits
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_plan, transform_workload
from repro.experiments.workloads import (
    controlled_config,
    transformed_experiment_workload,
)
from repro.kb.builtin import make_pattern
from repro.obs.profiler import explain
from repro.rdf import Graph, Literal, Namespace, Variable
from repro.sparql import ast, evaluator, planner, prepare_query
from repro.sparql.parser import parse_query
from repro.workload.generator import WorkloadGenerator, generate_workload

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"


def patterns_of(body):
    """The TriplePattern list of a simple one-group WHERE clause."""
    parsed = parse_query(PREFIX + f"SELECT * WHERE {{ {body} }}")
    return [
        el for el in parsed.where.elements if isinstance(el, ast.TriplePattern)
    ]


def compiled_of(body, graph):
    return evaluator._compile_bgp(patterns_of(body), graph)


def filters_of(body):
    """The FILTERs of a simple one-group WHERE clause."""
    parsed = parse_query(PREFIX + f"SELECT * WHERE {{ {body} }}")
    return [el for el in parsed.where.elements if isinstance(el, ast.Filter)]


def skewed_graph() -> Graph:
    """p:rare has 2 triples, p:common has 60: order should flip them."""
    g = Graph()
    g.add((EX.a0, P.rare, EX.b0))
    g.add((EX.a1, P.rare, EX.b1))
    for i in range(60):
        g.add((EX[f"a{i}"], P.common, EX[f"c{i % 7}"]))
    return g


class TestOrderSearch:
    def test_single_pattern_is_trivially_planned(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:rare ?o", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.method == "single"
        assert plan.order == (0,)
        assert plan.estimates == (2.0,)
        assert plan.indexes == ("POS",)

    def test_selective_pattern_goes_first(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c . ?s p:rare ?o", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.order[0] == 1  # p:rare (2 rows) before p:common (60)

    def test_dp_and_greedy_agree_on_chain(self):
        # The subset DP is gone; the greedy still finds the order it did.
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c . ?s p:rare ?o", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.method == "greedy"
        assert plan.order == (1, 0)

    def test_tie_prefers_written_order(self):
        g = Graph()
        for i in range(5):  # two predicates with identical statistics
            g.add((EX[f"a{i}"], P.e0, EX[f"b{i}"]))
            g.add((EX[f"a{i}"], P.e1, EX[f"c{i}"]))
        compiled = compiled_of("?s p:e0 ?x . ?s p:e1 ?y", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.order == (0, 1)

    def test_bound_variables_shrink_estimates(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c", g)
        free = planner.order_bgp(compiled, g, frozenset())
        s_var = compiled[0][0][1]
        bound = planner.order_bgp(compiled, g, frozenset([s_var]))
        assert bound.estimates[0] < free.estimates[0]
        assert bound.indexes == ("SPO",)

    def test_unmatchable_pattern_estimates_zero(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:missing ?o . ?s p:rare ?x", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        # The absent-predicate pattern is free (0 rows) and goes first.
        assert plan.order[0] == 0
        assert plan.estimates[0] == 0.0


class TestPlanMemo:
    def test_repeat_call_returns_same_plan_object(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        first = planner.plan_bgp(patterns, compiled, g, frozenset())
        second = planner.plan_bgp(patterns, compiled, g, frozenset())
        assert second is first

    def test_mutation_invalidates_memo(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        first = planner.plan_bgp(patterns, compiled, g, frozenset())
        g.add((EX.zz, P.rare, EX.zz2))  # version bump
        compiled = evaluator._compile_bgp(patterns, g)
        second = planner.plan_bgp(patterns, compiled, g, frozenset())
        assert second is not first

    def test_invalidate_drops_attached_state(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:rare ?o . ?s p:common ?c")
        compiled = evaluator._compile_bgp(patterns, g)
        planner.plan_bgp(patterns, compiled, g, frozenset())
        assert "_memo" in vars(g)
        g.drop_memos()
        assert "_memo" not in vars(g)

    def test_distinct_bound_sets_get_distinct_plans(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        s_var = compiled[0][0][1]
        free = planner.plan_bgp(patterns, compiled, g, frozenset())
        bound = planner.plan_bgp(patterns, compiled, g, frozenset([s_var]))
        assert free is not bound

    def test_pushed_filters_are_part_of_the_key(self):
        g = skewed_graph()
        body = "?s p:common ?c . ?s p:rare ?o FILTER (?o != ?c)"
        patterns = patterns_of(body)
        compiled = evaluator._compile_bgp(patterns, g)
        bare = planner.plan_bgp(patterns, compiled, g, frozenset())
        filters = filters_of(body)
        pushed = planner.plan_bgp(patterns, compiled, g, frozenset(), filters)
        assert pushed is not bare and pushed.filters == ((2, 1.0),)
        again = planner.plan_bgp(patterns, compiled, g, frozenset(), filters)
        assert again is pushed


def valued_graph() -> Graph:
    """p:val holds 0..9 on n0..n9 and a string on n10; p:e0 links each
    of n0..n9 to the next node."""
    g = Graph()
    for i in range(10):
        g.add((EX[f"n{i}"], P.val, Literal(i)))
        g.add((EX[f"n{i}"], P.e0, EX[f"n{i + 1}"]))
    g.add((EX.n10, P.val, Literal("x")))
    return g


def plan_with_filters(body, graph, bound=frozenset()):
    return planner.order_bgp(
        compiled_of(body, graph), graph, bound, filters_of(body)
    )


class TestFilterCosting:
    def test_numeric_filter_gets_the_exact_share(self):
        # 3 of the 11 p:val triples pass; the string never does.
        plan = plan_with_filters("?s p:val ?v . ?s p:e0 ?t FILTER (?v < 3)",
                                 valued_graph())
        assert plan.filters == ((1, 3 / 11),)

    def test_mirrored_comparison_gets_the_same_share(self):
        g = valued_graph()
        for body in ("?s p:val ?v FILTER (3 > ?v)", "?s p:val ?v FILTER (?v < 3)",
                     "?s p:val ?v FILTER (?v <= 2.5)"):
            assert plan_with_filters(body, g).filters == ((1, 3 / 11),), body
        plan = plan_with_filters("?s p:val ?v FILTER (?v >= 7)", g)
        assert plan.filters == ((1, 3 / 11),)

    def test_other_filters_cost_one(self):
        g = valued_graph()
        for condition in ("?v != 3", "?v = 3", "?v < ?w", "isLiteral(?v)"):
            body = f"?s p:val ?v . ?s p:e0 ?t . ?t p:val ?w FILTER ({condition})"
            sels = [sel for _, sel in plan_with_filters(body, g).filters]
            assert sels == [1.0], condition

    def test_step_estimate_counts_extensions_before_the_filter(self):
        plan = plan_with_filters("?s p:val ?v . ?s p:e0 ?t FILTER (?v < 3)",
                                 valued_graph())
        assert plan.order == (0, 1)
        # Step 1 produces all 11 p:val rows; the FILTER passes 3 of them
        # into step 2, whose subject is bound (one p:e0 edge each).
        assert plan.estimates == pytest.approx((11.0, 3.0))
        assert plan.cost == pytest.approx(14.0)

    def test_filter_bound_before_the_join_runs_first(self):
        body = "?s p:val ?v . ?s p:e0 ?t FILTER (?v < 3)"
        g = valued_graph()
        v = Variable("v")
        plan = plan_with_filters(body, g, frozenset([v]))
        assert plan.filters == ((0, 3 / 11),)
        assert plan.estimates[0] == pytest.approx(3 / 11)

    def test_selective_filter_pulls_its_pattern_forward(self):
        g = valued_graph()
        assert plan_with_filters("?s p:e0 ?t . ?s p:val ?v", g).order == (0, 1)
        plan = plan_with_filters("?s p:e0 ?t . ?s p:val ?v FILTER (?v < 1)", g)
        assert plan.order == (1, 0)

    def test_cycle_closing_check_estimates_one_match(self):
        g = Graph()
        for i in range(10):
            g.add((EX[f"a{i}"], P.e0, EX[f"b{i}"]))
            g.add((EX[f"b{i}"], P.e1, EX[f"a{i}"]))
        plan = planner.order_bgp(
            compiled_of("?a p:e0 ?b . ?b p:e1 ?a", g), g, frozenset()
        )
        # Both ends bound: at most one triple per input, here exactly
        # one, where total / (subjects x objects) said 0.1.
        assert plan.estimates == (10.0, 10.0)


def closure_graph() -> Graph:
    """A fan-in: many e0 subjects, a single shared e0 object."""
    g = Graph()
    for i in range(8):
        g.add((EX[f"s{i}"], P.e0, EX.hub))
    g.add((EX.hub, P.val, Literal("x")))  # extra nodes outside the path
    return g


class TestClosurePlanning:
    def test_forward_seeds_are_exact_link_subjects(self):
        g = closure_graph()
        inner = ast.PathLink(P.e0)
        fwd = planner._endpoint_ids(inner, g, True)
        assert fwd == {g.term_id(EX[f"s{i}"]) for i in range(8)}
        rev = planner._endpoint_ids(inner, g, False)
        assert rev == {g.term_id(EX.hub)}

    def test_direction_picks_smaller_candidate_set(self):
        g = closure_graph()
        plan = planner.plan_closure(ast.PathLink(P.e0), g)
        assert plan.direction == "reverse"
        assert plan.seeds == (g.term_id(EX.hub),)
        assert plan.forward_count == 8 and plan.reverse_count == 1

    def test_tie_keeps_forward(self):
        g = Graph()
        g.add((EX.a, P.e0, EX.b))  # 1 subject, 1 object: a tie
        plan = planner.plan_closure(ast.PathLink(P.e0), g)
        assert plan.direction == "forward"

    def test_zero_capable_inner_path_forces_full_scan(self):
        g = closure_graph()
        inner = ast.PathMod(ast.PathLink(P.e0), "?")
        plan = planner.plan_closure(inner, g)
        assert plan.direction == "forward"
        assert plan.seeds is None

    def test_inverse_swaps_endpoint_sets(self):
        g = closure_graph()
        inner = ast.PathInverse(ast.PathLink(P.e0))
        fwd = planner._endpoint_ids(inner, g, True)
        assert fwd == {g.term_id(EX.hub)}

    def test_alternative_unions_endpoint_sets(self):
        g = closure_graph()
        g.add((EX.other, P.e1, EX.elsewhere))
        inner = ast.PathAlternative((ast.PathLink(P.e0), ast.PathLink(P.e1)))
        fwd = planner._endpoint_ids(inner, g, True)
        expected = {g.term_id(EX[f"s{i}"]) for i in range(8)}
        expected.add(g.term_id(EX.other))
        assert fwd == expected

    def test_seed_safety_superset_property(self):
        """Every node with a non-empty closure appears in the seed set."""
        g = Graph()
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (5, 5)]
        for s, o in edges:
            g.add((EX[f"n{s}"], P.e0, EX[f"n{o}"]))
        g.add((EX.isolated, P.val, Literal("v")))
        inner = ast.PathLink(P.e0)
        for forward in (True, False):
            seeds = planner._endpoint_ids(inner, g, forward)
            for node in g.node_ids():
                reach = list(
                    evaluator._closure_ids(inner, g, node, forward=forward)
                )
                if reach:
                    assert node in seeds, (g.id_term(node), forward)

    def test_closure_plan_is_memoized(self):
        g = closure_graph()
        inner = ast.PathLink(P.e0)
        assert planner.plan_closure(inner, g) is planner.plan_closure(inner, g)
        g.add((EX.more, P.e0, EX.hub))
        refreshed = planner.plan_closure(inner, g)
        assert refreshed.forward_count == 9


# ----------------------------------------------------------------------
# Naive reference: the set-based join-order search.  It re-estimates
# every pattern at every step, unions frozensets, reads FILTER shapes
# and selectivities straight off the AST and the term-level store, and
# places each FILTER by walking the order; order_bgp must return
# field-identical plans.
# ----------------------------------------------------------------------
def reference_estimator(graph):
    """``(compiled_pattern, bound_vars) -> float``, set-based."""
    node_total = []

    def fallback_distinct():
        if not node_total:
            node_total.append(float(max(1, len(graph.node_ids()))))
        return node_total[0]

    def estimate(cp, bound):
        s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
        s_kind = s_spec[0]
        o_kind = o_spec[0]
        s_bound = s_kind != planner.VAR or s_spec[1] in bound
        o_bound = o_kind != planner.VAR or o_spec[1] in bound
        if p_spec[0] == planner.PATH:
            return planner.PATH_ESTIMATES[int(s_bound) + int(o_bound)]
        p_kind = p_spec[0]
        if planner.ABSENT in (s_kind, p_kind, o_kind):
            return 0.0
        p_bound = p_kind != planner.VAR or p_spec[1] in bound
        sid = s_spec[1] if s_kind == planner.GROUND else None
        pid = p_spec[1] if p_kind == planner.GROUND else None
        oid = o_spec[1] if o_kind == planner.GROUND else None
        base = float(graph.estimate_ids(sid, pid, oid))
        if base == 0.0:
            return 0.0
        if pid is not None and s_kind == o_kind == planner.VAR and s_bound and o_bound:
            # Cycle-closing check: at most one triple per input.
            _, subjects, objects = graph.predicate_stats(pid)
            return min(1.0, base / subjects, base / objects)
        if s_bound and sid is None:
            if pid is not None:
                _, subjects, _ = graph.predicate_stats(pid)
                base /= float(subjects) if subjects else 1.0
            else:
                base /= fallback_distinct()
        if o_bound and oid is None:
            if pid is not None:
                _, _, objects = graph.predicate_stats(pid)
                base /= float(objects) if objects else 1.0
            else:
                base /= fallback_distinct()
        if p_bound and pid is None:
            base /= float(max(1, graph.distinct_predicates()))
        return base

    return estimate


_REFERENCE_TESTS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def reference_selectivity(flt, compiled, graph):
    """Share of a ground predicate's triples whose object passes
    ``?v op number``, counted one triple at a time; 1.0 otherwise."""
    expr = flt.expr
    if not isinstance(expr, ast.BinaryExpr) or expr.op not in _MIRROR:
        return 1.0
    sides = [expr.left, expr.right]
    terms = [side.term if isinstance(side, ast.TermExpr) else None for side in sides]
    if isinstance(terms[0], Variable) and isinstance(terms[1], Literal):
        var, number, op = terms[0], terms[1].as_number(), expr.op
    elif isinstance(terms[1], Variable) and isinstance(terms[0], Literal):
        var, number, op = terms[1], terms[0].as_number(), _MIRROR[expr.op]
    else:
        return 1.0
    if number is None:
        return 1.0
    for cp in compiled:
        if cp[1][0] == planner.GROUND and cp[2][0] == planner.VAR and cp[2][1] == var:
            objects = [o for _, _, o in graph.triples(None, graph.id_term(cp[1][1]))]
            if not objects:
                return 0.0
            passing = sum(
                1
                for o in objects
                if isinstance(o, Literal)
                and o.as_number() is not None
                and _REFERENCE_TESTS[op](o.as_number(), number)
            )
            return passing / len(objects)
    return 1.0


def reference_boundness(cp, bound):
    s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
    is_path = p_spec[0] == planner.PATH
    s_bound = s_spec[0] != planner.VAR or s_spec[1] in bound
    o_bound = o_spec[0] != planner.VAR or o_spec[1] in bound
    p_bound = (not is_path) and (
        p_spec[0] != planner.VAR or p_spec[1] in bound
    )
    return s_bound, p_bound, o_bound, is_path


def reference_placement(compiled, order, bound0, filter_vars):
    """Step after which each FILTER's variables are all bound (0: before)."""
    placement = []
    for variables in filter_vars:
        bound = set(bound0)
        step = 0
        for position in order:
            if variables <= bound:
                break
            bound.update(compiled[position][3])
            step += 1
        placement.append(step)
    return placement


def reference_replay(compiled, estimate, bound0, order, placement, sels):
    factors = [1.0] * (len(order) + 1)
    for after, sel in zip(placement, sels):
        factors[after] *= sel
    bound = set(bound0)
    rows = factors[0]
    cost = 0.0
    estimates = []
    indexes = []
    for step, position in enumerate(order, 1):
        cp = compiled[position]
        indexes.append(
            planner._index_for_bounds(*reference_boundness(cp, bound))
        )
        produced = rows * estimate(cp, bound)
        cost += produced
        estimates.append(produced)
        rows = produced * factors[step]
        bound.update(cp[3])
    return tuple(estimates), tuple(indexes), cost


def reference_greedy(compiled, estimate, bound0, filter_vars, sels):
    bound = set(bound0)
    remaining = list(range(len(compiled)))
    order = []
    while remaining:
        best = None
        best_key = None
        pending = [
            (variables, sel)
            for variables, sel in zip(filter_vars, sels)
            if not variables <= bound
        ]
        for i in remaining:
            cp = compiled[i]
            connected = (
                not order or not cp[3] or any(v in bound for v in cp[3])
            )
            rows = estimate(cp, bound)
            for variables, sel in pending:
                if variables <= bound | set(cp[3]):
                    rows *= sel
            key = (0 if connected else 1, rows, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        remaining.remove(best)
        order.append(best)
        bound.update(compiled[best][3])
    return order


def reference_order_bgp(compiled, graph, bound, filters=()):
    estimate = reference_estimator(graph)
    filter_vars = [frozenset(ast.expression_variables(f.expr)) for f in filters]
    sels = [reference_selectivity(f, compiled, graph) for f in filters]
    if len(compiled) == 1:
        order, method = [0], "single"
    else:
        order = reference_greedy(compiled, estimate, bound, filter_vars, sels)
        method = "greedy"
    placement = reference_placement(compiled, order, bound, filter_vars)
    estimates, indexes, cost = reference_replay(
        compiled, estimate, bound, order, placement, sels
    )
    return planner.BGPPlan(
        tuple(order), estimates, indexes, cost, method,
        tuple(zip(placement, sels)),
    )


def assert_matches_reference(compiled, graph, bound, filters=()):
    got = planner.order_bgp(compiled, graph, bound, filters)
    want = reference_order_bgp(compiled, graph, bound, filters)
    assert got == want, (got, want)


_VAR_POOL = [Variable(f"v{i}") for i in range(5)]
_NODE_POOL = [EX[f"n{i}"] for i in range(6)] + [EX.absent, Literal("x")]
_PRED_POOL = [P.e0, P.e1, P.e2, P.absent]


def _path_strategy():
    link = st.sampled_from(_PRED_POOL[:3]).map(ast.PathLink)
    return st.one_of(
        link,
        st.tuples(link, st.sampled_from("+*?")).map(
            lambda t: ast.PathMod(t[0], t[1])
        ),
        link.map(ast.PathInverse),
        st.lists(link, min_size=2, max_size=3).map(
            lambda parts: ast.PathSequence(tuple(parts))
        ),
        st.lists(link, min_size=2, max_size=3).map(
            lambda parts: ast.PathAlternative(tuple(parts))
        ),
    )


@st.composite
def _triple_patterns(draw):
    """Ground, absent, variable, repeated-variable and path positions."""
    node = st.one_of(st.sampled_from(_VAR_POOL), st.sampled_from(_NODE_POOL))
    subject = draw(node)
    predicate = draw(
        st.one_of(
            st.sampled_from(_VAR_POOL),
            st.sampled_from(_PRED_POOL),
            _path_strategy(),
        )
    )
    obj = subject if draw(st.booleans()) and draw(st.booleans()) else draw(node)
    return ast.TriplePattern(subject, predicate, obj)


def _comparisons(variables):
    """FILTERs over *variables*: every shape the planner or the join
    treats apart (``?v op number`` both ways round, ``?v op ?w``) and
    two it costs at 1.0 (``=``/``!=``, a function call)."""
    var = st.sampled_from(variables).map(ast.TermExpr)
    number = st.one_of(st.integers(-1, 10), st.just(2.5)).map(
        lambda n: ast.TermExpr(Literal(n))
    )
    op = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])
    return st.one_of(
        st.builds(ast.BinaryExpr, op, var, number),
        st.builds(ast.BinaryExpr, op, number, var),
        st.builds(ast.BinaryExpr, op, var, var),
        st.builds(lambda v: ast.FunctionCall("ISLITERAL", (v,)), var),
    ).map(ast.Filter)


@st.composite
def _planning_cases(draw, max_patterns):
    g = Graph()
    for s, p, o in draw(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)
            ),
            min_size=1,
            max_size=30,
        )
    ):
        g.add((EX[f"n{s}"], P[f"e{p}"], EX[f"n{o}"]))
    if draw(st.booleans()):
        g.add((EX.n0, P.e1, Literal("x")))
    for s, p, value in draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 9)),
            max_size=8,
        )
    ):
        g.add((EX[f"n{s}"], P[f"e{p}"], Literal(value)))
    patterns = draw(st.lists(_triple_patterns(), min_size=1, max_size=max_patterns))
    # Start from a random bound set, including variables the BGP lacks.
    bound = frozenset(draw(st.sets(st.sampled_from(_VAR_POOL))))
    # FILTERs the evaluator could push: their variables occur in the BGP.
    variables = sorted(
        set().union(*map(ast.walk_pattern_variables, patterns)),
        key=lambda v: v.name,
    )
    filters = (
        draw(st.lists(_comparisons(variables), max_size=3)) if variables else []
    )
    return g, patterns, bound, filters


class TestReferencePlanner:
    """order_bgp returns exactly the plans the set-based search does."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_planning_cases(8))
    def test_generated_bgps_match_reference(self, case):
        g, patterns, bound, filters = case
        compiled = evaluator._compile_bgp(patterns, g)
        assert_matches_reference(compiled, g, bound, filters)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_planning_cases(12))
    def test_large_generated_bgps_match_reference(self, case):
        g, patterns, bound, filters = case
        compiled = evaluator._compile_bgp(patterns, g)
        assert_matches_reference(compiled, g, bound, filters)

    def test_patterns_a_to_d_on_fig9_plans_match_reference(self, fig9_plans):
        rng = random.Random(9)
        for plan in fig9_plans:
            for letter, runs in pattern_bgps().items():
                for run, filters in runs:
                    compiled = evaluator._compile_bgp(run, plan.graph)
                    variables = sorted(
                        {v for cp in compiled for v in cp[3]},
                        key=lambda v: v.name,
                    )
                    bounds = [frozenset()] + [
                        frozenset(v for v in variables if rng.random() < 0.3)
                        for _ in range(2)
                    ]
                    for bound in bounds:
                        assert_matches_reference(
                            compiled, plan.graph, bound, filters
                        )


def bgps_of(group):
    """The BGPs the evaluator plans for *group*, recursively, as
    ``(run, pushed FILTERs)``: runs of consecutive triple patterns once
    FILTERs are set aside, each FILTER going to the first run that holds
    all its variables (sparqlgen emits no EXISTS)."""
    runs = []
    nested = []
    run = []
    for element in group.elements:
        if isinstance(element, ast.TriplePattern):
            run.append(element)
            continue
        if isinstance(element, ast.Filter):
            continue
        if run:
            runs.append(run)
            run = []
        if isinstance(element, ast.Union_):
            for branch in element.groups:
                nested.extend(bgps_of(branch))
        elif isinstance(getattr(element, "group", None), ast.GroupGraphPattern):
            nested.extend(bgps_of(element.group))
    if run:
        runs.append(run)
    pushed = [[] for _ in runs]
    for element in group.elements:
        if isinstance(element, ast.Filter):
            variables = ast.expression_variables(element.expr)
            for run, handed in zip(runs, pushed):
                if variables <= set().union(*map(ast.walk_pattern_variables, run)):
                    handed.append(element)
                    break
    return list(zip(runs, pushed)) + nested


def pattern_bgps():
    """Multi-pattern BGPs of Patterns A-D, compiled by sparqlgen, each
    with its pushed FILTERs."""
    out = {}
    for letter in "ABCD":
        parsed = parse_query(pattern_to_sparql(make_pattern(letter)))
        out[letter] = [
            (run, filters) for run, filters in bgps_of(parsed.where) if len(run) > 1
        ]
    return out


@pytest.fixture(scope="module")
def fig9_plans():
    """A few transformed Fig-9 workload plans."""
    return transformed_experiment_workload(4, seed=5)


class TestPlanningWork:
    """One order_bgp estimates each pattern at most once per bound
    subset of its own variables (no timing: counts are exact)."""

    def test_estimate_calls_bounded_by_variable_subsets(
        self, monkeypatch, fig9_plans
    ):
        calls = []
        real = Graph.estimate_ids

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Graph, "estimate_ids", counting)
        graph = max(fig9_plans, key=lambda p: len(p.graph)).graph
        for letter, runs in pattern_bgps().items():
            run, filters = max(runs, key=lambda pair: len(pair[0]))
            compiled = evaluator._compile_bgp(run, graph)
            limit = sum(2 ** len(set(cp[3])) for cp in compiled)
            del calls[:]
            planner.order_bgp(compiled, graph, frozenset(), filters)
            assert 0 < len(calls) <= limit, (letter, len(calls), limit)


class TestFilterPlacement:
    """Where pushed FILTERs run, from EXPLAIN and from budget ticks."""

    def test_pattern_c_threshold_runs_right_after_its_binding_step(self):
        plan = WorkloadGenerator(1, config=controlled_config()).generate_plan_in_range(
            "seed1-c", 40, 80, plant=["C"]
        )
        report = explain(make_pattern("C"), transform_plan(plan))
        (planned,) = report.plans
        (pushed,) = [
            f for f in planned["filters"]
            if f["filter"] == "?internalHandler2 < 0.001"
        ]
        step = pushed["afterStep"]
        binders = [
            number for number, text in enumerate(planned["order"], 1)
            if "?internalHandler2" in text
        ]
        assert binders[0] == step
        profiles = {profile.pattern: profile for profile in report.patterns}
        binding = profiles[planned["order"][step - 1]]
        following = profiles[planned["order"][step]]
        # est and out both count the extensions before the FILTER; the
        # next step receives what the FILTER passed.
        assert planned["estimatedRows"][step - 1] == binding.outputs
        assert following.inputs == round(binding.outputs * pushed["selectivity"])
        assert following.inputs < binding.outputs
        assert (
            f"[FILTER (?internalHandler2 < 0.001) after #{step}, sel "
            in report.to_text()
        )

    @pytest.mark.parametrize("reordering", [True, False])
    def test_rejected_extensions_still_tick(self, monkeypatch, reordering):
        monkeypatch.setattr(evaluator, "JOIN_REORDERING", reordering)
        query = parse_query(
            PREFIX + "SELECT ?s WHERE { ?s p:val ?v . ?s p:e0 ?t . "
            "?t p:val ?w FILTER (?v < 3) }"
        )
        budget = limits.Budget()
        with limits.activate(budget):
            rows = evaluator.evaluate_query(query, valued_graph())
        assert len(rows) == 3
        # 11 p:val extensions, 8 of them rejected on the spot; the 3
        # survivors take one p:e0 and one p:val step each.  Tested after
        # the whole join, the FILTER would let all 10 through both.
        assert budget.bindings == 11 + 3 + 3


CATALOG_SIZE = 400

CATALOG_SPARQL = PREFIX + """SELECT ?a ?b WHERE {
  ?a p:tag "left" .
  ?b p:tag2 "right" .
  ?a p:link+ ?b .
}"""


def build_catalog(size: int = CATALOG_SIZE) -> Graph:
    """The linked catalog: *size* tagged left and right entries, each
    left linked to its right."""
    g = Graph()
    for i in range(size):
        g.add((EX[f"left{i}"], P.tag, Literal("left")))
        g.add((EX[f"right{i}"], P.tag2, Literal("right")))
        g.add((EX[f"left{i}"], P.link, EX[f"right{i}"]))
    return g


def drop_caches(graph):
    """Forget *graph*'s memoized plans and closures."""
    graph.drop_memos()


def cold_run(query, graphs, monkeypatch, reordering):
    """Sorted rows and visited bindings of one cold pass over *graphs*,
    in planned (*reordering*) or written join order."""
    monkeypatch.setattr(evaluator, "JOIN_REORDERING", reordering)
    budget = limits.Budget()
    rows = []
    with limits.activate(budget):
        for graph in graphs:
            drop_caches(graph)
            result = evaluator.evaluate_query(query, graph)
            rows.extend(
                tuple(row.get(name) for name in result.variables)
                for row in result
            )
    return sorted(rows, key=lambda row: [t.n3() for t in row]), budget.bindings


class TestPlannerTrap:
    def test_catalog_query_routes_through_the_path(self):
        """The anchor-path-anchor catalog query joins the path second:
        written order's second anchor is an N x N cartesian product."""
        g = build_catalog(CATALOG_SIZE)
        patterns = [
            el for el in parse_query(CATALOG_SPARQL).where.elements
            if isinstance(el, ast.TriplePattern)
        ]
        plan = planner.order_bgp(
            evaluator._compile_bgp(patterns, g), g, frozenset()
        )
        assert plan.order == (0, 2, 1)  # tag, link+, tag2

    def test_catalog_planned_order_visits_a_fraction(self, monkeypatch):
        """The same rows as written order for under a 160th of the
        work (the ratio grows with N)."""
        g = build_catalog(CATALOG_SIZE)
        query = prepare_query(CATALOG_SPARQL)
        written, written_work = cold_run(query, [g], monkeypatch, False)
        planned, planned_work = cold_run(query, [g], monkeypatch, True)
        assert planned == written
        assert len(planned) == CATALOG_SIZE
        assert (planned_work, written_work) == (2_000, 321_200)


STREAM_PATH = (
    "(predURI:hasInputStream|predURI:hasOuterInputStream|"
    "predURI:hasInnerInputStream|predURI:hasOutputStream)+"
)

#: Mutual reachability over stream edges, both endpoints free: the
#: governance suite's pathological query at a survivable plan size.
BOTH_FREE_SPARQL = f"""PREFIX predURI: <http://optimatch/predicate#>
SELECT ?a ?b WHERE {{
  ?a {STREAM_PATH} ?b .
  ?b {STREAM_PATH} ?a .
}}"""


class TestClosureWorkload:
    """Two 60-operator plans under the both-free query.  The planner
    seeds the both-free closure only from nodes carrying stream edges,
    and the both-bound second pattern is a memoized membership test per
    candidate pair.  Both are closure policies the evaluator applies in
    either join order."""

    @pytest.fixture(scope="class")
    def workload(self):
        plans = generate_workload(2, seed=13, size_sampler=lambda rng: 60)
        return transform_workload(plans)

    def test_both_orders_agree_on_exact_work(self, workload, monkeypatch):
        graphs = [tp.graph for tp in workload]
        query = prepare_query(BOTH_FREE_SPARQL)
        written, written_work = cold_run(query, graphs, monkeypatch, False)
        planned, planned_work = cold_run(query, graphs, monkeypatch, True)
        assert planned == written
        assert len(planned) == 54_450  # stream cycles: mutually reachable
        # The workload's bound, in place of a wall-clock deadline.
        assert planned_work == written_work == 518_928

    def test_explain_reports_closure_direction(self, workload, monkeypatch):
        """EXPLAIN shows the closure seeding decision in either join
        order, and the planned join order only when reordering is on."""
        transformed = workload[0]
        reports = {}
        for reordering in (False, True):
            monkeypatch.setattr(evaluator, "JOIN_REORDERING", reordering)
            drop_caches(transformed.graph)
            reports[reordering] = explain(BOTH_FREE_SPARQL, transformed)
        assert reports[False].plans == [], "written order plans no join"
        assert reports[True].plans, "EXPLAIN must show the join order"
        for report in reports.values():
            assert report.closure_plans, "EXPLAIN must show the decision"
            decision = report.closure_plans[0]
            assert decision["direction"] in ("forward", "reverse")
            assert decision["mode"] == "seeded"
            assert decision["seeds"] < decision["totalNodes"]


def chain_graph(length: int = 10) -> Graph:
    """A p:e0 chain whose every node carries a p:val literal."""
    g = Graph()
    for i in range(length):
        g.add((EX[f"c{i}"], P.e0, EX[f"c{i + 1}"]))
        g.add((EX[f"c{i}"], P.val, Literal(str(i))))
    return g


def one_off_query(index: int):
    """A distinct query text: new AST objects, so new memo keys.  Its
    BGP is planned (two patterns) and it runs one closure per chain
    node that carries a value."""
    return parse_query(
        PREFIX + "SELECT ?a ?b WHERE { ?a p:val ?v . ?a p:e0+ ?b . "
        f'FILTER (?v != "q{index}") }}'
    )


class TestMemoBounds:
    """Per-graph memos stay bounded under a stream of one-off queries."""

    def test_one_off_queries_evict_oldest_entries(self, monkeypatch):
        g = chain_graph()
        cap = planner.MAX_PLANS_PER_GRAPH
        first = one_off_query(0)
        first_path = weakref.ref(first.where.elements[1].predicate.path)
        evaluator.evaluate_query(first, g)
        del first
        for index in range(1, cap + 1):
            evaluator.evaluate_query(one_off_query(index), g)
        plans = g.memo("plans")
        closures = g.memo("closures")
        assert len(plans) <= cap
        # 10 closures per query: cap + 1 queries overflow the closure cap.
        assert len(closures) <= evaluator.MAX_CLOSURES_PER_GRAPH
        # Eviction released the oldest query's pinned AST objects.
        gc.collect()
        assert first_path() is None

        planned = []
        real = planner.order_bgp
        monkeypatch.setattr(
            planner, "order_bgp",
            lambda *args, **kwargs: planned.append(1) or real(*args, **kwargs),
        )
        prepared = one_off_query(cap + 1)
        first_rows = evaluator.evaluate_query(prepared, g)
        assert len(planned) == 1
        # The prepared query's second evaluation hits the plan memo.
        second_rows = evaluator.evaluate_query(prepared, g)
        assert len(planned) == 1
        assert list(second_rows) == list(first_rows)

    def test_concurrent_one_off_queries_keep_memos_bounded(self):
        """Engine workers share a graph's memos: concurrent inserts and
        evictions must neither fail nor overshoot a cap."""
        g = chain_graph()
        expected = len(evaluator.evaluate_query(one_off_query(-1), g))
        errors = []
        row_counts = []

        def worker(offset):
            try:
                for index in range(offset, planner.MAX_PLANS_PER_GRAPH + 8, 4):
                    rows = evaluator.evaluate_query(one_off_query(index), g)
                    row_counts.append(len(rows))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(row_counts) == planner.MAX_PLANS_PER_GRAPH + 8
        assert set(row_counts) == {expected}
        plans = g.memo("plans")
        assert len(plans) == planner.MAX_PLANS_PER_GRAPH
        assert len(g.memo("closures")) == (
            evaluator.MAX_CLOSURES_PER_GRAPH
        )
