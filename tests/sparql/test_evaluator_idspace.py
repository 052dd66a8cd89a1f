"""The dictionary-encoded (ID-space) evaluator against the term-level
oracle in ``oracle.py``, on both stores.

The ID-space join must be invisible: the same solutions as the oracle's
term-level nested loops, and on the snapshot view that worker processes
query the same rows, in the same order and with the same spellings, as
on the mutable graph.  The direct cases are the awkward boundaries:
ground query terms the graph has never seen (unmatchable), initial
bindings carrying foreign terms (dead variables), numeric-literal
canonicalization inside joins, and closure-memo invalidation on graph
mutation.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal
from repro.rdf.term import Variable
from repro.sparql import prepare_query
from repro.sparql.evaluator import eval_group

from tests.sparql import oracle
from tests.sparql.test_oracle_differential import (
    PARSED,
    PREFIX,
    N,
    P,
    build_graph,
    check,
    edges_strategy,
    engine_rows,
    snapshot_view,
    spelled,
)


@pytest.fixture
def graph():
    g = Graph()
    g.add((N.a, P.e, N.b))
    g.add((N.b, P.e, N.c))
    g.add((N.c, P.e, N.d))
    g.add((N.a, P.val, Literal("100")))
    g.add((N.b, P.val, Literal("1e2")))  # equal to a's value, other spelling
    g.add((N.c, P.val, Literal("7")))
    g.add((N.a, P.name, Literal("alpha")))
    return g


class TestSameResultsSameOrder:
    QUERIES = [
        "SELECT ?x ?y WHERE { ?x p:e ?y }",
        "SELECT ?x ?v WHERE { ?x p:e ?y . ?x p:val ?v }",
        "SELECT ?x ?z WHERE { ?x p:e ?y . ?y p:e ?z . ?x p:val ?v . "
        "FILTER (?v > 50) }",
        "SELECT ?x ?y WHERE { ?x p:e+ ?y }",
        "SELECT ?x ?y WHERE { ?x p:e* ?y . ?x p:val ?v }",
        "SELECT ?x ?n WHERE { ?x p:e ?y . OPTIONAL { ?x p:name ?n } }",
        "SELECT ?x WHERE { { ?x p:e n:b } UNION { ?x p:e n:d } }",
    ]

    @pytest.mark.parametrize("body", QUERIES)
    def test_identical_rows_and_order(self, graph, body):
        rows = check(graph, body)
        view_rows = check(snapshot_view(graph), body)
        assert spelled(view_rows) == spelled(rows)


class TestUnmatchableGroundTerms:
    def test_absent_uri_matches_nothing(self, graph):
        assert check(graph, "SELECT ?x WHERE { ?x p:e n:never_seen }") == []

    def test_absent_predicate_matches_nothing(self, graph):
        assert check(graph, "SELECT ?x ?y WHERE { ?x p:never ?y }") == []

    def test_absent_term_in_multi_pattern_bgp(self, graph):
        # The unmatchable pattern must kill the whole BGP without
        # disturbing the join order of the others.
        body = "SELECT ?x ?y WHERE { ?x p:e ?y . ?y p:val n:not_a_value }"
        assert check(graph, body) == []

    def test_numeric_spelling_finds_canonical_value(self, graph):
        # "100.0" is absent as a spelling but equal to the stored "100".
        found = check(graph, 'SELECT ?x WHERE { ?x p:val "100.0" }')
        assert Counter(found) == Counter([(N.a,), (N.b,)])


def _frozen(solution):
    return frozenset(solution.items())


class TestDeadVariableBindings:
    """Initial bindings carrying terms the graph never encoded."""

    def _solutions(self, graph, body, bindings):
        where = prepare_query(PREFIX + body).where
        got = list(eval_group(where, graph, bindings))
        expected = oracle.eval_group(where, graph, bindings)
        assert Counter(map(_frozen, got)) == Counter(map(_frozen, expected))
        return got

    def test_foreign_binding_blocks_patterns_using_it(self, graph):
        foreign = {Variable("x"): N.not_in_graph}
        assert self._solutions(graph, "SELECT * WHERE { ?x p:e ?y }", foreign) == []

    def test_foreign_binding_passes_through_untouched_patterns(self, graph):
        foreign = {Variable("unrelated"): N.not_in_graph}
        sols = self._solutions(graph, "SELECT * WHERE { ?x p:e ?y }", foreign)
        assert len(sols) == 3
        assert all(sol[Variable("unrelated")] == N.not_in_graph for sol in sols)

    @pytest.mark.parametrize("view", [False, True], ids=["graph", "view"])
    def test_foreign_binding_feeds_zero_length_path(self, graph, view):
        target = snapshot_view(graph) if view else graph
        foreign = {Variable("x"): N.zzz}
        sols = self._solutions(target, "SELECT * WHERE { ?x p:e* ?y }", foreign)
        assert sols == [{Variable("x"): N.zzz, Variable("y"): N.zzz}]


class TestClosureCacheInvalidation:
    """The memo keys closures by path identity, so each test reuses one
    prepared query: its second run would hit a stale entry."""

    def test_mutation_invalidates_path_closure(self, graph):
        prepared = prepare_query(PREFIX + "SELECT ?y WHERE { n:a p:e+ ?y }")
        assert len(check(graph, prepared)) == 3
        graph.add((N.d, P.e, N.e))
        assert len(check(graph, prepared)) == 4

    def test_removal_invalidates_path_closure(self, graph):
        prepared = prepare_query(PREFIX + "SELECT ?y WHERE { n:a p:e+ ?y }")
        assert len(check(graph, prepared)) == 3
        graph.remove((N.b, P.e, N.c))
        assert len(check(graph, prepared)) == 1


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(PARSED) - 1))
def test_id_space_join_never_changes_results(edges, query_index):
    """The ID-space join over the snapshot view's own indexes gives the
    oracle's term-level answer over the graph it was taken from."""
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    expected = oracle.select(parsed, graph)[1]
    got = engine_rows(snapshot_view(graph), parsed)
    if parsed.order_by:
        assert got == expected
    else:
        assert Counter(got) == Counter(expected)
