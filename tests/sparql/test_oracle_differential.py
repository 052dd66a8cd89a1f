"""The engine against the naive reference evaluator in ``oracle.py``.

One Hypothesis graph strategy and one query corpus, shared with
``test_evaluator_idspace.py``, ``test_evaluation_invariance.py`` and
``test_planner_differential.py``.  For every generated graph, every
corpus query must give the engine's rows equal to the oracle's as a
multiset of term tuples, in order where the query has an ORDER BY,
under all four settings of the two policies (``JOIN_REORDERING`` x
``CLOSURE_CACHING``).  The ``@example`` pins are the regression corpus:
counterexamples found while building the suite.

Direct cases against the oracle cover zero-length paths through absent
terms and the two path behaviours the engine keeps on purpose (see the
evaluator docstring).  The last test checks the generated Pattern A-D
and KB library queries on small planted plans.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_plan
from repro.experiments.workloads import controlled_config
from repro.kb.builtin import make_pattern
from repro.kb.library import library_entries
from repro.rdf import Graph, Literal, Namespace
from repro.rdf.snapshot import GraphView
from repro.sparql import evaluator, prepare_query
from repro.sparql.evaluator import evaluate_query
from repro.workload.generator import WorkloadGenerator

from tests.sparql import oracle

N = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"

#: Edges as (subject, predicate, object) indexes over nodes n0..n5 and
#: predicates p:e0 / p:e1.
edges_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 5)),
    max_size=14,
)


def build_graph(edges) -> Graph:
    """The edges, a ``p:val`` literal per node, one numeric value stored
    under two spellings (``n0``/``n1``) and a self-loop on ``n2``."""
    g = Graph()
    nodes = set()
    for s, p, o in edges:
        g.add((N[f"n{s}"], P[f"e{p}"], N[f"n{o}"]))
        nodes.update((s, o))
    for node in nodes:
        g.add((N[f"n{node}"], P.val, Literal(str(node))))
    g.add((N.n0, P.num, Literal("100")))
    g.add((N.n1, P.num, Literal("1e2")))
    g.add((N.n2, P.e0, N.n2))
    return g


QUERIES = [
    # BGPs, FILTER, OPTIONAL and UNION
    "SELECT ?x ?y WHERE { ?x p:e0 ?y }",
    "SELECT ?x ?v WHERE { ?x p:e0 ?y . ?x p:val ?v }",
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c }",
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v }",
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v . "
    "FILTER (?v > 2) }",
    "SELECT ?x ?z WHERE { ?x p:e0 ?y . ?y p:e0 ?z . ?x p:val ?v . "
    "FILTER (?v > 2) }",
    "SELECT ?s ?p WHERE { ?s ?p n:n1 }",
    "SELECT ?x ?n WHERE { ?x p:e0 ?y . OPTIONAL { ?x p:e1 ?n } }",
    "SELECT ?x WHERE { { ?x p:e0 n:n1 } UNION { ?x p:e1 n:n3 } }",
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } }",
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } FILTER (?v >= 0) }",
    "SELECT ?a ?x WHERE { ?a p:val ?v . OPTIONAL { ?a p:e0 ?x . "
    "?x p:val ?w . FILTER (?w > ?v) } }",
    # repeated variables
    "SELECT ?x WHERE { ?x p:e0 ?x }",
    "SELECT ?x WHERE { ?x p:e0+ ?x }",
    # closures: both ends free, one bound, both bound
    "SELECT ?x ?y WHERE { ?x p:e0+ ?y }",
    "SELECT ?x ?y WHERE { ?x p:e0* ?y . ?x p:val ?v }",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d . ?d p:val ?v }",
    "SELECT ?a ?d WHERE { ?a p:e0* ?d . ?d p:val ?v }",
    "SELECT ?a ?d WHERE { ?a (p:e0|p:e1)* ?d . ?d p:val ?v }",
    "SELECT ?a ?b WHERE { ?a p:e1 ?b . ?a p:e0+ ?b }",
    "SELECT ?y WHERE { n:n0 p:e0* ?y }",
    "SELECT ?y WHERE { n:n2 (p:e0|p:e1)+ ?y }",
    "SELECT ?x WHERE { ?x p:e0* n:n1 }",
    "SELECT ?a ?l ?r WHERE { ?a p:e0/p:e0* ?l . ?a p:e1/p:e1* ?r . "
    "?l p:val ?lv . ?r p:val ?rv . FILTER (?lv != ?rv) }",
    # bare sequence, alternative, inverse and zero-or-one
    "SELECT ?x ?y WHERE { ?x p:e0/p:e1 ?y }",
    "SELECT ?x ?y WHERE { ?x p:e0|p:e1 ?y }",
    "SELECT ?x ?y WHERE { ?x ^p:e0 ?y }",
    "SELECT ?v ?x WHERE { ?v ^p:val ?x }",
    "SELECT ?x ?y WHERE { ?x p:e0? ?y }",
    "SELECT ?x ?y WHERE { ?x (p:e0|p:e1)/p:e0* ?y }",
    # both-free closures that start at a literal: through an inverse
    # step (seeded forward, seeded reverse) or at length zero
    "SELECT ?x ?y WHERE { ?x (^p:val)+ ?y }",
    "SELECT ?x ?y WHERE { ?x (^p:val/p:e0)+ ?y }",
    "SELECT ?x ?y WHERE { ?x (^p:val/p:num)+ ?y }",
    "SELECT ?x ?y WHERE { ?x (p:e0?)+ ?y }",
    # the generated descendant shape, free and anchored
    "SELECT ?x ?y WHERE { ?x (p:e0/p:e0)/((p:e0|p:e1|p:val)/"
    "(p:e0|p:e1|p:val))* ?y }",
    "SELECT ?x ?y WHERE { ?x p:val ?v . ?x (p:e0/p:e0)/((p:e0|p:e1|p:val)/"
    "(p:e0|p:e1|p:val))* ?y }",
    # FILTERs the join tests in place: number op ?v, ?v op ?w, a
    # fallback expression, a FILTER over two runs (kept after the
    # group), values that are not numbers (rejected), spelled numerics
    # and a variable bound to a term the dictionary lacks
    "SELECT ?x ?v WHERE { ?x p:val ?v . ?x p:e0 ?y FILTER (3 > ?v) }",
    "SELECT ?x ?y WHERE { ?x p:e0 ?y . ?x p:val ?v . ?y p:val ?w . "
    "FILTER (?v < ?w) }",
    "SELECT ?x ?y WHERE { ?x p:e1 ?y . ?y p:val ?w FILTER (STR(?w) != \"2\") }",
    "SELECT ?a ?b WHERE { ?a p:val ?v . OPTIONAL { ?a p:e0 ?b } ?b p:val ?w "
    "FILTER (?v <= ?w) FILTER (?v >= 1) }",
    "SELECT ?x ?y WHERE { ?x p:e0 ?y FILTER (?y < 3) }",
    "SELECT ?x ?v WHERE { ?x (p:val|p:num) ?v FILTER (?v >= 1e2) }",
    "SELECT ?x ?v WHERE { ?x p:num ?v FILTER (?v > 99 && CONTAINS(STR(?v), \"e\")) }",
    'SELECT ?x WHERE { ?x p:e0* "7" FILTER (?x < 10) }',
    "SELECT ?x WHERE { ?x p:e0* n:zzz FILTER (?x != n:n1) }",
    # numeric canonicalization
    'SELECT ?x WHERE { ?x p:num "100.0" }',
    "SELECT ?x ?y WHERE { ?x p:num ?v . ?y p:num ?v }",
    "SELECT ?x ?y WHERE { ?x p:num/^p:num ?y }",
    # ground path ends the graph does not hold
    "SELECT ?y WHERE { n:zzz p:e0* ?y }",
    "SELECT ?y WHERE { n:zzz p:e0? ?y }",
    "SELECT ?y WHERE { n:zzz p:e0+ ?y }",
    "SELECT ?x WHERE { ?x p:e0* n:zzz }",
    "SELECT * WHERE { n:zzz p:e0* n:zzz }",
    "SELECT * WHERE { n:zzz p:e0* n:yyy }",
    "SELECT ?y ?z WHERE { n:zzz (p:e0|p:e1)* ?y . ?y p:e0* ?z }",
    "SELECT ?y ?z WHERE { n:zzz p:e0* ?y . ?y p:e0 ?z }",
    "SELECT ?y WHERE { n:zzz ^p:e0* ?y . ?y p:e0? n:zzz }",
    "SELECT ?y ?v WHERE { n:zzz p:e0* ?y . OPTIONAL { ?y p:val ?v } }",
    # solution modifiers (every ORDER BY here is total on its rows)
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v } "
    "ORDER BY ?a ?c",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d } ORDER BY ?d ?a",
    "SELECT ?a AS ?TOP ?d WHERE { ?a p:e0+ ?d } ORDER BY DESC(?a) ?d",
    "SELECT DISTINCT ?a WHERE { ?a p:e0* ?d } ORDER BY ?a",
    "SELECT ?a ?d WHERE { ?a (p:e0|p:e1)+ ?d } ORDER BY ?a DESC(?d) "
    "LIMIT 4 OFFSET 1",
]

PARSED = [prepare_query(PREFIX + body) for body in QUERIES]

#: Every (JOIN_REORDERING, CLOSURE_CACHING) setting.
POLICIES = [(True, True), (True, False), (False, True), (False, False)]


@contextmanager
def policy(reordering: bool, caching: bool):
    evaluator.JOIN_REORDERING = reordering
    evaluator.CLOSURE_CACHING = caching
    try:
        yield
    finally:
        evaluator.JOIN_REORDERING = True
        evaluator.CLOSURE_CACHING = True


def engine_rows(graph, parsed):
    result = evaluate_query(parsed, graph)
    return [tuple(row[name] for name in result.variables) for row in result]


def spelled(rows):
    """Rows with every term as its ``repr``: numeric literals compare by
    value, so ``"100"`` and ``"1e2"`` are equal terms but not equal
    spellings."""
    return [tuple(map(repr, row)) for row in rows]


def snapshot_view(graph) -> GraphView:
    """The read-only snapshot store that worker processes query."""
    return GraphView(graph.snapshot_bytes())


def assert_engine_matches_oracle(graph, parsed, label=""):
    expected = oracle.select(parsed, graph)[1]
    got = engine_rows(graph, parsed)
    if parsed.order_by:
        assert got == expected, label
    else:
        assert Counter(got) == Counter(expected), label


# ----------------------------------------------------------------------
# Differential: generated graphs x the corpus x every policy setting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reordering,caching", POLICIES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(edges=edges_strategy)
# Regression corpus.  No row for a zero-length route through n:zzz, a
# term the dictionary lacks; no (literal, literal) row for (p:e0?)+.
@example(edges=[])
# Both-free closures skipped literal start nodes: no row for (^p:val)+.
@example(edges=[(0, 0, 0)])
def test_engine_matches_oracle(reordering, caching, edges):
    graph = build_graph(edges)
    with policy(reordering, caching):
        for body, parsed in zip(QUERIES, PARSED):
            assert_engine_matches_oracle(graph, parsed, body)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(edges=edges_strategy, toggles=edges_strategy)
def test_engine_matches_oracle_after_mutation(edges, toggles):
    """Warm every memo, then add or remove edges: the closure memo and
    the plan memo must follow the graph, and terms left in the
    dictionary by removed triples must not change an answer."""
    graph = build_graph(edges)
    for parsed in PARSED:
        engine_rows(graph, parsed)
    for s, p, o in toggles:
        triple = (N[f"n{s}"], P[f"e{p}"], N[f"n{o}"])
        if triple in graph:
            graph.remove(triple)
        else:
            graph.add(triple)
    for body, parsed in zip(QUERIES, PARSED):
        assert_engine_matches_oracle(graph, parsed, body)


# ----------------------------------------------------------------------
# Direct cases
# ----------------------------------------------------------------------
def check(graph, body):
    """Engine rows of *body* (query text or a prepared query), after
    asserting they equal the oracle's."""
    parsed = prepare_query(PREFIX + body) if isinstance(body, str) else body
    assert_engine_matches_oracle(graph, parsed, body)
    return engine_rows(graph, parsed)


class TestAbsentPathEnds:
    """SPARQL 1.1 relates a ground end to itself at length zero whether
    or not the graph holds it; the answer must not depend on whether the
    dictionary has seen the term (add, then remove, leaves it there)."""

    @pytest.fixture(params=["graph", "view", "graph-hist", "view-hist"])
    def chain(self, request):
        g = Graph()
        g.add((N.a, P.e, N.b))
        g.add((N.b, P.e, N.c))
        if request.param.endswith("hist"):
            g.add((N.zzz, P.e, N.a))
            g.remove((N.zzz, P.e, N.a))
        if request.param.startswith("view"):
            return snapshot_view(g)
        return g

    @pytest.mark.parametrize("body", [
        "SELECT ?y WHERE { n:zzz p:e* ?y }",
        "SELECT ?y WHERE { n:zzz p:e? ?y }",
        "SELECT ?x WHERE { ?x p:e* n:zzz }",
    ], ids=["star", "opt", "star-to"])
    def test_free_end_binds_the_absent_term(self, chain, body):
        assert check(chain, body) == [(N.zzz,)]

    def test_both_ends_the_same_absent_term(self, chain):
        assert check(chain, "SELECT * WHERE { n:zzz p:e* n:zzz }") == [()]

    @pytest.mark.parametrize("body", [
        "SELECT ?y WHERE { n:zzz p:e+ ?y }",
        "SELECT * WHERE { n:zzz p:e* n:yyy }",
    ], ids=["plus", "other-end"])
    def test_no_empty_route_matches_nothing(self, chain, body):
        assert check(chain, body) == []

    def test_bound_absent_term_feeds_later_patterns(self, chain):
        # ?y is bound to UNMATCHABLE: store lookups find nothing under
        # it, and a later path pattern reads it back as n:zzz.
        assert check(chain, "SELECT * WHERE { n:zzz p:e* ?y . ?y p:e ?z }") == []
        assert check(chain, "SELECT * WHERE { n:zzz p:e* ?y . ?z p:e ?y }") == []
        assert check(chain, "SELECT ?y ?z WHERE { n:zzz p:e* ?y . ?y p:e* ?z }") == [
            (N.zzz, N.zzz)
        ]


class TestPinnedPathSemantics:
    """The two path behaviours the engine keeps on purpose."""

    def test_sequence_yields_distinct_pairs(self):
        g = Graph()
        for s, p, o in [("a", "e0", "m1"), ("a", "e0", "m2"),
                        ("m1", "e1", "c"), ("m2", "e1", "c")]:
            g.add((N[s], P[p], N[o]))
        assert check(g, "SELECT ?x ?y WHERE { ?x p:e0/p:e1 ?y }") == [
            (N.a, N.c)
        ]
        spelled_out = "SELECT ?x ?y WHERE { ?x p:e0 ?m . ?m p:e1 ?y }"
        assert check(g, spelled_out) == [(N.a, N.c), (N.a, N.c)]

    def test_alternative_yields_distinct_pairs(self):
        g = Graph()
        g.add((N.a, P.e0, N.b))
        g.add((N.a, P.e1, N.b))
        assert check(g, "SELECT ?x ?y WHERE { ?x p:e0|p:e1 ?y }") == [
            (N.a, N.b)
        ]

    def test_path_ends_decode_to_the_dictionary_spelling(self):
        g = Graph()
        g.add((N.a, P.val, Literal("100")))
        g.add((N.b, P.val, Literal("1e2")))
        g.add((N.c, P.e, N.b))

        def spellings(body):
            return sorted((x.value, v.lexical) for x, v in check(g, body))

        assert spellings("SELECT ?x ?v WHERE { ?x p:val ?v }") == [
            ("http://n/a", "100"), ("http://n/b", "1e2")
        ]
        assert spellings("SELECT ?x ?v WHERE { ?x (p:val|p:none) ?v }") == [
            ("http://n/a", "100"), ("http://n/b", "100")
        ]
        assert spellings("SELECT ?x ?v WHERE { ?x p:e/p:val ?v }") == [
            ("http://n/c", "100")
        ]


# ----------------------------------------------------------------------
# Generated queries on small planted plans
# ----------------------------------------------------------------------
GENERATED = [(letter, make_pattern(letter)) for letter in "ABCD"] + [
    (entry.name, entry.pattern) for entry in library_entries()
]
GENERATED_PARSED = [
    (name, prepare_query(pattern_to_sparql(pattern))) for name, pattern in GENERATED
]


@pytest.mark.parametrize("letter", list("ABCD"))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_queries_match_oracle(seed, letter):
    plan = WorkloadGenerator(seed, config=controlled_config()).generate_plan_in_range(
        f"oracle-{seed}{letter}", 40, 80, plant=[letter]
    )
    graph = transform_plan(plan).graph
    for name, parsed in GENERATED_PARSED:
        got = engine_rows(graph, parsed)
        assert Counter(got) == Counter(oracle.select(parsed, graph)[1]), name
        if name == letter:
            assert got, f"planted Pattern {letter} not found"
