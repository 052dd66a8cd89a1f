"""Differential tests: a GraphView over a snapshot IS the graph.

The multiprocess tier only works because a zero-copy
:class:`repro.rdf.snapshot.GraphView` over :func:`encode_graph` bytes
answers every graph question — term-level and ID-level — exactly like
the :class:`repro.rdf.graph.Graph` it was built from, *including
enumeration order* (result order is part of the engine's contract).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_sparql
from repro.rdf import Graph, Literal, Namespace
from repro.rdf.snapshot import (
    FORMAT_VERSION,
    GraphView,
    SnapshotFormatError,
    encode_graph,
)
from repro.sparql import query

from tests.conftest import build_figure1_plan

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"

_QUERIES = [
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v }",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d }",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d . ?d p:val ?v }",
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } }",
]

_edges = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 5)),
    max_size=14,
)


def _graph(edges) -> Graph:
    g = Graph()
    seen = set()
    for s, p, o in edges:
        g.add((EX[f"n{s}"], P[f"e{p}"], EX[f"n{o}"]))
        seen.update((s, o))
    for node in seen:
        g.add((EX[f"n{node}"], P.val, Literal(str(node))))
    return g


def _view(graph: Graph) -> GraphView:
    return GraphView(encode_graph(graph))


def _ordered_rows(source, body):
    rs = query(source, PREFIX + body)
    return [
        tuple((v, rs[i].text(v)) for v in rs.variables) for i in range(len(rs))
    ]


class TestEnumerationOrder:
    """list(view) must replay list(graph) term-for-term."""

    def test_figure1_plan_graph(self):
        graph = transform_plan(build_figure1_plan()).graph
        view = _view(graph)
        assert list(view) == list(graph)
        assert len(view) == len(graph)

    @given(edges=_edges)
    @settings(max_examples=30, deadline=None)
    def test_generated_graphs(self, edges):
        graph = _graph(edges)
        view = _view(graph)
        assert list(view) == list(graph)

    def test_triples_ids_all_branch_shapes(self):
        graph = transform_plan(build_figure1_plan()).graph
        view = _view(graph)
        ids = [graph.term_id(t) for t in list(graph)[0]]
        si, pi, oi = ids
        for pattern in [
            (None, None, None),
            (si, None, None),
            (None, pi, None),
            (None, None, oi),
            (si, pi, None),
            (si, None, oi),
            (None, pi, oi),
            (si, pi, oi),
            (oi, pi, si),  # (almost surely) absent triple
        ]:
            assert list(view.triples_ids(*pattern)) == list(
                graph.triples_ids(*pattern)
            ), pattern
            assert view.estimate_ids(*pattern) == graph.estimate_ids(*pattern)
            terms = [None if i is None else graph.id_term(i) for i in pattern]
            assert [
                tuple(term.n3() for term in triple)
                for triple in view.triples(*terms)
            ] == [
                tuple(term.n3() for term in triple)
                for triple in graph.triples(*terms)
            ], pattern
            assert view.estimate(*terms) == graph.estimate(*terms)
            if None not in pattern:
                assert view.contains(terms) == graph.contains(terms)


class TestIdLevelApi:
    def test_term_table_round_trip(self):
        graph = transform_plan(build_figure1_plan()).graph
        view = _view(graph)
        for term in {t for triple in graph for t in triple}:
            tid = graph.term_id(term)
            assert view.term_id(term) == tid
            assert view.id_term(tid) == graph.id_term(tid)

    def test_node_ids_and_predicate_stats(self):
        graph = transform_plan(build_figure1_plan()).graph
        view = _view(graph)
        assert view.node_ids() == graph.node_ids()
        assert view.distinct_predicates() == graph.distinct_predicates()
        for _, p, _ in graph:
            pi = graph.term_id(p)
            assert view.predicate_stats(pi) == graph.predicate_stats(pi)
            assert view.subject_ids_for(pi) == graph.subject_ids_for(pi)
            assert view.object_ids_for(pi) == graph.object_ids_for(pi)

    def test_is_literal_id(self):
        graph = _graph([(0, 0, 1)])
        view = _view(graph)
        for term in {t for triple in graph for t in triple}:
            tid = graph.term_id(term)
            assert view.is_literal_id(tid) == graph.is_literal_id(tid)

    def test_version_carried_over(self):
        graph = _graph([(0, 0, 1)])
        assert GraphView(encode_graph(graph)).version == graph.version


class TestSpellings:
    """Per-cell literal spellings survive the snapshot byte-for-byte."""

    def _spelled_graph(self) -> Graph:
        g = Graph()
        g.add((EX.a, P.p, Literal("100")))
        g.add((EX.b, P.p, Literal("1e2")))  # same value, other spelling
        return g

    def test_spellings_preserved(self):
        graph = self._spelled_graph()
        view = _view(graph)
        assert view.has_spellings
        assert list(view.triples(EX.a, P.p, None)) == list(
            graph.triples(EX.a, P.p, None)
        )
        lex = [t[2].lexical for t in view.triples(None, P.p, None)]
        assert lex == [t[2].lexical for t in graph.triples(None, P.p, None)]

    def test_spelled_ids_share_dictionary_entry(self):
        graph = self._spelled_graph()
        view = _view(graph)
        assert view.term_id(Literal("100")) == view.term_id(Literal("1e2"))
        assert view.term_id(Literal("100")) == graph.term_id(Literal("100"))


class TestQueryDifferential:
    """The SPARQL engine over a view answers exactly like the graph."""

    def test_builtin_patterns_on_transformed_plan(self):
        graph = transform_plan(build_figure1_plan()).graph
        view = _view(graph)
        for letter in "ABCD":
            sparql = builtin_sparql(letter)
            assert _rows_of(view, sparql) == _rows_of(graph, sparql), letter

    @given(edges=_edges, qi=st.integers(0, len(_QUERIES) - 1))
    @settings(max_examples=30, deadline=None)
    def test_generated_corpus(self, edges, qi):
        graph = _graph(edges)
        view = _view(graph)
        body = _QUERIES[qi]
        assert _ordered_rows(view, body) == _ordered_rows(graph, body)


def _rows_of(source, sparql):
    rs = query(source, sparql)
    return [
        tuple((v, rs[i].text(v)) for v in rs.variables) for i in range(len(rs))
    ]


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(SnapshotFormatError):
            GraphView(b"\x00" * 256)

    def test_truncated_header(self):
        with pytest.raises(SnapshotFormatError):
            GraphView(encode_graph(_graph([(0, 0, 1)]))[:32])

    def test_wrong_format_version(self):
        buf = bytearray(encode_graph(_graph([(0, 0, 1)])))
        import struct

        struct.pack_into("<q", buf, 8, FORMAT_VERSION + 1)
        with pytest.raises(SnapshotFormatError):
            GraphView(bytes(buf))

    def test_snapshot_bytes_method(self):
        graph = _graph([(0, 0, 1), (1, 1, 2)])
        assert graph.snapshot_bytes() == encode_graph(graph)
