"""Triple store: mutation, pattern lookup, indexes, estimates."""

import gc
import random

import pytest

from repro.rdf import Graph, Literal, Namespace, URIRef, BNode
from repro.rdf.term import Variable

EX = Namespace("http://example/")


@pytest.fixture
def graph():
    g = Graph("test")
    g.add((EX.a, EX.knows, EX.b))
    g.add((EX.a, EX.knows, EX.c))
    g.add((EX.b, EX.knows, EX.c))
    g.add((EX.a, EX.name, Literal("alice")))
    g.add((EX.b, EX.name, Literal("bob")))
    return g


class TestMutation:
    def test_len(self, graph):
        assert len(graph) == 5

    def test_duplicate_add_ignored(self, graph):
        graph.add((EX.a, EX.knows, EX.b))
        assert len(graph) == 5

    def test_remove(self, graph):
        graph.remove((EX.a, EX.knows, EX.b))
        assert len(graph) == 4
        assert (EX.a, EX.knows, EX.b) not in graph

    def test_remove_missing_is_noop(self, graph):
        graph.remove((EX.c, EX.knows, EX.a))
        assert len(graph) == 5

    def test_version_changes_on_mutation(self, graph):
        before = graph.version
        graph.add((EX.c, EX.name, Literal("carol")))
        assert graph.version != before
        mid = graph.version
        graph.remove((EX.c, EX.name, Literal("carol")))
        assert graph.version != mid

    def test_version_unchanged_on_duplicate(self, graph):
        before = graph.version
        graph.add((EX.a, EX.knows, EX.b))
        assert graph.version == before

    def test_add_all(self):
        g = Graph()
        g.add_all([(EX.a, EX.p, EX.b), (EX.b, EX.p, EX.c)])
        assert len(g) == 2


class TestValidation:
    def test_variable_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((Variable("x"), EX.p, EX.a))

    def test_literal_subject_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((Literal("x"), EX.p, EX.a))

    def test_non_uri_predicate_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((EX.a, BNode("b"), EX.c))
        with pytest.raises(TypeError):
            g.add((EX.a, Literal("p"), EX.c))

    def test_bnode_subject_allowed(self):
        g = Graph()
        g.add((BNode("b"), EX.p, EX.a))
        assert len(g) == 1


class TestLookup:
    def test_fully_bound(self, graph):
        assert list(graph.triples(EX.a, EX.knows, EX.b)) == [
            (EX.a, EX.knows, EX.b)
        ]
        assert list(graph.triples(EX.a, EX.knows, EX.a)) == []

    def test_subject_only(self, graph):
        assert len(list(graph.triples(EX.a))) == 3

    def test_subject_predicate(self, graph):
        assert len(list(graph.triples(EX.a, EX.knows))) == 2

    def test_predicate_only(self, graph):
        assert len(list(graph.triples(predicate=EX.knows))) == 3

    def test_predicate_object(self, graph):
        assert {s for s, _, _ in graph.triples(predicate=EX.knows, obj=EX.c)} == {
            EX.a,
            EX.b,
        }

    def test_object_only(self, graph):
        assert len(list(graph.triples(obj=EX.c))) == 2

    def test_subject_object(self, graph):
        assert [p for _, p, _ in graph.triples(EX.a, None, EX.b)] == [EX.knows]

    def test_all_wildcards(self, graph):
        assert len(list(graph.triples())) == 5

    def test_missing_everything(self, graph):
        assert list(graph.triples(EX.zzz)) == []
        assert list(graph.triples(predicate=EX.zzz)) == []
        assert list(graph.triples(obj=EX.zzz)) == []


class TestAccessors:
    def test_value_unique(self, graph):
        assert graph.value(EX.a, EX.name) == Literal("alice")

    def test_value_missing(self, graph):
        assert graph.value(EX.c, EX.name) is None

    def test_value_ambiguous_raises(self, graph):
        with pytest.raises(ValueError):
            graph.value(EX.a, EX.knows)

    def test_objects(self, graph):
        assert set(graph.objects(EX.a, EX.knows)) == {EX.b, EX.c}

    def test_subjects(self, graph):
        assert set(graph.subjects(EX.knows, EX.c)) == {EX.a, EX.b}

    def test_predicates(self, graph):
        assert set(graph.predicates(EX.a, EX.b)) == {EX.knows}

    def test_count(self, graph):
        assert graph.count() == 5
        assert graph.count(subject=EX.a) == 3
        assert graph.count(predicate=EX.name) == 2

    def test_count_matches_naive_scan_for_every_shape(self, graph):
        # count delegates to the O(1) index lookups (estimate); it must
        # agree with actually iterating the matching triples for every
        # binding pattern, including after a removal.
        graph = graph.copy()
        graph.remove((EX.a, EX.knows, EX.b))
        shapes = [
            (None, None, None),
            (EX.a, None, None),
            (None, EX.knows, None),
            (None, None, EX.c),
            (EX.a, EX.knows, None),
            (None, EX.knows, EX.c),
            (EX.a, None, EX.c),
            (EX.a, EX.knows, EX.c),
            (EX.a, EX.knows, EX.b),  # removed -> 0
        ]
        for s, p, o in shapes:
            assert graph.count(s, p, o) == sum(
                1 for _ in graph.triples(s, p, o)
            ), (s, p, o)


class TestEstimate:
    def test_estimate_exact_for_bound_prefixes(self, graph):
        assert graph.estimate(EX.a, EX.knows) == 2
        assert graph.estimate(None, EX.knows, EX.c) == 2
        assert graph.estimate(EX.a, EX.knows, EX.b) == 1
        assert graph.estimate(EX.a, EX.knows, EX.a) == 0

    def test_estimate_predicate_total(self, graph):
        assert graph.estimate(None, EX.knows, None) == 3
        graph.remove((EX.a, EX.knows, EX.b))
        assert graph.estimate(None, EX.knows, None) == 2

    def test_estimate_subject_total(self, graph):
        assert graph.estimate(EX.a) == 3

    def test_estimate_object_total(self, graph):
        assert graph.estimate(None, None, EX.c) == 2

    def test_estimate_unbound(self, graph):
        assert graph.estimate() == 5

    def test_estimate_never_underestimates(self, graph):
        # estimate must be >= the true count for every pattern shape
        patterns = [
            (EX.a, None, None),
            (None, EX.knows, None),
            (None, None, EX.c),
            (EX.a, EX.knows, None),
            (None, EX.knows, EX.c),
            (EX.a, None, EX.b),
            (EX.a, EX.knows, EX.b),
            (None, None, None),
        ]
        for s, p, o in patterns:
            assert graph.estimate(s, p, o) >= graph.count(s, p, o)


class TestCopyAndEquality:
    def test_copy_independent(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.add((EX.z, EX.p, EX.z2))
        assert clone != graph
        assert len(graph) == 5

    def test_equality_same_triples(self):
        g1, g2 = Graph(), Graph()
        for g in (g1, g2):
            g.add((EX.a, EX.p, Literal("1")))
        assert g1 == g2

    def test_numeric_literal_equality_in_graphs(self):
        g1, g2 = Graph(), Graph()
        g1.add((EX.a, EX.p, Literal("100")))
        g2.add((EX.a, EX.p, Literal("1e2")))
        assert g1 == g2

    def test_bool_and_iter(self, graph):
        assert graph
        assert not Graph()
        assert len(list(iter(graph))) == 5

    def test_repr(self, graph):
        assert "size=5" in repr(graph)


class TestDictionaryEncoding:
    """The ID layer under the Term API: stable round trips, no shared
    mutable state across copies, label-stable equality."""

    def test_term_id_round_trip(self, graph):
        for s, p, o in graph.triples():
            for term in (s, p, o):
                tid = graph.term_id(term)
                assert tid is not None
                assert graph.id_term(tid) == term

    def test_term_id_absent_is_none(self, graph):
        assert graph.term_id(EX.never_seen) is None

    def test_triples_ids_match_term_triples(self, graph):
        decoded = {
            (graph.id_term(s), graph.id_term(p), graph.id_term(o))
            for s, p, o in graph.triples_ids()
        }
        assert decoded == set(graph.triples())

    def test_estimate_ids_agrees_with_estimate(self, graph):
        s_id = graph.term_id(EX.a)
        p_id = graph.term_id(EX.knows)
        assert graph.estimate_ids(s_id, p_id, None) == graph.estimate(
            EX.a, EX.knows, None
        )
        assert graph.estimate_ids(None, p_id, None) == graph.estimate(
            None, EX.knows, None
        )

    def test_numeric_spellings_share_an_id(self):
        g = Graph()
        g.add((EX.a, EX.p, Literal("100")))
        g.add((EX.b, EX.p, Literal("1e2")))
        assert g.term_id(Literal("100")) == g.term_id(Literal("1e2"))

    def test_triples_preserve_per_cell_spelling(self):
        # The dictionary canonicalizes, but each triple keeps the lexical
        # form it was added with (the seed's observable behavior).
        g = Graph()
        g.add((EX.a, EX.p, Literal("100")))
        g.add((EX.b, EX.p, Literal("1e2")))
        assert next(g.triples(EX.a, EX.p, None))[2].lexical == "100"
        assert next(g.triples(EX.b, EX.p, None))[2].lexical == "1e2"

    def test_copy_shares_no_mutable_state(self, graph):
        clone = graph.copy()
        # Mutating the clone in every way must leave the original intact.
        clone.remove((EX.a, EX.knows, EX.b))
        clone.add((EX.z, EX.fresh_predicate, Literal("new")))
        assert (EX.a, EX.knows, EX.b) in graph
        assert (EX.z, EX.fresh_predicate, Literal("new")) not in graph
        assert graph.term_id(Literal("new")) is None
        assert graph.estimate(None, EX.knows, None) == 3

    def test_copy_spelling_table_independent(self):
        g = Graph()
        g.add((EX.a, EX.p, Literal("100")))
        g.add((EX.b, EX.p, Literal("1e2")))
        clone = g.copy()
        clone.remove((EX.b, EX.p, Literal("1e2")))
        assert next(g.triples(EX.b, EX.p, None))[2].lexical == "1e2"

    def test_equality_label_stable_across_id_assignments(self):
        # Same triples inserted in different orders => different dense
        # IDs, but graph equality is by terms, not IDs.
        triples = [
            (EX.a, EX.knows, EX.b),
            (EX.b, EX.knows, EX.c),
            (EX.a, EX.name, Literal("alice")),
        ]
        g1, g2 = Graph(), Graph()
        g1.add_all(triples)
        g2.add_all(reversed(triples))
        assert g1.term_id(EX.b) != g2.term_id(EX.b)  # IDs really differ
        assert g1 == g2

    def test_inequality_across_id_assignments(self):
        g1, g2 = Graph(), Graph()
        g1.add((EX.a, EX.p, EX.b))
        g2.add((EX.a, EX.p, EX.c))
        assert g1 != g2

    def test_node_ids_cover_subjects_and_objects(self, graph):
        nodes = {graph.id_term(i) for i in graph.node_ids()}
        expected = set()
        for s, _, o in graph.triples():
            expected.add(s)
            expected.add(o)
        assert nodes == expected

    def test_is_literal_id(self, graph):
        lit_id = graph.term_id(Literal("alice"))
        uri_id = graph.term_id(EX.a)
        assert graph.is_literal_id(lit_id)
        assert not graph.is_literal_id(uri_id)


class TestLeafLayout:
    """Index leaves are int-only insertion-ordered dicts: the cycle
    collector never tracks them, and bound lookups enumerate in the
    order the triples were added."""

    @staticmethod
    def _shuffled_graph():
        """A graph whose insertion order differs from ascending-ID order."""
        rng = random.Random(13)
        nodes = [EX.term(f"n{i}") for i in range(8)]
        preds = [EX.term(f"p{i}") for i in range(3)]
        rng.shuffle(nodes)
        triples = [(s, p, o) for s in nodes for p in preds for o in nodes]
        rng.shuffle(triples)
        # The first triples fix the dictionary IDs in node order.
        triples = [(n, EX.seen, n) for n in nodes] + triples[:120]
        g = Graph()
        g.add_all(triples)
        return g, [tuple(g.term_id(t) for t in triple) for triple in triples]

    @staticmethod
    def _leaves(g):
        for index in (g._spo, g._pos, g._osp):
            for groups in index.values():
                yield from groups.values()

    def test_leaves_untracked_after_adds_and_removes(self):
        g, _ = self._shuffled_graph()
        for s, p, o in list(g.triples())[::3]:
            g.remove((s, p, o))
        g.add((EX.n0, EX.p0, Literal(7)))
        leaves = list(self._leaves(g))
        assert len(leaves) > 100
        assert not any(gc.is_tracked(leaf) for leaf in leaves)

    @staticmethod
    def _expected(added, bound, group):
        """Insertion-ordered enumeration of the triples matching *bound*
        (position -> id), grouped by first sight of position *group*."""
        groups = {}
        for triple in added:
            if all(triple[i] == v for i, v in bound.items()):
                groups.setdefault(triple[group], []).append(triple)
        return [t for members in groups.values() for t in members]

    def test_bound_lookups_enumerate_in_insertion_order(self):
        g, added = self._shuffled_graph()
        unsorted = 0
        for s, p, o in added:
            # (bound positions, grouping position): SPO, POS, OSP order.
            cases = [
                ({0: s}, 1), ({1: p}, 2), ({2: o}, 0),
                ({0: s, 1: p}, 2), ({1: p, 2: o}, 0), ({0: s, 2: o}, 1),
            ]
            for bound, group in cases:
                pattern = [bound.get(i) for i in range(3)]
                expected = self._expected(added, bound, group)
                assert list(g.triples_ids(*pattern)) == expected, bound
                unsorted += expected != sorted(expected)
        assert unsorted > len(added)  # insertion order really differs

    def test_copy_and_snapshot_enumerate_identically(self):
        from repro.rdf.snapshot import GraphView, encode_graph

        g, added = self._shuffled_graph()
        g.remove(next(g.triples(None, EX.p1, None)))
        views = [g.copy(), GraphView(encode_graph(g))]
        s, p, o = added[-1]
        patterns = [
            (None, None, None), (s, None, None), (None, p, None),
            (None, None, o), (s, p, None), (None, p, o), (s, None, o),
        ]
        for pattern in patterns:
            expected = list(g.triples_ids(*pattern))
            for other in views:
                assert list(other.triples_ids(*pattern)) == expected
