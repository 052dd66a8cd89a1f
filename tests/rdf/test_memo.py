"""The one per-version memo each graph keeps (``TermReads.memo``).

Both stores share the planner statistics built on it, the planner and
the evaluator keep their plans and closures in it, and every derived
value follows the graph through an ``add`` or a ``remove``.
"""

import collections
import inspect
import threading

from repro.core.matcher import search_plan
from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_sparql
from repro.rdf import Graph, Literal, Namespace
from repro.rdf.graph import TermReads
from repro.rdf.snapshot import GraphView, encode_graph
from repro.sparql import evaluator, planner
from repro.sparql.parser import parse_query
from tests.conftest import build_figure1_plan

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"

STATISTICS = (
    "predicate_stats", "numeric_objects", "subject_ids_for", "object_ids_for",
)


class TestOneMemo:
    def test_stores_define_no_statistic(self):
        for name in STATISTICS + ("is_literal_id", "memo", "drop_memos"):
            assert name in vars(TermReads), name
            assert name not in vars(Graph), name
            assert name not in vars(GraphView), name

    def test_planner_and_evaluator_keep_no_per_graph_state(self):
        lock_type = type(threading.Lock())
        for module in (planner, evaluator):
            source = inspect.getsource(module)
            for needle in ("threading", "setattr(", "getattr(", ".version"):
                assert needle not in source, (module.__name__, needle)
            assert not any(
                isinstance(value, lock_type) for value in vars(module).values()
            ), module.__name__

    def test_search_adds_only_the_memo_to_a_graph(self):
        transformed = transform_plan(build_figure1_plan())
        view = type(transformed)(
            plan=transformed.plan,
            graph=GraphView(encode_graph(transformed.graph)),
            pop_resources=transformed.pop_resources,
            object_resources=transformed.object_resources,
            resource_to_node=transformed.resource_to_node,
        )
        for plan in (transformed, view):
            before = set(vars(plan.graph))
            for letter in "ABCD":
                search_plan(builtin_sparql(letter), plan)
            assert set(vars(plan.graph)) - before == {"_memo"}
            version, kinds = vars(plan.graph)["_memo"]
            assert version == plan.graph.version
            assert kinds["plans"]
            plan.graph.drop_memos()
            assert set(vars(plan.graph)) == before


def chain():
    """``a -> b -> c`` over p:p, with numeric p:n values on a and b."""
    g = Graph()
    g.add((EX.a, P.p, EX.b))
    g.add((EX.b, P.p, EX.c))
    g.add((EX.a, P.n, Literal("3")))
    g.add((EX.b, P.n, Literal("1")))
    return g


#: A two-pattern BGP, which the planner orders, and a both-ends-free
#: closure, which gets a closure plan and one memoized closure per seed.
QUERIES = [
    parse_query(PREFIX + "SELECT ?x ?y WHERE { ?x p:n ?v . ?x p:p ?y }"),
    parse_query(PREFIX + "SELECT ?x ?y WHERE { ?x p:p+ ?y }"),
]


def counted(work, name, real):
    def wrapper(*args, **kwargs):
        work[name] += 1
        return real(*args, **kwargs)
    return wrapper


class TestStatisticsFollowMutation:
    @staticmethod
    def reads(g):
        """Every statistic and node read, by term, for p:p and p:n."""
        decode = g.id_term
        ids = [g.term_id(P.p), g.term_id(P.n)]
        return {
            "predicate_stats": [g.predicate_stats(i) for i in ids],
            "numeric_objects": [g.numeric_objects(i) for i in ids],
            "subjects": [
                [decode(s) for s in g.subject_ids_for(i)] for i in ids
            ],
            "objects": [
                sorted(decode(o).n3() for o in g.object_ids_for(i))
                for i in ids
            ],
            "nodes": sorted(decode(node).n3() for node in g.node_ids()),
            "predicates": g.distinct_predicates(),
        }

    @staticmethod
    def rows(g):
        return [
            sorted(
                (row["x"].n3(), row["y"].n3())
                for row in evaluator.evaluate_query(query, g)
            )
            for query in QUERIES
        ]

    def test_add_and_remove_reach_every_read_and_memo(self, monkeypatch):
        work = collections.Counter()
        for module, name in (
            (planner, "order_bgp"),
            (planner, "_endpoint_ids"),
            (evaluator, "_path_successors_ids"),
        ):
            monkeypatch.setattr(
                module, name, counted(work, name, getattr(module, name))
            )
        a, b, c, d = (EX[name].n3() for name in "abcd")
        literals = {v: Literal(v).n3() for v in "123"}

        g = chain()
        assert self.reads(g) == {
            "predicate_stats": [(2, 2, 2), (2, 2, 2)],
            "numeric_objects": [(), (1.0, 3.0)],
            "subjects": [[EX.a, EX.b], [EX.a, EX.b]],
            "objects": [[b, c], sorted([literals["1"], literals["3"]])],
            "nodes": sorted([a, b, c, literals["1"], literals["3"]]),
            "predicates": 2,
        }
        assert self.rows(g) == [[(a, b), (b, c)], [(a, b), (a, c), (b, c)]]
        cold = dict(work)
        assert set(cold) == {"order_bgp", "_endpoint_ids", "_path_successors_ids"}
        assert self.rows(g) == [[(a, b), (b, c)], [(a, b), (a, c), (b, c)]]
        assert work == cold  # plan, closure plan and closures memoized

        g.add((EX.c, P.p, EX.d))
        g.add((EX.c, P.n, Literal("2")))
        assert self.reads(g) == {
            "predicate_stats": [(3, 3, 3), (3, 3, 3)],
            "numeric_objects": [(), (1.0, 2.0, 3.0)],
            "subjects": [[EX.a, EX.b, EX.c], [EX.a, EX.b, EX.c]],
            "objects": [[b, c, d], sorted(literals.values())],
            "nodes": sorted([a, b, c, d, *literals.values()]),
            "predicates": 2,
        }
        assert self.rows(g) == [
            [(a, b), (b, c), (c, d)],
            [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)],
        ]
        # Each memoized product was built again for the new version.
        assert all(work[name] > cold[name] for name in cold)

        after_add = dict(work)
        g.remove((EX.a, P.n, Literal("3")))
        g.remove((EX.a, P.p, EX.b))
        g.remove((EX.b, P.p, EX.c))
        assert self.reads(g) == {
            "predicate_stats": [(1, 1, 1), (2, 2, 2)],
            "numeric_objects": [(), (1.0, 2.0)],
            "subjects": [[EX.c], [EX.b, EX.c]],
            "objects": [[d], sorted([literals["1"], literals["2"]])],
            "nodes": sorted([b, c, d, literals["1"], literals["2"]]),
            "predicates": 2,
        }
        assert self.rows(g) == [[(c, d)], [(c, d)]]
        assert all(work[name] > after_add[name] for name in after_add)
