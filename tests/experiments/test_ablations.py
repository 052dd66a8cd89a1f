"""Ablations of the engine and transform design choices the paper
motivates (EXPERIMENTS.md, "Ablations").

Each turns one choice off, checks that the results stay the same, and
counts what the choice saves in visited bindings or scans:

* join reordering and closure caching (``evaluator.JOIN_REORDERING``
  and ``evaluator.CLOSURE_CACHING``) on recursive Pattern #2;
* the triple store's permutation indexes, against a graph whose
  lookups scan every triple;
* blank-node stream resources against the flat ``hasChildPop`` edge, on
  Section 2.2's shared-TEMP plan.
"""

import pytest

from repro.core import limits
from repro.core.matcher import search_plan
from repro.core.transform import transform_plan
from repro.core.vocabulary import SPARQL_PREFIXES
from repro.experiments.workloads import controlled_config
from repro.kb.builtin import builtin_sparql
from repro.qep import BaseObject, PlanGraph, PlanOperator, StreamRole
from repro.rdf.graph import Graph
from repro.sparql import evaluator, prepare_query, query
from repro.workload.generator import GeneratorConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def pattern_b_plan():
    """A 221-operator plan with Pattern B planted."""
    generator = WorkloadGenerator(seed=88, config=controlled_config())
    plan = generator.generate_plan_in_range("ablate", 180, 260, plant=["B"])
    return transform_plan(plan)


@pytest.fixture(scope="module")
def loj_dense_plan():
    """A plan dense in left outer joins: every join has several LOJ
    descendants on both sides, so Pattern #2 re-queries the same
    closures for many candidate combinations, the workload the closure
    cache exists for."""
    generator = WorkloadGenerator(
        seed=89, config=GeneratorConfig(lojoin_prob=0.5)
    )
    plan = generator.generate_plan_in_range("loj-dense", 120, 200)
    return transform_plan(plan)


def cold_search(letter, transformed, monkeypatch, reordering=True,
                caching=True):
    """Sorted occurrence signatures and visited bindings of one search
    with no memoized plan or closure."""
    monkeypatch.setattr(evaluator, "JOIN_REORDERING", reordering)
    monkeypatch.setattr(evaluator, "CLOSURE_CACHING", caching)
    transformed.graph.drop_memos()
    budget = limits.Budget()
    with limits.activate(budget):
        result = search_plan(builtin_sparql(letter), transformed)
    return sorted(m.signature() for m in result.occurrences), budget.bindings


class TestJoinReordering:
    def test_same_occurrences_for_a_fraction_of_the_work(
        self, pattern_b_plan, monkeypatch
    ):
        """The planned order routes Pattern #2's recursion through the
        bound end of its property paths instead of enumerating every
        join first."""
        planned, planned_work = cold_search("B", pattern_b_plan, monkeypatch)
        written, written_work = cold_search(
            "B", pattern_b_plan, monkeypatch, reordering=False
        )
        assert planned == written
        assert len(planned) == 1
        assert (planned_work, written_work) == (1_112, 80_754)


class TestClosureCaching:
    """Measured with reordering off: the planned order evaluates the
    paths backward from the few LOJ candidates, so it computes few
    closures and the cache idles.  In written order the evaluator
    enumerates join candidates first and re-queries the same forward
    closures."""

    def test_same_occurrences_with_and_without_cache(
        self, loj_dense_plan, monkeypatch
    ):
        expected, _ = cold_search("B", loj_dense_plan, monkeypatch)
        cached, cached_work = cold_search(
            "B", loj_dense_plan, monkeypatch, reordering=False
        )
        uncached, uncached_work = cold_search(
            "B", loj_dense_plan, monkeypatch, reordering=False, caching=False
        )
        assert cached == uncached == expected
        assert len(expected) == 615
        assert (cached_work, uncached_work) == (189_656, 208_753)


class _ScanOnlyGraph(Graph):
    """A graph whose pattern lookups degrade to full scans.

    Models what BGP matching costs without the SPO/POS/OSP permutation
    indexes (the DB2 RDF Store's "optimized for graph pattern matching"
    property the paper leans on).  The engine reads the store through
    the ID-level API, so that is what is overridden; the call counters
    show that the scans really ran.
    """

    def __init__(self, identifier=None):
        super().__init__(identifier)
        self.scans = 0
        self.estimates = 0

    def triples_ids(self, subject=None, predicate=None, obj=None):
        self.scans += 1
        for s, p, o in super().triples_ids():
            if subject is not None and s != subject:
                continue
            if predicate is not None and p != predicate:
                continue
            if obj is not None and o != obj:
                continue
            yield (s, p, o)

    def estimate_ids(self, subject=None, predicate=None, obj=None):
        self.estimates += 1
        return len(self)  # no statistics without indexes


class TestIndexes:
    def test_scan_only_graph_finds_the_same_occurrences(
        self, pattern_b_plan, monkeypatch
    ):
        degraded = _ScanOnlyGraph(pattern_b_plan.graph.identifier)
        for triple in Graph.triples(pattern_b_plan.graph):
            degraded.add(triple)
        scan_only = type(pattern_b_plan)(
            plan=pattern_b_plan.plan,
            graph=degraded,
            pop_resources=pattern_b_plan.pop_resources,
            object_resources=pattern_b_plan.object_resources,
            resource_to_node=pattern_b_plan.resource_to_node,
        )
        indexed, indexed_work = cold_search("A", pattern_b_plan, monkeypatch)
        scanned, scanned_work = cold_search("A", scan_only, monkeypatch)
        assert scanned == indexed
        # Without statistics every pattern is estimated at the whole
        # graph, and every lookup reads every triple of the plan.
        assert (indexed_work, scanned_work) == (527, 1_111)
        assert (degraded.scans, degraded.estimates) == (1_015, 39)


#: Which joins consume a TEMP on their inner stream?
_STREAM_QUERY = prepare_query(SPARQL_PREFIXES + """
SELECT ?join ?temp WHERE {
  ?join predURI:isAJoin ?x .
  ?join predURI:hasInnerInputStream ?stream .
  ?stream predURI:hasInnerInputStream ?temp .
  ?temp predURI:hasPopType "TEMP" .
}
""")

#: The same over the derived direct edge, which loses the stream role.
_FLAT_QUERY = prepare_query(SPARQL_PREFIXES + """
SELECT ?join ?temp WHERE {
  ?join predURI:isAJoin ?x .
  ?join predURI:hasChildPop ?temp .
  ?temp predURI:hasPopType "TEMP" .
}
""")


def shared_temp_plan():
    """Three hash joins consume one TEMP on their inner streams."""
    plan = PlanGraph("shared-temp")
    scan = PlanOperator(6, "TBSCAN", cardinality=100, total_cost=50)
    scan.add_input(BaseObject("S", "T", 1000))
    temp = PlanOperator(5, "TEMP", cardinality=100, total_cost=60)
    temp.add_input(scan)
    all_ops = [temp, scan]
    joins = []
    for index in range(3):
        other = PlanOperator(7 + index, "TBSCAN", cardinality=10,
                             total_cost=10)
        other.add_input(BaseObject("S", f"U{index}", 100))
        join = PlanOperator(2 + index, "HSJOIN", cardinality=10,
                            total_cost=200 + index)
        join.add_input(other, StreamRole.OUTER)
        join.add_input(temp, StreamRole.INNER)
        joins.append(join)
        all_ops.extend([other, join])
    top = joins[0]
    for offset, join in enumerate(joins[1:]):
        parent = PlanOperator(20 + offset, "MSJOIN", cardinality=10,
                              total_cost=top.total_cost + join.total_cost + 1)
        parent.add_input(top, StreamRole.OUTER)
        parent.add_input(join, StreamRole.INNER)
        all_ops.append(parent)
        top = parent
    ret = PlanOperator(1, "RETURN", cardinality=10, total_cost=top.total_cost)
    ret.add_input(top)
    all_ops.append(ret)
    for op in all_ops:
        plan.add_operator(op)
    plan.set_root(ret)
    return transform_plan(plan)


class TestBlankNodeStreams:
    def test_shared_temp_counts_each_consumption(self):
        """Section 2.2's ambiguity case: a TEMP consumed three times
        yields three (join, temp) contexts.  The flat edge counts them
        too but cannot say which stream the TEMP feeds, so an
        inner-stream pattern like Pattern A needs the streams."""
        graph = shared_temp_plan().graph
        assert len(list(query(graph, _STREAM_QUERY))) == 3
        assert len(list(query(graph, _FLAT_QUERY))) == 3
