"""Ablations on the SPARQL engine design choices (DESIGN.md §4).

* **Join reordering** — cost-based planned BGP join order vs. written
  pattern order.  The recursive Pattern #2 depends on routing evaluation
  through the bound end of property paths.
* **Closure caching** — per-graph memoization of property-path closures
  vs. recomputing the BFS per candidate binding.
* **Triple-store indexes** — SPO/POS/OSP index lookups vs. full scans
  for every triple pattern.
"""

import pytest

from repro.core.matcher import search_plan
from repro.core.transform import transform_plan
from repro.experiments.workloads import controlled_config
from repro.rdf.graph import Graph
from repro.sparql import evaluator
from repro.workload.generator import WorkloadGenerator


from repro.workload.generator import GeneratorConfig


@pytest.fixture(scope="module")
def pattern_b_plan():
    generator = WorkloadGenerator(seed=88, config=controlled_config())
    plan = generator.generate_plan_in_range("ablate", 180, 260, plant=["B"])
    return transform_plan(plan)


@pytest.fixture(scope="module")
def loj_dense_plan():
    """A plan dense in left outer joins: every join has several LOJ
    descendants on both sides, so the recursive Pattern #2 query
    re-queries the same closures for many candidate combinations — the
    workload the closure cache exists for."""
    generator = WorkloadGenerator(
        seed=89, config=GeneratorConfig(lojoin_prob=0.5)
    )
    plan = generator.generate_plan_in_range("loj-dense", 120, 200)
    return transform_plan(plan)


@pytest.fixture
def restore_flags():
    yield
    evaluator.JOIN_REORDERING = True
    evaluator.CLOSURE_CACHING = True


def _baseline_count(pattern_b_plan, queries):
    return search_plan(queries["#2"], pattern_b_plan).count


class TestJoinReordering:
    def test_with_reordering(self, benchmark, pattern_b_plan, queries,
                             restore_flags):
        evaluator.JOIN_REORDERING = True
        expected = _baseline_count(pattern_b_plan, queries)
        count = benchmark(
            lambda: search_plan(queries["#2"], pattern_b_plan).count
        )
        assert count == expected

    def test_without_reordering(self, benchmark, pattern_b_plan, queries,
                                restore_flags):
        evaluator.JOIN_REORDERING = True
        expected = _baseline_count(pattern_b_plan, queries)
        evaluator.JOIN_REORDERING = False
        count = benchmark(
            lambda: search_plan(queries["#2"], pattern_b_plan).count
        )
        assert count == expected  # ordering changes cost, never results


class TestClosureCaching:
    """Measured with reordering disabled: the planned order evaluates the
    paths backward from the few LOJ candidates, so few closures are ever
    computed and the cache is idle.  Without reordering, the evaluator
    enumerates join candidates first and re-queries the same forward
    closures — the workload the cache exists for."""

    def test_with_cache(self, benchmark, loj_dense_plan, queries,
                        restore_flags):
        expected = _baseline_count(loj_dense_plan, queries)
        evaluator.JOIN_REORDERING = False
        evaluator.CLOSURE_CACHING = True
        count = benchmark(
            lambda: search_plan(queries["#2"], loj_dense_plan).count
        )
        assert count == expected

    def test_without_cache(self, benchmark, loj_dense_plan, queries,
                           restore_flags):
        expected = _baseline_count(loj_dense_plan, queries)
        evaluator.JOIN_REORDERING = False
        evaluator.CLOSURE_CACHING = False
        count = benchmark(
            lambda: search_plan(queries["#2"], loj_dense_plan).count
        )
        assert count == expected


class _ScanOnlyGraph(Graph):
    """A graph whose pattern lookups degrade to full scans.

    Models what BGP matching costs without the SPO/POS/OSP permutation
    indexes (the DB2 RDF Store's "optimized for graph pattern matching"
    property the paper leans on).  The engine reads the store through
    the ID-level API, so that is what is overridden; the call counters
    let the ablation assert that the scans really ran.
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


@pytest.fixture(scope="module")
def scan_only_plan(pattern_b_plan):
    degraded = _ScanOnlyGraph(pattern_b_plan.graph.identifier)
    for triple in Graph.triples(pattern_b_plan.graph):
        degraded.add(triple)
    clone = type(pattern_b_plan)(
        plan=pattern_b_plan.plan,
        graph=degraded,
        pop_resources=pattern_b_plan.pop_resources,
        object_resources=pattern_b_plan.object_resources,
        resource_to_node=pattern_b_plan.resource_to_node,
    )
    return clone


def _signatures(result):
    return sorted(match.signature() for match in result.occurrences)


class TestIndexes:
    def test_indexed_lookup(self, benchmark, pattern_b_plan, queries):
        benchmark(lambda: search_plan(queries["#1"], pattern_b_plan).count)

    def test_scan_only_lookup(self, benchmark, scan_only_plan,
                              pattern_b_plan, queries):
        expected = _signatures(search_plan(queries["#1"], pattern_b_plan))
        graph = scan_only_plan.graph
        graph.scans = graph.estimates = 0
        got = benchmark(
            lambda: _signatures(search_plan(queries["#1"], scan_only_plan))
        )
        assert got == expected
        # The ablation must exercise the overrides, or it measures the
        # indexed store twice.
        assert graph.scans > 0 and graph.estimates > 0
