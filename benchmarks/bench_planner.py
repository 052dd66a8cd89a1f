"""Cost-based planner A/B: planned vs written join order (cold).

Two workloads, each attacking a different planner product:

**Join ordering** — a linked-catalog shape: N "left" entries tagged with
a shared literal, N "right" entries likewise, and a ``p:link`` edge from
each left to its right.  The query anchors both ends by tag first and
connects them with ``p:link+`` last.  Written order joins the second
anchor straight after the first — an N x N cartesian product filtered
down by the path afterwards.  The planner's greedy search starts from
an anchor (the store's exact cardinalities price the free path at
~2^30) and then prefers patterns connected to what is bound, so it
routes through the path: order (tag, link+, tag2), which
``tests/sparql/test_planner.py`` pins.  This is the >= 5x acceptance
bar (about 100x at N=400, and it grows with N).

**Closure direction & membership** — the robustness suite's pathological
query (mutual reachability over the cyclic stream-edge alternation,
both endpoints free).  The planner seeds the both-free closure only from
nodes carrying stream edges, and the second, both-bound closure pattern
is an O(1) memoized membership test per candidate pair.  Both are
closure policies the evaluator applies in either join order, so this
workload has no baseline side: a budget-completion assert (enforced
even in CI's perf-smoke mode) requires it to finish under a wall-clock
deadline without an EvaluationTimeout.

Every pass runs cold (plan memo and closure cache dropped first), and
planned and written order must produce identical result sets.  Results
land in the ``planner`` section of ``BENCH_matching.json`` and
standalone in ``benchmarks/reports/BENCH_planner.json``.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import write_json_report, write_report
from repro.core import Budget, limits
from repro.core.transform import transform_workload
from repro.obs.profiler import explain
from repro.rdf import Graph, Literal, Namespace
from repro.sparql import evaluator, planner, prepare_query
from repro.workload import generate_workload

EX = Namespace("http://optimatch/entity#")
P = Namespace("http://optimatch/predicate#")

CATALOG_SIZE = 400

CATALOG_SPARQL = """PREFIX p: <http://optimatch/predicate#>
SELECT ?a ?b WHERE {
  ?a p:tag "left" .
  ?b p:tag2 "right" .
  ?a p:link+ ?b .
}"""

STREAM_PATH = (
    "(predURI:hasInputStream|predURI:hasOuterInputStream|"
    "predURI:hasInnerInputStream|predURI:hasOutputStream)+"
)

#: Mutual reachability over stream edges, both endpoints free — the
#: governance suite's pathological query at a survivable plan size.
BOTH_FREE_SPARQL = f"""PREFIX predURI: <http://optimatch/predicate#>
SELECT ?a ?b WHERE {{
  ?a {STREAM_PATH} ?b .
  ?b {STREAM_PATH} ?a .
}}"""

PLAN_SIZE = 60
PLAN_COUNT = 2

STANDALONE_JSON = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_planner.json"
)


def build_catalog(size: int = CATALOG_SIZE) -> Graph:
    """The linked catalog: *size* tagged left and right entries, each
    left linked to its right."""
    g = Graph()
    for i in range(size):
        g.add((EX[f"left{i}"], P.tag, Literal("left")))
        g.add((EX[f"right{i}"], P.tag2, Literal("right")))
        g.add((EX[f"left{i}"], P.link, EX[f"right{i}"]))
    return g


@pytest.fixture(scope="module")
def catalog_graph():
    return build_catalog()


@pytest.fixture(scope="module")
def catalog_query():
    return prepare_query(CATALOG_SPARQL)


@pytest.fixture(scope="module")
def closure_workload():
    plans = generate_workload(
        PLAN_COUNT, seed=13, size_sampler=lambda rng: PLAN_SIZE
    )
    return transform_workload(plans)


@pytest.fixture(scope="module")
def closure_query():
    return prepare_query(BOTH_FREE_SPARQL)


class _PlannerConfig:
    """Pin JOIN_REORDERING (planned vs written order) for one pass."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def __enter__(self):
        self._saved = evaluator.JOIN_REORDERING
        evaluator.JOIN_REORDERING = self.enabled
        return self

    def __exit__(self, *exc):
        evaluator.JOIN_REORDERING = self._saved


def _drop_caches(graphs):
    """Force a cold run: no memoized plans, no memoized closures."""
    for graph in graphs:
        planner.invalidate(graph)
        try:
            delattr(graph, evaluator._CLOSURE_ATTR)
        except AttributeError:
            pass


def _rows(query, graph):
    result = evaluator.evaluate_query(query, graph)
    return [tuple(row.get(name) for name in result.variables) for row in result]


def _canonical(rows):
    return sorted(
        rows, key=lambda row: tuple(t.n3() if t is not None else "" for t in row)
    )


def _run_cold(query, graphs, enabled: bool):
    _drop_caches(graphs)
    rows = []
    with _PlannerConfig(enabled):
        started = time.perf_counter()
        for graph in graphs:
            rows.extend(_rows(query, graph))
    return time.perf_counter() - started, rows


def _best_of(runs, query, graphs, enabled):
    best_s, best_rows = None, None
    for _ in range(runs):
        elapsed, rows = _run_cold(query, graphs, enabled)
        if best_s is None or elapsed < best_s:
            best_s, best_rows = elapsed, rows
    return best_s, best_rows


# ----------------------------------------------------------------------
# Correctness and acceptance
# ----------------------------------------------------------------------
def test_catalog_rows_identical_and_planner_avoids_cartesian(
    catalog_graph, catalog_query
):
    _, written = _run_cold(catalog_query, [catalog_graph], False)
    _, planned = _run_cold(catalog_query, [catalog_graph], True)
    assert _canonical(planned) == _canonical(written)
    assert len(planned) == CATALOG_SIZE
    # the planned order routes through the path, not the N x N join
    _drop_caches([catalog_graph])
    with _PlannerConfig(True):
        report = explain(CATALOG_SPARQL, _FakeTransformed(catalog_graph))
    assert report.plans
    order = report.plans[0]["order"]
    assert "link" in order[1], f"path must join second, got {order}"


def test_closure_rows_identical(closure_workload, closure_query):
    graphs = [tp.graph for tp in closure_workload]
    _, written = _run_cold(closure_query, graphs, False)
    _, planned = _run_cold(closure_query, graphs, True)
    assert _canonical(planned) == _canonical(written)
    assert planned  # stream cycles guarantee mutually-reachable pairs


def test_planned_closure_workload_finishes_under_budget(
    closure_workload, closure_query
):
    """Acceptance: the both-free closure workload completes under a
    wall-clock budget without an EvaluationTimeout — always enforced."""
    graphs = [tp.graph for tp in closure_workload]
    _drop_caches(graphs)
    budget = Budget(timeout_ms=10_000)
    with _PlannerConfig(True), limits.activate(budget):
        for graph in graphs:
            _rows(closure_query, graph)  # raises EvaluationTimeout on failure
    assert not budget.expired()


class _FakeTransformed:
    """Minimal stand-in for a TransformedPlan (explain needs .graph,
    .plan_id and de-transformation lookups, which never match here)."""

    def __init__(self, graph, plan_id="bench-planner"):
        self.graph = graph
        self.plan_id = plan_id

    def node_for(self, term):
        return None


def test_explain_reports_closure_direction(closure_workload):
    """EXPLAIN shows the closure direction/seeding decision in either
    join order, and the planned join order only when reordering is on."""
    transformed = closure_workload[0]
    _drop_caches([transformed.graph])
    with _PlannerConfig(False):
        written = explain(BOTH_FREE_SPARQL, transformed)
    assert written.plans == [], "written order plans no join"
    _drop_caches([transformed.graph])
    with _PlannerConfig(True):
        planned = explain(BOTH_FREE_SPARQL, transformed)
    assert planned.plans, "planner on: EXPLAIN must show the join order"
    for report in (written, planned):
        assert report.closure_plans, "EXPLAIN must show the decision"
        decision = report.closure_plans[0]
        assert decision["direction"] in ("forward", "reverse")
        assert decision["mode"] == "seeded"
        assert decision["seeds"] < decision["totalNodes"]


# ----------------------------------------------------------------------
# Report: cold-cache speedup, the >= 5x acceptance bar
# ----------------------------------------------------------------------
def test_planner_report(
    catalog_graph, catalog_query, closure_workload, closure_query
):
    closure_graphs = [tp.graph for tp in closure_workload]

    cat_written_s, cat_rows_w = _run_cold(catalog_query, [catalog_graph], False)
    cat_planned_s, cat_rows_p = _best_of(3, catalog_query, [catalog_graph], True)
    assert _canonical(cat_rows_p) == _canonical(cat_rows_w)
    cat_speedup = cat_written_s / cat_planned_s

    clo_planned_s, clo_rows_p = _best_of(3, closure_query, closure_graphs, True)

    _drop_caches(closure_graphs)
    with _PlannerConfig(True):
        report = explain(BOTH_FREE_SPARQL, closure_workload[0])
    decisions = report.closure_plans

    lines = [
        "Cost-based planner A/B (cold caches, planned vs written order)",
        f"  join ordering (linked catalog, N={CATALOG_SIZE}): "
        f"written {cat_written_s * 1e3:8.1f} ms, "
        f"planned {cat_planned_s * 1e3:6.1f} ms "
        f"-> {cat_speedup:.1f}x (the planned order routes through the "
        "path; written order joins the second anchor into an N x N "
        "cartesian)",
        f"  closure workload ({PLAN_COUNT} plans of {PLAN_SIZE} operators, "
        "both-free mutual reachability): "
        f"planned {clo_planned_s * 1e3:8.1f} ms",
    ]
    for decision in decisions:
        lines.append(
            f"  closure direction: {decision['direction']} "
            f"({decision['mode']}, {decision['seeds']} of "
            f"{decision['totalNodes']} nodes seeded)"
        )
    text = "\n".join(lines)
    write_report("planner", text)

    payload = {
        "joinOrdering": {
            "catalogSize": CATALOG_SIZE,
            "rows": len(cat_rows_p),
            "writtenOrderSeconds": round(cat_written_s, 6),
            "plannedSeconds": round(cat_planned_s, 6),
            "coldCacheSpeedup": round(cat_speedup, 3),
        },
        "closureWorkload": {
            "planCount": PLAN_COUNT,
            "planSize": PLAN_SIZE,
            "rows": len(clo_rows_p),
            "plannedSeconds": round(clo_planned_s, 6),
            "closureDecisions": decisions,
        },
        "coldCacheSpeedup": round(cat_speedup, 3),
    }
    write_json_report("planner", payload)
    os.makedirs(os.path.dirname(STANDALONE_JSON), exist_ok=True)
    with open(STANDALONE_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # perf-smoke (tiny shared CI runner) records the numbers only; the
    # 5x bar is enforced on full local runs.
    if os.environ.get("OPTIMATCH_PERF_SMOKE") != "1":
        assert cat_speedup >= 5.0, (
            f"planned order must be >= 5x written order cold on the "
            f"join-ordering workload, got {cat_speedup:.2f}x"
        )
