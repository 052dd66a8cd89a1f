"""Instrumentation on vs off must be bit-identical on results.

Property-based differential suite: the same queries run bare and with a
probe installed (and, at the engine level, with an enabled tracer) and
every row, ordering and match signature must be unchanged.  The probe
and tracer are pure observers — if any hook ever filtered, reordered or
duplicated a solution this suite is the tripwire.

Reuses the graph strategy and query corpus of
``tests/sparql/test_oracle_differential.py`` so the differential runs
over the same adversarial shapes (unmatchable ground terms, path
fixpoints, OPTIONAL/UNION under filters) that the engine is checked
against the reference evaluator with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import MatchingEngine
from repro.core.transform import transform_plan
from repro.kb.builtin import make_pattern
from repro.obs.instrument import EvalProbe, probing
from repro.obs.profiler import CollectingProbe, explain
from repro.obs.tracing import Tracer

from tests.conftest import build_figure1_plan
from tests.sparql.test_oracle_differential import (
    PARSED,
    build_graph,
    edges_strategy,
    engine_rows,
)


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(PARSED) - 1))
def test_probe_never_changes_rows(edges, query_index):
    """CollectingProbe installed vs absent: identical rows, same order."""
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    plain = engine_rows(graph, parsed)
    with probing(CollectingProbe()):
        probed = engine_rows(graph, parsed)
    # A second run inside the *same* probe (aggregation across
    # queries) must not perturb anything either.
    with probing(CollectingProbe()):
        again = engine_rows(graph, parsed)
    assert probed == plain
    assert again == plain


@settings(max_examples=15, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(PARSED) - 1))
def test_base_probe_is_inert(edges, query_index):
    """The no-op EvalProbe base class is also a safe observer."""
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    plain = engine_rows(graph, parsed)
    with probing(EvalProbe()):
        probed = engine_rows(graph, parsed)
    assert probed == plain


def _signatures(matches):
    return [
        (m.plan_id, sorted(o.signature() for o in m.occurrences))
        for m in matches
    ]


@pytest.fixture(scope="module")
def workload(small_workload):
    # small_workload is the session fixture from tests/conftest.py.
    return [transform_plan(plan) for plan in small_workload]


class TestTracedEngineDifferential:
    @pytest.mark.parametrize("letter", list("ABCD"))
    def test_traced_matches_untraced(self, workload, letter):
        pattern = make_pattern(letter)
        plain_engine = MatchingEngine(workers=1, cache=False)
        traced_engine = MatchingEngine(
            workers=1, cache=False, tracer=Tracer(enabled=True)
        )
        try:
            plain = plain_engine.search(pattern, workload)
            traced = traced_engine.search(pattern, workload)
        finally:
            plain_engine.close()
            traced_engine.close()
        assert _signatures(traced) == _signatures(plain)
        assert traced_engine.tracer.spans(), "tracer recorded nothing"


class TestExplainDifferential:
    def test_explain_reports_search_results_unchanged(self):
        transformed = transform_plan(build_figure1_plan())
        pattern = make_pattern("A")
        engine = MatchingEngine(workers=1, cache=False)
        try:
            before = engine.search(pattern, [transformed])
            report = explain(pattern, transformed)
            after = engine.search(pattern, [transformed])
        finally:
            engine.close()
        assert _signatures(after) == _signatures(before)
        assert report.occurrences == sum(
            len(m.occurrences) for m in before
        )
