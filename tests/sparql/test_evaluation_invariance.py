"""Optimizations must be invisible: join reordering and closure caching
may change cost, never results.

Engine against engine.  Join reordering may change the order of
unordered rows, never the rows.  Closure caching may not even change
the order or a spelling: the memo replays the closure's BFS discovery
order, and numeric literals compare by value, so only an exact-spelling
comparison sees a changed spelling.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from tests.sparql.test_oracle_differential import (
    PARSED,
    build_graph,
    edges_strategy,
    engine_rows,
    policy,
    spelled,
)


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(PARSED) - 1))
def test_reordering_never_changes_results(edges, query_index):
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    optimized = engine_rows(graph, parsed)
    with policy(reordering=False, caching=True):
        naive = engine_rows(graph, parsed)
    assert Counter(optimized) == Counter(naive)


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(PARSED) - 1))
def test_closure_cache_never_changes_results(edges, query_index):
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    cached = spelled(engine_rows(graph, parsed))
    cached_again = spelled(engine_rows(graph, parsed))
    with policy(reordering=True, caching=False):
        uncached = spelled(engine_rows(graph, parsed))
    assert cached == cached_again == uncached
