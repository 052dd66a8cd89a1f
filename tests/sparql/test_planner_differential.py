"""The cost-based planner must be invisible in results.

Planned join order against written order (``JOIN_REORDERING`` off),
engine against engine:

* identical solution *sets* for every corpus query, also when the group
  starts from an initial binding: the planner orders a BGP per set of
  already-bound variables, so one query gets a different plan per bound
  set.  Sets compare as terms: a variable that two patterns bind to one
  numeric value under two spellings keeps the spelling of the pattern
  that bound it first, which the join order decides;
* identical result *sequences*, spelling for spelling, for the ORDER BY
  queries (where the order is part of the answer), on the graph and on
  its snapshot view, whose statistics the planner reads separately.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.rdf import Literal
from repro.rdf.term import Variable
from repro.sparql.evaluator import eval_group

from tests.sparql.test_oracle_differential import (
    PARSED,
    N,
    build_graph,
    edges_strategy,
    engine_rows,
    policy,
    snapshot_view,
    spelled,
)

_ORDERED = [parsed for parsed in PARSED if parsed.order_by]

#: An initial binding: one or two of the corpus's variable names (or a
#: name it never uses) to a node or to a p:val literal.
_bindings = st.dictionaries(
    st.sampled_from(["a", "b", "d", "x", "y", "v", "unused"]).map(Variable),
    st.one_of(
        st.integers(0, 5).map(lambda i: N[f"n{i}"]),
        st.integers(0, 5).map(lambda i: Literal(str(i))),
    ),
    max_size=2,
)


def _solutions(graph, parsed, bindings):
    return Counter(
        frozenset(solution.items())
        for solution in eval_group(parsed.where, graph, bindings)
    )


@settings(max_examples=25, deadline=None)
@given(
    edges=edges_strategy,
    query_index=st.integers(0, len(PARSED) - 1),
    bindings=_bindings,
)
def test_planner_never_changes_result_sets(edges, query_index, bindings):
    graph = build_graph(edges)
    parsed = PARSED[query_index]
    # Plan the unbound group first so the bound one is a second entry
    # of the plan memo, not the only one.
    planned_unbound = _solutions(graph, parsed, {})
    planned = _solutions(graph, parsed, bindings)
    with policy(reordering=False, caching=True):
        assert _solutions(graph, parsed, {}) == planned_unbound
        assert _solutions(graph, parsed, bindings) == planned


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, query_index=st.integers(0, len(_ORDERED) - 1))
def test_planner_preserves_ordered_results_bit_identically(edges, query_index):
    graph = build_graph(edges)
    parsed = _ORDERED[query_index]
    for store in (graph, snapshot_view(graph)):
        planned = spelled(engine_rows(store, parsed))
        with policy(reordering=False, caching=True):
            written = spelled(engine_rows(store, parsed))
        assert planned == written
