"""Budget enforcement on the *cached* closure path.

Regression suite for a bypass: a warm closure memo used to replay its
cached node sequence without calling ``budget.tick()``, so a query whose
closures were all memo hits could blow straight past an expired deadline
(or a binding cap) that the cold BFS would have honored.  The cached
path must tick once per yielded element, same as the BFS it replaces.
"""

import pytest

from repro.core import limits
from repro.core.limits import Budget, BudgetExceeded, EvaluationTimeout
from repro.rdf import Graph, Namespace
from repro.sparql import evaluator, query
from repro.sparql.parser import parse_query
from repro.testing.clock import FakeClock

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"
CHAIN_QUERY = PREFIX + "SELECT ?a ?b WHERE { ?a p:e0+ ?b }"


def chain_graph(length=40) -> Graph:
    g = Graph()
    for i in range(length):
        g.add((EX[f"n{i}"], P.e0, EX[f"n{i + 1}"]))
    return g


def expired_budget(clock=None, **kwargs):
    """A budget whose deadline has already passed, checking every tick."""
    clock = clock or FakeClock()
    budget = Budget(timeout_ms=100, clock=clock, check_interval=1, **kwargs)
    clock.advance(5.0)
    return budget


def closure_path():
    """The ``p:e0+`` PathMod AST node from the chain query."""
    ast = parse_query(CHAIN_QUERY)
    triple = ast.where.elements[0]
    return triple.predicate.path


def test_warm_closure_generator_still_honors_deadline():
    g = chain_graph()
    path = closure_path()
    start = g.term_id(EX.n40)
    # Warm the memo (a reverse closure) with no budget installed.
    warm = list(evaluator._closure_ids(path, g, start, forward=False))
    assert len(warm) == 40
    # Replay from the memo under an expired deadline: must raise, and
    # must do so before yielding the whole sequence.
    with limits.activate(expired_budget()):
        gen = evaluator._closure_ids(path, g, start, forward=False)
        with pytest.raises(EvaluationTimeout):
            for _ in gen:
                pass


def test_warm_closure_ids_generator_still_honors_deadline():
    g = chain_graph()
    path = closure_path()
    start = g.term_id(EX.n0)
    warm = list(evaluator._closure_ids(path, g, start, forward=True))
    assert len(warm) == 40
    with limits.activate(expired_budget()):
        gen = evaluator._closure_ids(path, g, start, forward=True)
        with pytest.raises(EvaluationTimeout):
            for _ in gen:
                pass


def test_warm_closure_generator_honors_binding_cap():
    g = chain_graph()
    path = closure_path()
    start = g.term_id(EX.n0)
    list(evaluator._closure_ids(path, g, start, forward=True))  # warm
    with limits.activate(Budget(max_bindings=5)):
        with pytest.raises(BudgetExceeded):
            for _ in evaluator._closure_ids(path, g, start, forward=True):
                pass


def test_warm_query_end_to_end_still_times_out():
    g = chain_graph()
    # First run warms every closure the query touches.
    warm = query(g, CHAIN_QUERY)
    assert len(warm) > 0
    clock = FakeClock()
    budget = Budget(timeout_ms=100, clock=clock, check_interval=1)
    clock.advance(5.0)
    with limits.activate(budget):
        with pytest.raises(EvaluationTimeout):
            query(g, CHAIN_QUERY)


def test_cold_and_warm_tick_counts_match():
    """The memo is a cost optimization, not a budget discount: replaying
    a closure charges the same per-element ticks as running its BFS."""
    path = closure_path()

    def ticks_for(graph):
        budget = Budget()
        start = graph.term_id(EX.n0)
        with limits.activate(budget):
            list(evaluator._closure_ids(path, graph, start, forward=True))
        return budget.bindings

    g = chain_graph()
    cold = ticks_for(g)
    warm = ticks_for(g)
    assert warm == cold
