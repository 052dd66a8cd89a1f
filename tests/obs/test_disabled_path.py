"""The observability layer is free when off, checked structurally.

Instead of timing the disabled path against a recorded baseline, count
what it does: an engine search with the default (disabled) tracer must
construct no :class:`~repro.obs.tracing.Span`, and every probe lookup
the evaluator makes must come back ``None``.  The enabled run is the
control that proves both hooks are really on the search path.
"""

import pytest

from repro.core.engine import MatchingEngine
from repro.core.transform import transform_plan
from repro.kb.builtin import make_pattern
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.sparql import evaluator


@pytest.fixture
def recorded(monkeypatch):
    """Record every Span construction and every evaluator probe lookup."""
    spans, probes = [], []
    real_span, real_probe = tracing.Span, evaluator.active_probe

    def span(*args, **kwargs):
        spans.append(args[0])
        return real_span(*args, **kwargs)

    def active_probe():
        probe = real_probe()
        probes.append(probe)
        return probe

    monkeypatch.setattr(tracing, "Span", span)
    monkeypatch.setattr(evaluator, "active_probe", active_probe)
    return spans, probes


@pytest.fixture
def workload(small_workload):
    return [transform_plan(plan) for plan in small_workload]


def _search_all_patterns(engine, workload):
    for letter in "ABCD":
        engine.search(make_pattern(letter), workload)


def test_default_engine_allocates_no_span_and_sees_no_probe(
    recorded, workload
):
    spans, probes = recorded
    with MatchingEngine(cache=False) as engine:
        _search_all_patterns(engine, workload)
    assert spans == []
    assert probes, "the evaluator never looked for a probe"
    assert all(probe is None for probe in probes)


def test_enabled_tracer_is_the_control(recorded, workload):
    spans, probes = recorded
    with MatchingEngine(cache=False, tracer=Tracer(enabled=True)) as engine:
        _search_all_patterns(engine, workload)
    assert "search" in spans and "plan" in spans
    assert any(probe is not None for probe in probes)
