"""Per-plan fault isolation and budgets in the matching engine."""

import pytest

from repro.core import Budget, MatchingEngine, PlanError
from repro.testing import chaos

from tests.robustness.conftest import TRIVIAL_SPARQL


def plan_ids(transformed):
    return [t.plan_id for t in transformed]


class TestFaultIsolation:
    def test_one_broken_plan_does_not_poison_the_batch(self, small_transformed):
        bad = small_transformed[2].plan_id
        engine = MatchingEngine(workers=1)
        with chaos.injected(
            "matcher.search_plan", keys={bad}, exc=RuntimeError("boom")
        ):
            result = engine.search_isolated(TRIVIAL_SPARQL, small_transformed)
        assert result.degraded
        assert [e.plan_id for e in result.errors] == [bad]
        assert result.errors[0].kind == "error"
        assert "boom" in result.errors[0].message
        # every healthy plan still matched (all plans have a RETURN op)
        matched = {m.plan_id for m in result.matches}
        assert matched == set(plan_ids(small_transformed)) - {bad}

    def test_plain_search_still_raises(self, small_transformed):
        engine = MatchingEngine(workers=1)
        with chaos.injected(
            "matcher.search_plan",
            keys={small_transformed[0].plan_id},
            exc=RuntimeError("boom"),
        ):
            with pytest.raises(RuntimeError, match="boom"):
                engine.search(TRIVIAL_SPARQL, small_transformed)

    def test_errors_are_not_cached(self, small_transformed):
        """A transient failure must not be replayed from the match cache."""
        bad = small_transformed[0].plan_id
        engine = MatchingEngine(workers=1, cache=True)
        with chaos.injected(
            "matcher.search_plan", keys={bad}, exc=RuntimeError("flaky")
        ):
            first = engine.search_isolated(TRIVIAL_SPARQL, small_transformed)
        assert any(e.plan_id == bad for e in first.errors)
        second = engine.search_isolated(TRIVIAL_SPARQL, small_transformed)
        assert not second.errors
        assert {m.plan_id for m in second.matches} == set(
            plan_ids(small_transformed)
        )

    def test_plan_errors_counted_in_stats(self, small_transformed):
        engine = MatchingEngine(workers=1)
        with chaos.injected(
            "matcher.search_plan",
            keys={small_transformed[1].plan_id},
            exc=RuntimeError("boom"),
        ):
            engine.search_isolated(TRIVIAL_SPARQL, small_transformed)
        assert engine.stats()["planErrors"] == 1


class TestPlanErrorShape:
    def test_to_json_object(self):
        error = PlanError(
            plan_id="p1", kind="timeout", message="late", elapsed_seconds=1.25
        )
        assert error.to_json_object() == {
            "planId": "p1",
            "kind": "timeout",
            "message": "late",
            "elapsedSeconds": 1.25,
        }

    def test_search_result_iterates_matches(self, small_transformed):
        engine = MatchingEngine(workers=1)
        result = engine.search_isolated(TRIVIAL_SPARQL, small_transformed)
        assert not result.degraded
        assert list(result) == result.matches
        assert len(result) == len(result.matches)


class TestBudgets:
    def test_expired_budget_short_circuits_all_plans(self, small_transformed):
        from repro.testing.clock import FakeClock

        clock = FakeClock()
        expired = Budget(timeout_ms=1, clock=clock)
        clock.advance(0.01)  # past the deadline, no wall time spent
        engine = MatchingEngine(workers=1)
        result = engine.search_isolated(
            TRIVIAL_SPARQL, small_transformed, budget=expired
        )
        assert not result.matches
        assert len(result.errors) == len(small_transformed)
        assert {e.kind for e in result.errors} == {"timeout"}

    def test_binding_cap_produces_budget_error(self, small_transformed):
        engine = MatchingEngine(workers=1, cache=False)
        result = engine.search_isolated(
            TRIVIAL_SPARQL, small_transformed, budget=Budget(max_bindings=1)
        )
        assert result.degraded
        assert "budget" in {e.kind for e in result.errors}

    def test_generous_budget_changes_nothing(self, small_transformed):
        engine = MatchingEngine(workers=1)
        result = engine.search_isolated(
            TRIVIAL_SPARQL,
            small_transformed,
            budget=Budget(timeout_ms=60_000, max_bindings=10_000_000),
        )
        assert not result.errors
        assert len(result.matches) == len(small_transformed)
