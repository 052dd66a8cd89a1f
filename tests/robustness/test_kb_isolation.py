"""Per-entry fault isolation in knowledge-base runs."""

import pytest

from repro.core import Budget, MatchingEngine
from repro.kb import builtin_knowledge_base
from repro.testing import chaos
from repro.testing.clock import FakeClock


@pytest.fixture
def kb():
    return builtin_knowledge_base()


def entry_names(kb):
    return [entry.name for entry in kb.entries]


def expired_budget():
    clock = FakeClock()
    budget = Budget(timeout_ms=1, clock=clock)
    clock.advance(0.01)  # past the deadline, no wall time spent
    return budget


class TestEngineBackedRuns:
    def test_broken_entry_is_reported_not_fatal(self, kb, small_transformed):
        baseline = kb.find_recommendations(
            small_transformed, engine=MatchingEngine(workers=1)
        ).entry_hit_counts()
        bad = entry_names(kb)[0]
        engine = MatchingEngine(workers=1)
        with chaos.injected("kb.entry", keys={bad}, exc=RuntimeError("boom")):
            report = kb.find_recommendations(
                small_transformed, engine=engine, isolate=True
            )
        assert report.degraded
        assert [e.entry_name for e in report.errors] == [bad]
        assert report.errors[0].kind == "error"
        # every other entry produced exactly its baseline hits
        expected = {k: v for k, v in baseline.items() if k != bad}
        assert report.entry_hit_counts() == expected

    def test_unisolated_run_still_raises(self, kb, small_transformed):
        engine = MatchingEngine(workers=1)
        with chaos.injected(
            "kb.entry", keys={entry_names(kb)[0]}, exc=RuntimeError("boom")
        ):
            with pytest.raises(RuntimeError, match="boom"):
                kb.find_recommendations(small_transformed, engine=engine)

    def test_budget_timeout_recorded_per_plan(self, kb, small_transformed):
        engine = MatchingEngine(workers=1)
        report = kb.find_recommendations(
            small_transformed, engine=engine, budget=expired_budget()
        )
        assert report.degraded
        assert {e.kind for e in report.errors} == {"timeout"}
        # a plan-level timeout names both the entry and the plan
        assert all(e.plan_id for e in report.errors)

    def test_error_objects_serialize(self, kb, small_transformed):
        engine = MatchingEngine(workers=1)
        with chaos.injected(
            "kb.entry", keys={entry_names(kb)[0]}, exc=RuntimeError("boom")
        ):
            report = kb.find_recommendations(
                small_transformed, engine=engine, isolate=True
            )
        payload = report.errors[0].to_json_object()
        assert payload["entry"] == entry_names(kb)[0]
        assert payload["kind"] == "error"
        assert "boom" in payload["message"]


class TestSerialRuns:
    def test_broken_entry_skipped_in_serial_path(self, kb, small_transformed):
        baseline = kb.find_recommendations(small_transformed).entry_hit_counts()
        bad = entry_names(kb)[1]
        with chaos.injected("kb.entry", keys={bad}, exc=RuntimeError("boom")):
            report = kb.find_recommendations(small_transformed, isolate=True)
        assert report.degraded
        assert {e.entry_name for e in report.errors} == {bad}
        # skipped-and-reported once, not once per plan
        assert len(report.errors) == 1
        expected = {k: v for k, v in baseline.items() if k != bad}
        assert report.entry_hit_counts() == expected

    def test_serial_budget_contains_limit_errors(self, kb, small_transformed):
        report = kb.find_recommendations(
            small_transformed, budget=expired_budget()
        )
        assert report.degraded
        assert {e.kind for e in report.errors} == {"timeout"}
        assert all(e.plan_id for e in report.errors)


def evaluation_counts(kb):
    """``optimatch_kb_entry_evaluations_total`` by outcome (the fixture's
    knowledge base has a private registry, so these are one run's)."""
    counts = {"hit": 0.0, "miss": 0.0, "error": 0.0}
    for snapshot in kb.registry.collect():
        if snapshot.name == "optimatch_kb_entry_evaluations_total":
            for sample in snapshot.samples:
                counts[dict(sample.labels)["outcome"]] = sample.value
    return counts


ENGINES = {
    "engine-given": lambda: MatchingEngine(workers=1),
    "engine-omitted": lambda: None,
}


class TestEvaluationCounting:
    """Every evaluated (entry, plan) pair counts once as a hit, a miss or
    an error, and errors match the report's error records one for one."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_timeouts_count_as_errors_not_misses(self, kb, engine):
        from repro.core.transform import transform_workload
        from repro.workload import generate_workload

        plans = transform_workload(generate_workload(6, seed=7))
        report = kb.find_recommendations(
            plans, engine=ENGINES[engine](), budget=expired_budget()
        )
        assert len(report.errors) == len(kb) * len(plans)
        assert evaluation_counts(kb) == {
            "hit": 0, "miss": 0, "error": len(report.errors)
        }

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_entry_failed_by_chaos_counts_one_error(
        self, kb, small_transformed, engine
    ):
        bad = entry_names(kb)[0]
        with chaos.injected("kb.entry", keys={bad}, exc=RuntimeError("boom")):
            report = kb.find_recommendations(
                small_transformed, engine=ENGINES[engine](), isolate=True
            )
        counts = evaluation_counts(kb)
        assert len(report.errors) == 1
        assert counts["error"] == 1
        # the broken entry's plans are skipped, every other pair counts once
        assert counts["hit"] + counts["miss"] == (len(kb) - 1) * len(
            small_transformed
        )
