"""The multiprocess matching tier: differential, chaos, budget, leaks.

The contract under test (``docs/scale-out.md``): more than one worker
gives *bit-identical* results — the same occurrences in the same order
— as the in-process path; a worker crash mid-search degrades the batch
with structured ``kind="crash"`` errors and the pool respawns, while a
task that merely raises fails only its own chunk; concurrent searches
share one snapshot build; budgets are enforced inside workers; and no
shared-memory segment outlives ``MatchingEngine.close()``.

Everything here drives a real spawn-context process pool, so the suite
skips as a whole where POSIX shared memory is unavailable.
"""

import copy
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import mpexec, transform_plan, transform_workload
from repro.core.engine import MatchingEngine, default_worker_count
from repro.core.limits import Budget
from repro.core.optimatch import OptImatch
from repro.core.sparqlgen import pattern_to_sparql
from repro.experiments.workloads import (
    experiment_workload,
    transformed_experiment_workload,
)
from repro.kb.builtin import builtin_sparql, make_pattern
from repro.testing import chaos

from tests.conftest import build_figure1_plan
from tests.core import _mp_faults

pytestmark = pytest.mark.skipif(
    not mpexec.available(), reason="POSIX shared memory unavailable"
)


def _signatures(matches):
    """Order-sensitive identity of a search outcome."""
    return [
        (m.plan_id, [occ.signature() for occ in m]) for m in matches
    ]


@pytest.fixture(scope="module")
def process_engine():
    with MatchingEngine(workers=2, cache=False) as engine:
        yield engine


@pytest.fixture(scope="module")
def serial_engine():
    with MatchingEngine(workers=1, cache=False) as engine:
        yield engine


class TestDifferential:
    """Process pool vs. in-process: same values, same order."""

    def test_fig9_workload_all_builtin_patterns(
        self, process_engine, serial_engine
    ):
        workload = transformed_experiment_workload(12, seed=2016)
        for letter in "ABCD":
            pattern = make_pattern(letter)
            expected = _signatures(serial_engine.search(pattern, workload))
            actual = _signatures(process_engine.search(pattern, workload))
            assert actual == expected, letter
        assert process_engine.stats()["mode"] == "process"

    def test_raw_sparql_entry_point(self, process_engine, serial_engine):
        workload = transformed_experiment_workload(8, seed=7)
        sparql = builtin_sparql("B")
        assert _signatures(process_engine.search(sparql, workload)) == (
            _signatures(serial_engine.search(sparql, workload))
        )

    @given(
        n_plans=st.integers(4, 10),
        seed=st.integers(0, 40),
        letter=st.sampled_from("ABCD"),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_workloads(
        self, process_engine, serial_engine, n_plans, seed, letter
    ):
        workload = transformed_experiment_workload(n_plans, seed=seed)
        pattern = make_pattern(letter)
        assert _signatures(process_engine.search(pattern, workload)) == (
            _signatures(serial_engine.search(pattern, workload))
        )


class TestStatsAndMetrics:
    def test_worker_slots_and_snapshot_counters(self):
        with MatchingEngine(workers=2) as engine:
            workload = transformed_experiment_workload(8, seed=3)
            engine.search(make_pattern("A"), workload)
            stats = engine.stats()
            assert stats["mode"] == "process"
            assert stats["modeFallback"] is None
            workers = set(stats["workerTasks"])
            assert workers and workers <= {"p0", "p1"}
            assert stats["snapshot"]["builds"] >= 1
            assert stats["snapshot"]["attaches"] >= 1
            assert stats["snapshot"]["buildSeconds"] > 0
            # Same workload again: the segment is reused, not rebuilt.
            engine.search(make_pattern("B"), workload)
            assert engine.stats()["snapshot"]["builds"] == 1

    def test_snapshot_rebuilt_when_graph_mutates(self):
        # cache=False keeps every plan pending on the second search; with
        # caching on only the mutated plan would re-evaluate, and a
        # single-plan batch skips the pool (and the rebuild) entirely.
        with MatchingEngine(workers=2, cache=False) as engine:
            workload = transformed_experiment_workload(6, seed=4)
            engine.search(make_pattern("A"), workload)
            graph = workload[0].graph
            triple = next(iter(graph))
            graph.remove(triple)
            graph.add(triple)  # bump the version, same contents
            engine.search(make_pattern("A"), workload)
            assert engine.stats()["snapshot"]["builds"] == 2

    def test_mode_gauge_exported(self):
        from repro.obs.prometheus import render_text

        with MatchingEngine(workers=2) as engine:
            text = render_text(engine.registry)
            assert 'optimatch_engine_mode_info{mode="process"} 1' in text
            assert 'optimatch_engine_mode_info{mode="serial"} 0' in text


class TestMatchMemo:
    """The process tier caches into the same per-graph memo as serial."""

    def test_repeat_search_is_served_from_each_graph_memo(
        self, serial_engine
    ):
        workload = transformed_experiment_workload(8, seed=15)
        pattern = make_pattern("A")
        expected = serial_engine.search(pattern, workload, keep_empty=True)
        with MatchingEngine(workers=2) as engine:
            first = engine.search(pattern, workload)
            before = engine.stats()
            second = engine.search(pattern, workload)
            after = engine.stats()
        assert before["mode"] == "process"
        assert before["snapshot"]["builds"] == 1  # the pool evaluated
        assert before["matchCache"]["misses"] == len(workload)
        assert after["matchCache"]["hits"] == len(workload)
        assert after["plansEvaluated"] == before["plansEvaluated"]
        assert after["workerTasks"] == before["workerTasks"]
        assert _signatures(second) == _signatures(first) == _signatures(
            m for m in expected if m
        )
        query = pattern_to_sparql(pattern)
        for transformed, result in zip(workload, expected):
            [(cached_query, occurrences)] = transformed.graph.memo_items(
                "matches"
            )
            assert cached_query == query
            assert [occ.signature() for occ in occurrences] == [
                occ.signature() for occ in result
            ]


#: Matches only an operator whose estimated cardinality is 424242.
CARDINALITY_QUERY = (
    "PREFIX predURI: <http://optimatch/predicate#> "
    "SELECT ?p WHERE { ?p predURI:hasEstimateCardinality ?c "
    "FILTER (?c = 424242) }"
)


def _same_size_variant(plan):
    """A copy of *plan*, same id and triple count, whose first operator
    alone matches :data:`CARDINALITY_QUERY`."""
    variant = copy.deepcopy(plan)
    variant.operators[min(variant.operators)].cardinality = 424242
    return variant


class TestSnapshotIdentity:
    """A snapshot serves exactly the graph objects it packed, at the
    versions it packed: not a same-id, same-size plan that replaced one
    of them, and each of two plans sharing an id reads its own image."""

    def test_same_id_same_size_variant_is_repacked(self, serial_engine):
        plans = experiment_workload(4, seed=4)
        original = transform_workload(plans)
        variant = transform_plan(_same_size_variant(plans[0]))
        assert variant.plan_id == original[0].plan_id
        assert variant.graph.version == original[0].graph.version
        changed = [variant] + original[1:]
        with MatchingEngine(workers=2, cache=False) as engine:
            for workload in (original, changed):
                expected = serial_engine.search(
                    CARDINALITY_QUERY, workload, keep_empty=True
                )
                actual = engine.search(
                    CARDINALITY_QUERY, workload, keep_empty=True
                )
                assert _signatures(actual) == _signatures(expected)
            assert engine.stats()["snapshot"]["builds"] == 2
        assert [m.count for m in expected] == [1, 0, 0, 0]

    def test_two_plans_under_one_id(self, serial_engine):
        plans = experiment_workload(4, seed=4)
        workload = [transform_plan(_same_size_variant(plans[0]))]
        workload += transform_workload(plans)
        expected = serial_engine.search(
            CARDINALITY_QUERY, workload, keep_empty=True
        )
        assert [m.count for m in expected] == [1, 0, 0, 0, 0]
        with MatchingEngine(workers=2, cache=False) as engine:
            actual = engine.search(
                CARDINALITY_QUERY, workload, keep_empty=True
            )
        assert _signatures(actual) == _signatures(expected)

    def test_each_graph_memo_names_its_image(self):
        workload = transformed_experiment_workload(4, seed=14)
        with MatchingEngine(workers=2, cache=False) as engine:
            snapshot, locations = engine._pin_snapshot(workload)
            try:
                assert not hasattr(snapshot, "directory")
                assert [
                    t.graph.memo("snapshot")["snapshot"] for t in workload
                ] == [(snapshot.name,) + location for location in locations]
                assert snapshot.locate(workload) == locations
                # The same plan transformed again: a graph it never packed.
                again = transformed_experiment_workload(1, seed=14)
                assert again[0].plan_id == workload[0].plan_id
                assert snapshot.locate(again) is None
            finally:
                engine._unpin_snapshot(snapshot)

    def test_facade_replace_plan(self):
        # Without the cache every plan stays pending, so the search
        # after the replace runs on the pool too.
        plans = experiment_workload(4, seed=4)
        with OptImatch(workers=2, cache=False) as tool:
            tool.add_plans(plans)
            assert tool.search(CARDINALITY_QUERY) == []
            tool.replace_plan(_same_size_variant(plans[0]))
            assert [
                (m.plan_id, m.count) for m in tool.search(CARDINALITY_QUERY)
            ] == [(plans[0].plan_id, 1)]
            assert tool.stats()["snapshot"]["builds"] == 2


class TestFallbacks:
    def test_single_worker_falls_back_to_serial(self, monkeypatch):
        # workers=0 means one per CPU; on a 1-CPU host that is serial.
        monkeypatch.setattr("repro.core.engine.os.cpu_count", lambda: 1)
        with MatchingEngine(workers=0) as engine:
            assert engine.mode == "serial"
            assert engine.workers == 1
            assert "serial" in engine.mode_fallback
            workload = transformed_experiment_workload(4, seed=5)
            assert engine.search(make_pattern("A"), workload) is not None

    def test_shm_unavailable_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.engine.mpexec.available", lambda: False
        )
        with MatchingEngine(workers=4) as engine:
            assert engine.mode == "serial"
            assert "unavailable" in engine.mode_fallback

    def test_default_worker_count_process_mode(self):
        assert default_worker_count() == (os.cpu_count() or 1)

    def test_invalid_mode_rejected(self):
        # mode= is not a setting: the worker count alone picks the tier.
        with pytest.raises(TypeError):
            MatchingEngine(mode="fibers")


class TestWorkerCrash:
    def test_kill_degrades_and_respawns(self):
        workload = transformed_experiment_workload(8, seed=6)
        victim = workload[3].plan_id
        with MatchingEngine(workers=2, cache=False) as engine:
            with chaos.injected(
                "mpexec.worker_plan", keys={victim}, kill=True
            ):
                result = engine.search_isolated(make_pattern("A"), workload)
            assert result.degraded
            kinds = {e.plan_id: e.kind for e in result.errors}
            assert kinds[victim] == "crash"
            assert set(kinds.values()) == {"crash"}
            # The pool respawns lazily: the next search must succeed and
            # return the full, non-degraded result set.
            again = engine.search_isolated(make_pattern("A"), workload)
            assert not again.degraded
            assert not again.errors

    def test_kill_without_isolation_raises(self):
        workload = transformed_experiment_workload(6, seed=6)
        victim = workload[0].plan_id
        with MatchingEngine(workers=2, cache=False) as engine:
            with chaos.injected(
                "mpexec.worker_plan", keys={victim}, kill=True
            ):
                with pytest.raises(RuntimeError, match="died"):
                    engine.search(make_pattern("A"), workload)


def _run_together(*searches):
    """Run each zero-argument search on its own thread; their results."""
    results = [None] * len(searches)

    def run(slot, search):
        results[slot] = search()

    threads = [
        threading.Thread(target=run, args=(slot, search))
        for slot, search in enumerate(searches)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a search never finished"
    return results


class TestConcurrentSearches:
    """Several searches in flight on one engine (the HTTP front's load)."""

    def test_first_searches_share_one_snapshot_build(
        self, serial_engine, monkeypatch
    ):
        workload = transformed_experiment_workload(8, seed=11)
        pattern = make_pattern("A")
        expected = _signatures(serial_engine.search(pattern, workload))
        with MatchingEngine(workers=2, cache=False) as engine:
            # Both searches reach the snapshot step before either builds.
            together = threading.Barrier(2)
            pin = engine._pin_snapshot

            def pin_together(plans):
                together.wait(timeout=60)
                return pin(plans)

            monkeypatch.setattr(engine, "_pin_snapshot", pin_together)
            results = _run_together(
                lambda: engine.search_isolated(pattern, workload),
                lambda: engine.search_isolated(pattern, workload),
            )
            for result in results:
                assert not result.errors
                assert _signatures(result) == expected
            assert engine.stats()["snapshot"]["builds"] == 1

    def test_task_exception_fails_only_its_chunk(
        self, serial_engine, monkeypatch
    ):
        clean = transformed_experiment_workload(8, seed=12)
        faulty = clean + [
            transform_plan(build_figure1_plan(_mp_faults.FAILING_PLAN))
        ]
        pattern = make_pattern("A")
        expected = _signatures(serial_engine.search(pattern, clean))
        monkeypatch.setattr(
            mpexec, "worker_run_chunk", _mp_faults.run_chunk_or_raise
        )
        with MatchingEngine(workers=2, cache=False) as engine:
            engine.search(pattern, clean)  # spawn the pool
            pool = engine._mp_pool
            together = threading.Barrier(2)

            def search(workload):
                together.wait(timeout=60)
                return engine.search_isolated(pattern, workload)

            broken, untouched = _run_together(
                lambda: search(faulty), lambda: search(clean)
            )
            # One plan per chunk here: only the raising chunk fails, as
            # an error — its worker is alive, so it is no crash.
            assert [(e.plan_id, e.kind) for e in broken.errors] == [
                (_mp_faults.FAILING_PLAN, "error")
            ]
            assert "injected task failure" in broken.errors[0].message
            assert _signatures(broken) == expected
            assert not untouched.errors
            assert _signatures(untouched) == expected
            assert engine._mp_pool is pool  # the pool was left alone

    def test_rebuild_keeps_a_pinned_segment(self):
        workload = transformed_experiment_workload(4, seed=14)
        with MatchingEngine(workers=2, cache=False) as engine:
            first, _ = engine._pin_snapshot(workload)
            graph = workload[0].graph
            triple = next(iter(graph))
            graph.remove(triple)
            graph.add(triple)  # bump the version: the next pin rebuilds
            second, _ = engine._pin_snapshot(workload)
            assert second is not first
            assert not first.closed  # a search may still be attaching it
            engine._unpin_snapshot(first)
            assert first.closed
            engine._unpin_snapshot(second)
            assert not second.closed  # current: kept for the next search


class TestBudgetInWorker:
    def test_deadline_enforced_within_tolerance(self):
        workload = transformed_experiment_workload(8, seed=8)
        delay = 0.25
        with MatchingEngine(workers=2, cache=False) as engine:
            with chaos.injected("mpexec.worker_plan", delay=delay):
                result = engine.search_isolated(
                    make_pattern("A"),
                    workload,
                    budget=Budget(timeout_ms=100),
                )
            assert result.degraded
            assert {e.kind for e in result.errors} == {"timeout"}
            # The budget is re-armed inside the worker; a timed-out plan
            # must stop within the injected stall plus a small margin,
            # not run to completion unbounded.
            for error in result.errors:
                assert error.elapsed_seconds <= delay + 0.6

    def test_expired_budget_fails_fast(self):
        workload = transformed_experiment_workload(6, seed=8)
        with MatchingEngine(workers=2, cache=False) as engine:
            budget = Budget(timeout_ms=0.0001)
            budget.expired()  # let the deadline lapse
            result = engine.search_isolated(
                make_pattern("A"), workload, budget=budget
            )
            assert {e.kind for e in result.errors} == {"timeout"}


class TestLeakSafety:
    def test_no_segment_survives_close(self):
        workload = transformed_experiment_workload(6, seed=9)
        engine = MatchingEngine(workers=2)
        try:
            engine.search(make_pattern("A"), workload)
            snapshot = engine._snapshot
            assert snapshot is not None
            name = snapshot.name
            if os.path.isdir("/dev/shm"):
                assert os.path.exists(f"/dev/shm/{name.lstrip('/')}")
        finally:
            engine.close()
        assert snapshot.closed
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")

    def test_close_is_idempotent(self):
        engine = MatchingEngine(workers=2)
        engine.close()
        engine.close()
