"""Cached matching engine (repro.core.engine)."""

import gc
import weakref

import pytest

import repro.core.engine as engine_module
from repro.core import OptImatch, transform_plan, transform_workload
from repro.core.engine import LRUCache, MatchingEngine
from repro.core.matcher import find_matches
from repro.kb import builtin_knowledge_base
from repro.kb.builtin import builtin_sparql, make_pattern
from repro.qep.writer import write_plan
from repro.rdf import Literal, URIRef
from repro.workload import generate_workload


@pytest.fixture(scope="module")
def planted_workload():
    plans = generate_workload(
        12,
        seed=77,
        plant_rates={"A": 0.6, "B": 0.4},
        size_sampler=lambda rng: rng.randint(12, 30),
    )
    return [transform_plan(plan) for plan in plans]


@pytest.fixture
def cold_memos(planted_workload):
    """Forget everything earlier tests memoized on the planted graphs.

    Match results live in each graph's memo, shared by every caching
    engine, so a test that counts a new engine's first misses starts
    from graphs no earlier test has searched.
    """
    for transformed in planted_workload:
        transformed.graph.drop_memos()


def _memoized(transformed):
    """The ``(query text, occurrences)`` results memoized on a plan's graph."""
    return transformed.graph.memo_items("matches")


def _signatures(matches):
    return [
        (m.plan_id, [o.signature() for o in m.occurrences]) for m in matches
    ]


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache.put("c", 3)
        assert (cache.get("a"), cache.get("b"), cache.get("c")) == (1, None, 3)

    def test_get_default(self):
        assert LRUCache(1).get("missing", 42) == 42

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestParallelEqualsSerial:
    def test_identical_to_find_matches(self, planted_workload):
        serial = find_matches(builtin_sparql("A"), planted_workload)
        with MatchingEngine() as engine:
            cached = engine.search(builtin_sparql("A"), planted_workload)
        assert _signatures(cached) == _signatures(serial)

    def test_workload_order_preserved(self, planted_workload):
        with MatchingEngine() as engine:
            matches = engine.search(builtin_sparql("A"), planted_workload)
        order = [t.plan_id for t in planted_workload]
        positions = [order.index(m.plan_id) for m in matches]
        assert positions == sorted(positions)

    def test_accepts_pattern_objects(self, planted_workload):
        with MatchingEngine() as engine:
            by_pattern = engine.search(make_pattern("A"), planted_workload)
            by_text = engine.search(builtin_sparql("A"), planted_workload)
        assert _signatures(by_pattern) == _signatures(by_text)

    def test_keep_empty_returns_every_plan(self, planted_workload):
        with MatchingEngine() as engine:
            all_plans = engine.search(
                builtin_sparql("A"), planted_workload, keep_empty=True
            )
        assert [m.plan_id for m in all_plans] == [
            t.plan_id for t in planted_workload
        ]


@pytest.mark.usefixtures("cold_memos")
class TestMatchCache:
    def test_repeat_search_hits_cache(self, planted_workload):
        engine = MatchingEngine(workers=1)
        first = engine.search(builtin_sparql("A"), planted_workload)
        second = engine.search(builtin_sparql("A"), planted_workload)
        assert _signatures(first) == _signatures(second)
        stats = engine.stats()
        assert stats["matchCache"]["hits"] == len(planted_workload)
        assert stats["matchCache"]["misses"] == len(planted_workload)
        assert stats["matchCache"]["hitRate"] == 0.5
        assert stats["plansFromCache"] == len(planted_workload)

    def test_version_bump_invalidates_one_plan(self, planted_workload):
        engine = MatchingEngine(workers=1)
        sparql = builtin_sparql("A")
        engine.search(sparql, planted_workload)
        # Mutate one plan's graph: only that plan must be re-evaluated.
        planted_workload[0].graph.add(
            (URIRef("http://x/s"), URIRef("http://x/p"), Literal("v"))
        )
        engine.search(sparql, planted_workload)
        stats = engine.stats()
        assert stats["matchCache"]["hits"] == len(planted_workload) - 1
        assert stats["plansEvaluated"] == len(planted_workload) + 1

    def test_no_cache_engine_always_evaluates(self, planted_workload):
        engine = MatchingEngine(workers=1, cache=False)
        engine.search(builtin_sparql("A"), planted_workload)
        engine.search(builtin_sparql("A"), planted_workload)
        stats = engine.stats()
        assert stats["cacheEnabled"] is False
        assert stats["matchCache"]["hits"] == 0
        assert stats["plansEvaluated"] == 2 * len(planted_workload)

    def test_prepared_ast_input_bypasses_caches(self, planted_workload):
        from repro.sparql import prepare_query

        engine = MatchingEngine(workers=1)
        ast = prepare_query(builtin_sparql("A"))
        serial = find_matches(ast, planted_workload)
        assert _signatures(engine.search(ast, planted_workload)) == _signatures(serial)
        assert not any(_memoized(t) for t in planted_workload)

    def test_drop_memos_forgets_match_results(self, planted_workload):
        engine = MatchingEngine(workers=1)
        engine.search(builtin_sparql("A"), planted_workload)
        assert all(_memoized(t) for t in planted_workload)
        for transformed in planted_workload:
            transformed.graph.drop_memos()
        assert not any(_memoized(t) for t in planted_workload)
        engine.search(builtin_sparql("A"), planted_workload)
        assert engine.stats()["matchCache"]["hits"] == 0


@pytest.mark.usefixtures("cold_memos")
class TestMatchResultsLiveOnTheGraph:
    """One owner for match results: each plan graph's per-version memo."""

    def test_engine_keeps_no_match_cache(self):
        assert not hasattr(engine_module, "MATCH_CACHE_SIZE")
        for name in ("_matches", "export_match_cache", "clear_caches"):
            assert not hasattr(MatchingEngine(workers=1), name), name

    def test_cached_search_memoizes_one_entry_per_query(
        self, planted_workload
    ):
        queries = [builtin_sparql(letter) for letter in "AB"]
        engine = MatchingEngine(workers=1)
        for query in queries + queries:
            engine.search(query, planted_workload)
        for transformed in planted_workload:
            assert list(transformed.graph.memo("matches")) == queries

    def test_uncached_search_memoizes_nothing(self, planted_workload):
        engine = MatchingEngine(workers=1, cache=False)
        engine.search(builtin_sparql("A"), planted_workload)
        for transformed in planted_workload:
            assert _memoized(transformed) == []

    def test_concurrent_searches_and_exports_lose_no_result(
        self, planted_workload
    ):
        import sys
        import threading

        queries = [builtin_sparql(letter) for letter in "ABCD"]
        engine = MatchingEngine(workers=1)
        stop = threading.Event()
        failures = []

        def search(query):
            try:
                engine.search(query, planted_workload)
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        def export():
            # A checkpoint copies memos while searches insert into them.
            try:
                while not stop.is_set():
                    for transformed in planted_workload:
                        _memoized(transformed)
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        threads = [threading.Thread(target=search, args=(q,)) for q in queries]
        threads.append(threading.Thread(target=export))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:-1]:
                thread.join(timeout=120)
        finally:
            stop.set()
            threads[-1].join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for transformed in planted_workload:
            assert sorted(q for q, _ in _memoized(transformed)) == sorted(queries)

    def test_engines_share_results_and_count_their_own(
        self, planted_workload
    ):
        first, second = MatchingEngine(workers=1), MatchingEngine(workers=1)
        expected = _signatures(first.search(builtin_sparql("A"), planted_workload))
        assert _signatures(
            second.search(builtin_sparql("A"), planted_workload)
        ) == expected
        assert first.stats()["matchCache"]["misses"] == len(planted_workload)
        assert second.stats()["matchCache"]["hits"] == len(planted_workload)
        assert second.stats()["plansEvaluated"] == 0


def _kb_texts():
    plans = generate_workload(
        3,
        seed=5,
        plant_rates=dict.fromkeys("ABCD", 1.0),
        size_sampler=lambda rng: 20,
    )
    return [write_plan(plan) for plan in plans]


class TestSupersededPlanIsFreed:
    """A replaced, removed or cleared plan takes its cached match results
    with it: nothing keeps its graph reachable once a KB run has moved
    on to the new workload."""

    @pytest.mark.parametrize("change", ["replace", "remove", "clear"])
    def test_plan_and_graph_are_collected(self, change):
        texts = _kb_texts()
        kb = builtin_knowledge_base()
        with OptImatch(workers=1) as tool:
            tool.load_explain_batch(texts)
            tool.run_knowledge_base(kb)
            plan_id = tool.workload[0].plan_id
            refs = [
                weakref.ref(tool.plan(plan_id)),
                weakref.ref(tool.plan(plan_id).graph),
            ]
            if change == "replace":
                tool.replace_explain_text(texts[1], plan_id)
            elif change == "remove":
                tool.remove_plan(plan_id)
            else:
                tool.clear()
            tool.run_knowledge_base(kb)
            gc.collect()
            assert [ref() for ref in refs] == [None, None]


class TestFig9Workload:
    """The engine on the Figure 9 workload (100 plans, seed 2016)."""

    @pytest.fixture(scope="class")
    def workload(self, fig9_workload_plans):
        return transform_workload(fig9_workload_plans)

    def test_identical_to_find_matches(self, workload):
        serial = find_matches(builtin_sparql("A"), workload)
        with MatchingEngine() as engine:
            cached = engine.search(builtin_sparql("A"), workload)
        assert _signatures(cached) == _signatures(serial)

    def test_repeated_search_evaluates_no_plan(self, workload):
        engine = MatchingEngine(workers=1)
        engine.search(builtin_sparql("A"), workload)
        before = engine.stats()
        engine.search(builtin_sparql("A"), workload)
        after = engine.stats()
        assert after["plansEvaluated"] == before["plansEvaluated"]
        hits = after["matchCache"]["hits"] - before["matchCache"]["hits"]
        assert hits == len(workload)


class TestPreparedCache:
    def test_query_parsed_once(self, planted_workload):
        engine = MatchingEngine(workers=1)
        for _ in range(3):
            engine.search(builtin_sparql("B"), planted_workload)
        stats = engine.stats()
        assert stats["preparedCache"]["misses"] == 1
        assert stats["preparedCache"]["hits"] == 2

    def test_equal_patterns_share_an_entry(self, planted_workload):
        engine = MatchingEngine(workers=1)
        engine.search(make_pattern("A"), planted_workload)
        engine.search(make_pattern("A"), planted_workload)
        stats = engine.stats()
        assert stats["preparedCache"]["misses"] == 1
        assert stats["preparedCache"]["size"] == 1


class TestStatsApi:
    def test_snapshot_shape(self, planted_workload):
        engine = MatchingEngine()
        engine.search(builtin_sparql("A"), planted_workload)
        stats = engine.stats()
        assert stats["workers"] == 1
        assert stats["mode"] == "serial"
        assert stats["searches"] == 1
        assert stats["plansSeen"] == len(planted_workload)
        assert stats["timings"]["totalSeconds"] >= 0.0
        assert stats["timings"]["evaluateSeconds"] >= 0.0
        matched = {m.plan_id: m.count for m in find_matches(builtin_sparql("A"), planted_workload)}
        assert stats["matchesPerPlan"] == matched

    def test_stats_json_serializable(self, planted_workload):
        import json

        engine = MatchingEngine(workers=1)
        engine.search(builtin_sparql("A"), planted_workload)
        json.dumps(engine.stats())


class TestExecutionSetting:
    def test_single_worker_is_serial_without_fallback(self):
        with MatchingEngine(workers=1) as engine:
            assert (engine.mode, engine.mode_fallback) == ("serial", None)


class TestFacadeIntegration:
    def test_search_matches_bare_find_matches(self, planted_workload):
        tool = OptImatch()
        tool.add_plans([t.plan for t in planted_workload])
        serial = find_matches(make_pattern("A"), planted_workload)
        assert _signatures(tool.search(make_pattern("A"))) == _signatures(serial)
        assert tool.stats()["searches"] == 1

    def test_kb_run_with_engine_equals_serial(self, planted_workload):
        kb = builtin_knowledge_base()
        serial_report = kb.find_recommendations(planted_workload)
        engine_report = kb.find_recommendations(
            planted_workload, engine=MatchingEngine()
        )
        assert engine_report.summary() == serial_report.summary()
        assert (
            engine_report.entry_hit_counts() == serial_report.entry_hit_counts()
        )

    @pytest.mark.usefixtures("cold_memos")
    def test_repeated_kb_run_hits_cache(self, planted_workload):
        kb = builtin_knowledge_base()
        engine = MatchingEngine(workers=1)
        kb.find_recommendations(planted_workload, engine=engine)
        kb.find_recommendations(planted_workload, engine=engine)
        stats = engine.stats()
        expected = len(kb) * len(planted_workload)
        assert stats["matchCache"]["hits"] == expected
        assert stats["preparedCache"]["misses"] == len(kb)

    def test_run_knowledge_base_uses_engine(self, figure1_plan):
        tool = OptImatch()
        tool.add_plan(figure1_plan)
        report = tool.run_knowledge_base(builtin_knowledge_base())
        assert report.for_plan("fig1") is not None
        assert tool.stats()["searches"] == len(builtin_knowledge_base())


class TestAtomicLoads:
    def test_add_plans_atomic_on_duplicate(self, figure1_plan):
        from tests.conftest import build_figure1_plan

        tool = OptImatch()
        tool.add_plan(figure1_plan)
        fresh = [build_figure1_plan("new-1"), build_figure1_plan("fig1")]
        with pytest.raises(ValueError, match="duplicate"):
            tool.add_plans(fresh)
        assert tool.plan_count == 1  # nothing from the failed batch
        with pytest.raises(KeyError):
            tool.plan("new-1")

    def test_add_plans_atomic_on_duplicate_within_batch(self):
        from tests.conftest import build_figure1_plan

        tool = OptImatch()
        batch = [build_figure1_plan("x"), build_figure1_plan("x")]
        with pytest.raises(ValueError, match="duplicate"):
            tool.add_plans(batch)
        assert tool.plan_count == 0

    def test_load_workload_dir_atomic_on_parse_failure(self, tmp_path):
        from repro.qep.writer import write_plan_file
        from tests.conftest import build_figure1_plan

        write_plan_file(build_figure1_plan("good"), str(tmp_path / "a.exfmt"))
        (tmp_path / "broken.exfmt").write_text("this is not an explain file")
        tool = OptImatch()
        with pytest.raises(Exception):
            tool.load_workload_dir(str(tmp_path))
        assert tool.plan_count == 0

    def test_load_workload_dir_atomic_on_duplicate(self, tmp_path):
        from repro.qep.writer import write_plan_file
        from tests.conftest import build_figure1_plan

        write_plan_file(build_figure1_plan("dup"), str(tmp_path / "a.exfmt"))
        write_plan_file(build_figure1_plan("other"), str(tmp_path / "b.exfmt"))
        tool = OptImatch()
        tool.add_plan(build_figure1_plan("dup"))
        with pytest.raises(ValueError, match="duplicate"):
            tool.load_workload_dir(str(tmp_path))
        assert tool.plan_count == 1
        with pytest.raises(KeyError):
            tool.plan("other")


class TestStatsTornReads:
    """Regression: ``stats()`` must never expose a half-committed search.

    The engine accumulates per-search counters locally and commits them
    under one lock, so every snapshot satisfies the documented
    invariants even while other threads are mid-search.  Before the fix
    the counters were bumped one by one on the shared dict and a
    concurrent reader could observe e.g. ``plansSeen`` updated but
    ``plansEvaluated`` not yet.
    """

    def _assert_consistent(self, stats):
        assert stats["matchCache"]["hits"] == stats["plansFromCache"], stats
        assert (
            stats["plansSeen"]
            == stats["plansEvaluated"] + stats["plansFromCache"]
        ), stats

    def test_engine_snapshots_consistent_under_load(self, planted_workload):
        import threading

        engine = MatchingEngine(cache=True)
        snapshots = []
        stop = threading.Event()

        def searcher():
            for i in range(8):
                # Alternate patterns so both cache hits and misses occur.
                engine.search(builtin_sparql("AB"[i % 2]), planted_workload)

        def reader():
            while not stop.is_set():
                snapshots.append(engine.stats())

        try:
            searchers = [threading.Thread(target=searcher) for _ in range(3)]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in readers + searchers:
                thread.start()
            for thread in searchers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
        finally:
            stop.set()
            engine.close()
        assert snapshots, "readers never sampled stats()"
        for stats in snapshots:
            self._assert_consistent(stats)
        self._assert_consistent(engine.stats())

    def test_facade_snapshots_consistent_under_load(self, planted_workload):
        import threading

        tool = OptImatch(cache=True)
        tool.add_plans([t.plan for t in planted_workload])
        snapshots = []
        stop = threading.Event()

        def searcher():
            for i in range(6):
                tool.search(make_pattern("AB"[i % 2]))

        def reader():
            while not stop.is_set():
                snapshots.append(tool.stats())

        searchers = [threading.Thread(target=searcher) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers + searchers:
            thread.start()
        for thread in searchers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert snapshots
        for stats in snapshots:
            self._assert_consistent(stats)
        assert tool.stats()["searches"] == 12
