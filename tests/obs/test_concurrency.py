"""Thread-safety of the metrics registry and tracer under real load.

Two classes of guarantee:

* **No lost increments** — counters and histograms hammered from many
  threads land on exact totals (one lock per metric, shared by its
  label children).
* **Correct span parentage across threads** — the current span lives
  in a ``contextvars`` context, so every ``plan`` span must parent
  under the ``search`` span that ran it, even with concurrent searches
  from several threads interleaving on the same engine.
"""

import threading

from repro.core.engine import MatchingEngine
from repro.core.transform import transform_plan
from repro.kb.builtin import make_pattern
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

from tests.conftest import build_figure1_plan

N_THREADS = 8
N_INCREMENTS = 5_000


def _hammer(n_threads, target):
    threads = [threading.Thread(target=target) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestNoLostIncrements:
    def test_counter_exact_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "x")

        def work():
            for _ in range(N_INCREMENTS):
                counter.inc()

        _hammer(N_THREADS, work)
        (snapshot,) = registry.collect()
        assert snapshot.samples[0].value == N_THREADS * N_INCREMENTS

    def test_labeled_counter_exact_per_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "x", ("worker",))

        def work(name):
            child = counter.labels(name)
            for _ in range(N_INCREMENTS):
                child.inc()

        threads = [
            threading.Thread(target=work, args=(f"w{i % 2}",))
            for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        (snapshot,) = registry.collect()
        values = {s.labels: s.value for s in snapshot.samples}
        expected = (N_THREADS // 2) * N_INCREMENTS
        assert values[(("worker", "w0"),)] == expected
        assert values[(("worker", "w1"),)] == expected

    def test_histogram_exact_count_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", "x", buckets=(0.5, 1.5)
        )

        def work():
            for _ in range(N_INCREMENTS):
                histogram.observe(1.0)

        _hammer(N_THREADS, work)
        (snapshot,) = registry.collect()
        samples = {
            (s.suffix, s.labels): s.value for s in snapshot.samples
        }
        total = N_THREADS * N_INCREMENTS
        assert samples[("_count", ())] == total
        assert samples[("_sum", ())] == float(total)
        assert samples[("_bucket", (("le", "0.5"),))] == 0
        assert samples[("_bucket", (("le", "1.5"),))] == total


class TestEngineMetricsUnderParallelism:
    def test_engine_counters_exact_with_eight_workers(self, small_workload):
        """Concurrent searches from caller threads on one engine."""
        workload = [transform_plan(plan) for plan in small_workload]
        registry = MetricsRegistry()
        engine = MatchingEngine(cache=False, registry=registry)
        searches = 6
        try:

            def work():
                engine.search(make_pattern("A"), workload)

            threads = [
                threading.Thread(target=work) for _ in range(searches)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = engine.stats()
        finally:
            engine.close()
        assert stats["searches"] == searches
        assert stats["plansSeen"] == searches * len(workload)
        assert (
            stats["plansEvaluated"] + stats["plansFromCache"]
            == stats["plansSeen"]
        )
        by_name = {m.name: m for m in registry.collect()}
        engine_searches = by_name["optimatch_engine_searches_total"]
        assert engine_searches.samples[0].value == searches
        plan_outcomes = {
            s.labels: s.value
            for s in by_name["optimatch_engine_plans_total"].samples
        }
        assert (
            plan_outcomes[(("outcome", "evaluated"),)]
            + plan_outcomes[(("outcome", "cached"),)]
            == searches * len(workload)
        )


class TestSpanParentageAcrossThreads:
    def _plan_and_search_spans(self, tracer):
        spans = tracer.spans()
        return (
            [s for s in spans if s.name == "plan"],
            {s.span_id: s for s in spans if s.name == "search"},
        )

    def test_plan_spans_parent_under_search(self):
        workload = [
            transform_plan(build_figure1_plan(f"p{i}")) for i in range(16)
        ]
        tracer = Tracer(enabled=True)
        engine = MatchingEngine(cache=False, tracer=tracer)
        try:
            engine.search(make_pattern("A"), workload)
        finally:
            engine.close()
        plan_spans, search_spans = self._plan_and_search_spans(tracer)
        assert len(search_spans) == 1
        assert len(plan_spans) == len(workload)
        (search_id,) = search_spans
        for span in plan_spans:
            assert span.parent_id == search_id, (
                f"plan span {span.span_id} orphaned (parent "
                f"{span.parent_id})"
            )

    def test_concurrent_searches_never_cross_adopt(self):
        workload = [
            transform_plan(build_figure1_plan(f"p{i}")) for i in range(8)
        ]
        tracer = Tracer(enabled=True)
        engine = MatchingEngine(cache=False, tracer=tracer)
        n_searchers = 4
        try:

            def work():
                engine.search(make_pattern("A"), workload)

            threads = [
                threading.Thread(target=work) for _ in range(n_searchers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            engine.close()
        plan_spans, search_spans = self._plan_and_search_spans(tracer)
        assert len(search_spans) == n_searchers
        assert len(plan_spans) == n_searchers * len(workload)
        per_search = {}
        for span in plan_spans:
            assert span.parent_id in search_spans, "orphaned plan span"
            parent = search_spans[span.parent_id]
            assert parent.trace_id == span.trace_id, (
                "plan span adopted by a different search's trace"
            )
            per_search[span.parent_id] = per_search.get(span.parent_id, 0) + 1
        assert all(
            count == len(workload) for count in per_search.values()
        ), f"uneven plan-span attribution: {per_search}"
        assert tracer.dropped == 0

    def test_bounded_buffer_drops_cleanly(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for index in range(10):
            with tracer.span("plan", planId=str(index)):
                pass
        assert len(tracer.spans()) == 3
        assert tracer.dropped == 7
