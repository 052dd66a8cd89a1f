"""Flagship acceptance: a pathological descendant pattern under governance.

The both-free double-closure query in ``PATHOLOGICAL_SPARQL`` asks for
mutually-reachable operator pairs over every stream edge.  Because
output streams point back up the tree, the closure is cyclic and the
join is combinatorial: a 220-operator plan takes *minutes* unbudgeted.
These tests demonstrate the acceptance criteria of the governance
layer: the search returns within the configured deadline, offenders
come back as structured timeout records, fast plans still match, and
``/health`` stays responsive throughout.
"""

import threading
import time

import pytest

from repro.core import Budget, MatchingEngine
from repro.server import AsyncOptImatchServer

from tests.robustness.conftest import PATHOLOGICAL_SPARQL

DEADLINE_MS = 800
#: Generous scheduling slack for loaded CI machines; the point is that
#: an unbudgeted run takes minutes, not that the overshoot is tiny.
SLACK_SECONDS = 2.0


def split_ids(workload):
    healthy = {t.plan_id for t in workload if t.plan.op_count < 50}
    monsters = {t.plan_id for t in workload if t.plan.op_count >= 50}
    assert healthy and monsters
    return healthy, monsters


class TestEngineDeadline:
    def test_partial_results_within_deadline(self, mixed_workload):
        healthy, monsters = split_ids(mixed_workload)
        engine = MatchingEngine(workers=1, cache=False)
        start = time.monotonic()
        result = engine.search_isolated(
            PATHOLOGICAL_SPARQL,
            mixed_workload,
            budget=Budget(timeout_ms=DEADLINE_MS),
        )
        elapsed = time.monotonic() - start
        assert elapsed < DEADLINE_MS / 1000.0 + SLACK_SECONDS
        # the tiny plans finished and matched (stream cycles guarantee
        # mutually-reachable pairs in every plan)
        assert {m.plan_id for m in result.matches} == healthy
        # every monster came back as a structured timeout record
        assert result.degraded
        timed_out = {
            e.plan_id for e in result.errors if e.kind == "timeout"
        }
        assert timed_out == monsters
        for error in result.errors:
            assert error.message
            assert error.elapsed_seconds >= 0.0

    def test_binding_cap_stops_blowup_without_clock(self, mixed_workload):
        """max_bindings bounds the work itself: even with no deadline the
        combinatorial join is cut off deterministically."""
        _, monsters = split_ids(mixed_workload)
        engine = MatchingEngine(workers=1, cache=False)
        start = time.monotonic()
        result = engine.search_isolated(
            PATHOLOGICAL_SPARQL,
            mixed_workload,
            budget=Budget(max_bindings=50_000),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # minutes unbudgeted
        budget_errors = {
            e.plan_id for e in result.errors if e.kind == "budget"
        }
        assert budget_errors & monsters

    def test_row_cap_limits_result_size(self, mixed_workload):
        engine = MatchingEngine(workers=1, cache=False)
        result = engine.search_isolated(
            PATHOLOGICAL_SPARQL,
            mixed_workload,
            budget=Budget(timeout_ms=DEADLINE_MS, max_rows=5),
        )
        kinds = {e.kind for e in result.errors}
        assert kinds <= {"timeout", "budget"}
        assert "budget" in kinds  # the 5-row cap tripped on some plan


class TestServerUnderPathologicalLoad:
    @pytest.fixture
    def server(self, mixed_workload):
        srv = AsyncOptImatchServer(port=0, workers=1)
        srv.start()
        # install the transformed workload directly (uploading monster
        # explain files is slow and beside the point here)
        for transformed in mixed_workload:
            srv.state.tool._workload.append(transformed)
            srv.state.tool._by_id[transformed.plan_id] = transformed
        yield srv
        srv.stop(drain_seconds=2.0)

    def test_deadline_and_health_under_fire(self, server, mixed_workload):
        """The acceptance scenario end to end over HTTP."""
        import json
        import urllib.request

        healthy, monsters = split_ids(mixed_workload)
        url = f"{server.url}/search/sparql?timeout_ms={DEADLINE_MS}"
        outcome = {}

        def fire():
            start = time.monotonic()
            request = urllib.request.Request(
                url,
                data=PATHOLOGICAL_SPARQL.encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                outcome["payload"] = json.loads(response.read())
            outcome["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=fire)
        thread.start()
        probes = []
        while thread.is_alive() and len(probes) < 100:
            start = time.monotonic()
            with urllib.request.urlopen(
                f"{server.url}/health", timeout=10
            ) as response:
                assert response.status == 200
            probes.append(time.monotonic() - start)
            time.sleep(0.05)
        thread.join(timeout=30)

        assert outcome["elapsed"] < DEADLINE_MS / 1000.0 + SLACK_SECONDS
        payload = outcome["payload"]
        assert payload["degraded"] is True
        matched = {m["planId"] for m in payload["matches"]}
        assert matched == healthy
        errors = payload["errors"]
        assert {e["planId"] for e in errors} == monsters
        assert all(e["kind"] == "timeout" for e in errors)
        # liveness: /health kept answering in well under 100 ms while
        # the pathological search was evaluating
        assert probes
        assert min(probes) < 0.1
