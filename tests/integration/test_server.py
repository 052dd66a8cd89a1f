"""HTTP server facade."""

import http.client
import json

import pytest

from repro.kb.builtin import make_pattern
from repro.qep import write_plan
from repro.server import AsyncOptImatchServer
from tests.conftest import build_figure1_plan


@pytest.fixture(scope="module")
def server():
    instance = AsyncOptImatchServer(port=0).start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    yield connection
    connection.close()


def _request(client, method, path, body=None):
    client.request(method, path, body=body)
    response = client.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    return response.status, payload


@pytest.fixture(autouse=True)
def clean_workload(client):
    _request(client, "DELETE", "/plans")
    yield


class TestHealthAndPlans:
    def test_health(self, client):
        status, payload = _request(client, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["kbEntries"] >= 4

    def test_stats_endpoint(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        _request(
            client, "POST", "/search", make_pattern("A").to_json()
        )
        status, payload = _request(client, "GET", "/stats")
        assert status == 200
        assert payload["workers"] >= 1
        assert payload["searches"] >= 1
        assert "matchCache" in payload and "timings" in payload

    def test_upload_plan(self, client):
        text = write_plan(build_figure1_plan())
        status, payload = _request(client, "POST", "/plans", text)
        assert status == 201
        assert payload["planId"] == "fig1"
        assert payload["operators"] == 5
        assert payload["triples"] > 20

    def test_list_plans(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, payload = _request(client, "GET", "/plans")
        assert status == 200
        assert payload["plans"] == ["fig1"]

    def test_duplicate_upload_rejected(self, client):
        text = write_plan(build_figure1_plan())
        _request(client, "POST", "/plans", text)
        status, payload = _request(client, "POST", "/plans", text)
        assert status == 400
        assert "duplicate" in payload["error"]

    def test_malformed_plan_rejected(self, client):
        status, payload = _request(client, "POST", "/plans", "not a plan")
        assert status == 400

    def test_clear(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, _ = _request(client, "DELETE", "/plans")
        assert status == 200
        _, payload = _request(client, "GET", "/plans")
        assert payload["plans"] == []

    def test_unknown_path(self, client):
        status, _ = _request(client, "GET", "/nope")
        assert status == 404


class TestSearch:
    def test_search_with_pattern_json(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        pattern_json = make_pattern("A").to_json()
        status, payload = _request(client, "POST", "/search", pattern_json)
        assert status == 200
        matches = payload["matches"]
        assert len(matches) == 1
        assert matches[0]["planId"] == "fig1"
        bindings = matches[0]["occurrences"][0]
        assert bindings["TOP"]["type"] == "NLJOIN"
        assert bindings["BASE"]["table"] == "TPCD.CUST_DIM"

    def test_search_with_raw_sparql(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        sparql = (
            "PREFIX predURI: <http://optimatch/predicate#>\n"
            'SELECT ?pop1 WHERE { ?pop1 predURI:hasPopType "NLJOIN" }'
        )
        status, payload = _request(client, "POST", "/search/sparql", sparql)
        assert status == 200
        assert len(payload["matches"]) == 1

    def test_bad_pattern_rejected(self, client):
        status, payload = _request(client, "POST", "/search", "{bad json")
        assert status == 400


class TestConcurrency:
    def test_parallel_uploads_and_searches(self, server, client):
        """The server must stay consistent under concurrent
        uploads and searches (the state lock does the serialization)."""
        import threading

        from repro.workload import generate_workload

        plans = generate_workload(
            8, seed=500, size_sampler=lambda rng: rng.randint(8, 20)
        )
        texts = [write_plan(plan) for plan in plans]
        errors = []

        def upload(text):
            connection = http.client.HTTPConnection(*server.address, timeout=20)
            try:
                connection.request("POST", "/plans", body=text)
                response = connection.getresponse()
                payload = response.read()
                if response.status != 201:
                    errors.append(payload)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=upload, args=(text,)) for text in texts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _, payload = _request(client, "GET", "/plans")
        assert len(payload["plans"]) == 8


class TestKnowledgeBase:
    def test_list_entries(self, client):
        status, payload = _request(client, "GET", "/kb/entries")
        assert status == 200
        assert "pattern-a" in payload["entries"]

    def test_run_kb(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, payload = _request(client, "POST", "/kb/run")
        assert status == 200
        assert payload["hits"].get("pattern-a") == 1
        plan_result = payload["plans"][0]
        texts = [
            text
            for result in plan_result["results"]
            for text in result["recommendations"]
        ]
        assert any("TPCD.CUST_DIM" in t for t in texts)

    def test_add_entry_roundtrip(self, client):
        from repro.kb import Recommendation
        from repro.kb.knowledge_base import KBEntry

        entry = KBEntry(
            name="uploaded-entry",
            pattern=make_pattern("D"),
            recommendations=[Recommendation(template="look at @SORT")],
        )
        status, payload = _request(
            client, "POST", "/kb/entries", json.dumps(entry.to_json_object())
        )
        assert status == 201
        _, listing = _request(client, "GET", "/kb/entries")
        assert "uploaded-entry" in listing["entries"]
