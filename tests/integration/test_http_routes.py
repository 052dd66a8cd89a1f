"""HTTP route contract of the service front, over real sockets.

One :class:`AsyncOptImatchServer` answers every route; this suite pins
what a client sees on the wire — statuses, taxonomy ``code`` values,
content types, the ``Retry-After`` discipline and, where the payload
carries no timings, the exact body.  Routes whose payloads embed
timings (``/stats``, ``/metrics``) are checked structurally instead.

The Hypothesis property uploads one generated workload through each
ingest route in turn — one plan per request, a JSON batch, an NDJSON
stream split into arbitrary micro-batches — with a reset in between,
and asserts the observable state (plan listing, search results) is
byte-identical whichever route carried it.
"""

import http.client
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kb.builtin import make_pattern
from repro.qep import write_plan
from repro.server import RETRY_AFTER_SECONDS, AsyncOptImatchServer
from repro.workload import generate_workload
from tests.conftest import build_figure1_plan

SPARQL = (
    "PREFIX predURI: <http://optimatch/predicate#>\n"
    'SELECT ?pop1 WHERE { ?pop1 predURI:hasPopType "NLJOIN" }'
)


@pytest.fixture(scope="module")
def server():
    instance = AsyncOptImatchServer(port=0).start()
    yield instance
    instance.stop()


def _roundtrip(server, method, path, body=None, headers=None):
    """One request on a fresh connection → (status, lowercase headers,
    raw body bytes)."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        try:
            connection.request(method, path, body=body, headers=headers or {})
        except (BrokenPipeError, ConnectionResetError):
            # The server answered before reading the whole body (the
            # 413 path) and closed its read side; the response is
            # already on the wire.
            pass
        response = connection.getresponse()
        data = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            data,
        )
    finally:
        connection.close()


def _upload_figure1(server):
    status, _, _ = _roundtrip(
        server, "POST", "/plans", body=write_plan(build_figure1_plan())
    )
    assert status == 201


def _reset(server):
    status, _, _ = _roundtrip(server, "DELETE", "/plans")
    assert status == 200


@pytest.fixture(autouse=True)
def clean_workload(server):
    _reset(server)
    yield


class TestDeterministicRoutes:
    """Every route with a timing-free payload."""

    def test_health(self, server):
        status, _, body = _roundtrip(server, "GET", "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_plans_lifecycle(self, server):
        text = write_plan(build_figure1_plan())
        status, _, body = _roundtrip(server, "POST", "/plans", body=text)
        assert status == 201
        assert json.loads(body)["planId"] == "fig1"
        status, _, body = _roundtrip(server, "GET", "/plans")
        assert json.loads(body)["plans"] == ["fig1"]
        status, _, body = _roundtrip(server, "DELETE", "/plans")
        assert status == 200

    def test_batch_upload(self, server):
        texts = [write_plan(p) for p in generate_workload(4, seed=21)]
        status, _, body = _roundtrip(
            server,
            "POST",
            "/plans",
            body=json.dumps({"plans": texts}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 201
        assert json.loads(body)["count"] == 4

    def test_empty_batch_upload_names_no_plans(self, server):
        _upload_figure1(server)
        status, _, body = _roundtrip(
            server,
            "POST",
            "/plans",
            body=json.dumps({"plans": []}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 201
        reply = json.loads(body)
        assert (reply["planIds"], reply["count"]) == ([], 0)

    def test_search_pattern_json(self, server):
        _upload_figure1(server)
        status, _, body = _roundtrip(
            server, "POST", "/search", body=make_pattern("A").to_json()
        )
        assert status == 200
        assert len(json.loads(body)["matches"]) == 1

    def test_search_sparql(self, server):
        _upload_figure1(server)
        status, _, body = _roundtrip(
            server, "POST", "/search/sparql", body=SPARQL
        )
        assert status == 200
        assert json.loads(body)["matches"]

    def test_kb_entries_and_run(self, server):
        _upload_figure1(server)
        status, _, body = _roundtrip(server, "GET", "/kb/entries")
        assert "pattern-a" in json.loads(body)["entries"]
        status, _, body = _roundtrip(server, "POST", "/kb/run", body="")
        assert status == 200
        assert json.loads(body)["hits"].get("pattern-a") == 1

    def test_stream_ack_none(self, server):
        texts = [write_plan(p) for p in generate_workload(5, seed=22)]
        ndjson = b"".join(
            json.dumps(t).encode("utf-8") + b"\n" for t in texts
        )
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream?batch=2", body=ndjson
        )
        assert status == 201
        payload = json.loads(body)
        assert payload["count"] == 5 and payload["batches"] == 3
        _, _, body = _roundtrip(server, "GET", "/plans")
        assert len(json.loads(body)["plans"]) == 5

    def test_stream_ack_batch(self, server):
        texts = [write_plan(p) for p in generate_workload(4, seed=23)]
        ndjson = b"".join(
            json.dumps({"plan": t, "id": f"s{i}"}).encode("utf-8") + b"\n"
            for i, t in enumerate(texts)
        )
        status, headers, body = _roundtrip(
            server, "POST", "/plans/stream?ack=batch&batch=2", body=ndjson
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        lines = [json.loads(l) for l in body.splitlines() if l.strip()]
        assert lines[-1]["done"] is True
        assert [l["seq"] for l in lines[:-1]] == [1, 2]


class TestErrorTaxonomy:
    """Statuses, codes and headers on every failure path."""

    def test_unknown_path(self, server):
        status, _, body = _roundtrip(server, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["code"] == "not_found"

    def test_unknown_method(self, server):
        status, _, body = _roundtrip(server, "PUT", "/plans", body="")
        assert status == 405
        assert json.loads(body)["code"] == "method_not_allowed"

    def test_parse_error(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/plans", body="not a plan"
        )
        assert status == 400
        assert json.loads(body)["code"] == "parse_error"

    def test_duplicate_plan(self, server):
        text = write_plan(build_figure1_plan())
        _roundtrip(server, "POST", "/plans", body=text)
        status, _, body = _roundtrip(server, "POST", "/plans", body=text)
        assert status == 400
        assert "duplicate" in json.loads(body)["error"]

    def test_bad_search_body(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/search", body="{bad json"
        )
        assert status == 400

    def test_body_too_large(self, server):
        limit = server.state.max_body_bytes
        status, _, body = _roundtrip(
            server, "POST", "/plans", body=b"x" * (limit + 1)
        )
        assert status == 413
        assert json.loads(body)["code"] == "body_too_large"

    def test_bad_timeout_parameter(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/search/sparql?timeout_ms=banana", body=SPARQL
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_parameter"

    def test_stream_torn_final_line(self, server):
        text = write_plan(build_figure1_plan())
        ndjson = json.dumps(text).encode("utf-8") + b"\n" + b'"torn'
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream", body=ndjson
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["code"] == "truncated_stream"
        # Exactly the committed prefix stays.
        _, _, body = _roundtrip(server, "GET", "/plans")
        assert len(json.loads(body)["plans"]) == payload["ingested"]

    def test_stream_bad_record(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream", body=b"[1, 2, 3]\n"
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_stream_record"

    def test_stream_bad_ack_parameter(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream?ack=quorum", body=b""
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_parameter"

    def test_shed_responses_match(self, server):
        """Drain mode: heavy routes shed with 503 and Retry-After."""
        server.state.draining = True
        try:
            status, headers, body = _roundtrip(
                server, "POST", "/search/sparql", body=SPARQL
            )
            assert status == 503
            assert json.loads(body)["code"] == "shed"
            assert headers.get("retry-after") == str(RETRY_AFTER_SECONDS)
        finally:
            server.state.draining = False


class TestStructuralRoutes:
    """Timing-bearing routes: shape, not bytes."""

    def test_stats_same_keys(self, server):
        status, _, body = _roundtrip(server, "GET", "/stats")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == set(server.state.tool.stats())
        assert payload["mode"] == "serial"
        assert payload["workers"] == 1

    def test_metrics_exposition(self, server):
        status, headers, body = _roundtrip(server, "GET", "/metrics")
        assert status == 200
        assert "text/plain" in headers["content-type"]
        assert b"optimatch_http_requests_total" in body


class TestKeepAlive:
    """Keep-alive must not change response bytes."""

    def test_pipelined_sequence_one_connection(self, server):
        text = write_plan(build_figure1_plan())
        sequence = (
            ("POST", "/plans", text),
            ("GET", "/plans", None),
            ("POST", "/search/sparql", SPARQL),
            ("DELETE", "/plans", None),
        )
        # Several requests over ONE connection.
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            kept_alive = []
            for method, path, body in sequence:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                kept_alive.append(response.read())
        finally:
            connection.close()
        # The same sequence, one fresh connection per request.
        fresh = [
            _roundtrip(server, method, path, body)[2]
            for method, path, body in sequence
        ]
        assert kept_alive == fresh


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    batch=st.integers(1, 5),
)
def test_generated_workloads_agree(server, seed, count, batch):
    """Hypothesis: a generated workload uploaded one plan at a time, as
    a JSON batch, or streamed as NDJSON leaves byte-identical plan
    listings and search results."""
    texts = [
        write_plan(p)
        for p in generate_workload(
            count, seed=seed, size_sampler=lambda rng: rng.randint(5, 15)
        )
    ]
    ndjson = b"".join(json.dumps(t).encode("utf-8") + b"\n" for t in texts)
    uploads = {
        "single": [("/plans", text, {}) for text in texts],
        "batch": [
            (
                "/plans",
                json.dumps({"plans": texts}),
                {"Content-Type": "application/json"},
            )
        ],
        "stream": [(f"/plans/stream?batch={batch}", ndjson, {})],
    }
    observed = {}
    for route, requests in uploads.items():
        _reset(server)
        for path, body, headers in requests:
            status, _, _ = _roundtrip(server, "POST", path, body, headers)
            assert status == 201, route
        _, _, listing = _roundtrip(server, "GET", "/plans")
        status, _, matches = _roundtrip(
            server, "POST", "/search/sparql", body=SPARQL
        )
        assert status == 200
        assert len(json.loads(listing)["plans"]) == count
        observed[route] = (listing, matches)
    assert observed["single"] == observed["batch"] == observed["stream"]
