"""HTTP server governance: body validation, taxonomy, shedding, liveness."""

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.qep.writer import write_plan
from repro.server import AsyncOptImatchServer
from repro.testing import chaos
from repro.workload import generate_workload

from tests.robustness.conftest import PATHOLOGICAL_SPARQL, TRIVIAL_SPARQL


@pytest.fixture
def server():
    srv = AsyncOptImatchServer(port=0, workers=1)
    srv.start()
    yield srv
    srv.stop(drain_seconds=2.0)


def load_small_workload(srv, count=3):
    for plan in generate_workload(count, seed=5, size_sampler=lambda rng: 8):
        srv.state.tool.add_plan(plan)


def raw_request(srv, method, path, headers=None, body=None):
    """A request with full header control (urllib always fixes them up)."""
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), json.loads(
            response.read() or b"{}"
        )
    finally:
        conn.close()


def raw_exchange(srv, payload, timeout=10):
    """Write *payload* on one connection; return every response the
    server sends before closing it (or before a ``Connection: close``
    reply) as ``(status, headers, body)`` tuples."""
    sock = socket.create_connection(srv.address, timeout=timeout)
    try:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        responses = []
        while True:
            status_line = reader.readline()
            if not status_line:
                return responses
            headers = {}
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = reader.read(int(headers.get("content-length", 0)))
            responses.append((int(status_line.split()[1]), headers, body))
            if headers.get("connection") == "close":
                return responses
    finally:
        sock.close()


def post(srv, path, body=b"", headers=None):
    base = {"Content-Length": str(len(body))}
    base.update(headers or {})
    return raw_request(srv, "POST", path, headers=base, body=body)


class TestBodyValidation:
    def test_missing_content_length_is_411(self, server):
        status, _, payload = raw_request(server, "POST", "/plans")
        assert status == 411
        assert payload["code"] == "length_required"
        assert isinstance(payload["error"], str)

    def test_garbage_content_length_is_400(self, server):
        status, _, payload = raw_request(
            server, "POST", "/plans", headers={"Content-Length": "banana"}
        )
        assert status == 400
        assert payload["code"] == "bad_content_length"

    def test_negative_content_length_is_400(self, server):
        status, _, payload = raw_request(
            server, "POST", "/plans", headers={"Content-Length": "-5"}
        )
        assert status == 400
        assert payload["code"] == "bad_content_length"

    @pytest.mark.parametrize("route", ["/plans", "/plans/stream"])
    @pytest.mark.parametrize("length", ["+10", "1_0"])
    def test_non_digit_content_length_is_400(self, server, route, length):
        """``int()`` reads both spellings as ten; RFC 9110 allows only
        ASCII digits."""
        [(status, _, body)] = raw_exchange(
            server,
            f"POST {route} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1") + b'"12345678"',
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_content_length"

    def test_oversized_body_is_413(self, server):
        server.state.max_body_bytes = 64
        body = b"x" * 1000
        status, _, payload = post(server, "/plans", body)
        assert status == 413
        assert payload["code"] == "body_too_large"

    def test_get_body_over_cap_is_413(self, server):
        """A GET may not declare an unbounded body: the cap applies to
        every method, before a byte of the body is read."""
        server.state.max_body_bytes = 1024
        responses = raw_exchange(
            server,
            b"GET /health HTTP/1.1\r\nContent-Length: 209715200\r\n\r\n",
        )
        [(status, headers, body)] = responses
        assert status == 413
        assert json.loads(body)["code"] == "body_too_large"
        assert headers["connection"] == "close"

    def test_get_malformed_content_length_is_400(self, server):
        """A non-decimal length must not leave the body on the wire to
        be parsed as a second request."""
        smuggled = b"GET /nope HTTP/1.1\r\n\r\n"
        responses = raw_exchange(
            server,
            b"GET /health HTTP/1.1\r\nContent-Length: 0x%x\r\n\r\n"
            % len(smuggled) + smuggled,
        )
        [(status, _, body)] = responses
        assert status == 400
        assert json.loads(body)["code"] == "bad_content_length"

    def test_small_get_body_keeps_connection_framed(self, server):
        responses = raw_exchange(
            server,
            b"GET /health HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
            b"GET /plans HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [status for status, _, _ in responses] == [200, 200]
        assert json.loads(responses[0][2])["status"] == "ok"
        assert json.loads(responses[1][2]) == {"plans": []}


class TestOverlongLines:
    """Lines past the StreamReader's 64 KiB limit get a 400, not a
    dropped connection (and no unhandled-exception log)."""

    LONG = b"a" * (70 * 1024)

    def _assert_rejected(self, server, caplog, payload, code):
        [(status, _, body)] = raw_exchange(server, payload)
        assert status == 400
        assert json.loads(body)["code"] == code
        status, _, health = raw_request(server, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
        assert not [
            r
            for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]

    def test_request_line(self, server, caplog):
        self._assert_rejected(
            server,
            caplog,
            b"GET /" + self.LONG + b" HTTP/1.1\r\n\r\n",
            "bad_request",
        )

    def test_header_line(self, server, caplog):
        self._assert_rejected(
            server,
            caplog,
            b"GET /health HTTP/1.1\r\nX-Long: " + self.LONG + b"\r\n\r\n",
            "bad_request",
        )

    def test_chunk_size_line(self, server, caplog):
        self._assert_rejected(
            server,
            caplog,
            b"POST /plans/stream HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"1;ext=" + self.LONG + b"\r\n",
            "bad_chunked_encoding",
        )


class TestErrorTaxonomy:
    def test_unknown_route_is_404_with_code(self, server):
        status, _, payload = raw_request(server, "GET", "/nope")
        assert status == 404
        assert payload["code"] == "not_found"

    def test_parse_error_is_400(self, server):
        status, _, payload = post(server, "/plans", b"not an explain file")
        assert status == 400
        assert payload["code"] == "parse_error"

    def test_unexpected_exception_is_structured_500(self, server, capfd):
        """Satellite: the old handler let non-parse exceptions kill the
        connection; now they come back as a 500 with an error id."""
        explain = write_plan(
            generate_workload(1, seed=1, size_sampler=lambda rng: 6)[0]
        )
        with chaos.injected(
            "transform.transform_plan", exc=RuntimeError("internal boom")
        ):
            status, _, payload = post(
                server, "/plans", explain.encode("utf-8")
            )
        assert status == 500
        assert payload["code"] == "internal"
        assert payload["errorId"]
        assert payload["errorId"] in payload["error"]
        captured = capfd.readouterr()
        assert payload["errorId"] in captured.err
        assert "internal boom" in captured.err

    @pytest.mark.parametrize(
        "query, headers",
        [
            pytest.param("?timeout_ms=soon", None, id="timeout_ms=soon"),
            # A NaN deadline never expires; inf has no integer cap.
            pytest.param("?timeout_ms=nan", None, id="timeout_ms=nan"),
            pytest.param("?max_rows=inf", None, id="max_rows=inf"),
            pytest.param("?max_bindings=1e400", None, id="max_bindings=1e400"),
            pytest.param("?max_rows=nan", None, id="max_rows=nan"),
            pytest.param("", {"X-Timeout-Ms": "nan"}, id="X-Timeout-Ms=nan"),
        ],
    )
    def test_bad_timeout_parameter_is_400(self, server, query, headers):
        status, _, payload = post(
            server, "/search/sparql" + query, TRIVIAL_SPARQL.encode(), headers
        )
        assert status == 400
        assert payload["code"] == "bad_parameter"

    def test_strict_mode_maps_timeout_to_408(self, server):
        load_small_workload(server)
        for plan in generate_workload(
            2, seed=23, size_sampler=lambda rng: 200
        ):
            plan.plan_id = f"big-{plan.plan_id}"
            server.state.tool.add_plan(plan)
        status, _, payload = post(
            server,
            "/search/sparql?timeout_ms=100&strict=1",
            PATHOLOGICAL_SPARQL.encode("utf-8"),
        )
        assert status == 408
        assert payload["code"] == "deadline_exceeded"


class TestLiveness:
    def test_health_responsive_while_kb_run_in_flight(self, server):
        """Regression: reads used to queue behind evaluation under one
        big lock, so /health stalled for the whole KB run."""
        load_small_workload(server)
        chaos.inject("kb.entry", delay=1.5, times=1)
        done = {}

        def slow_run():
            done["result"] = post(server, "/kb/run", b"")

        thread = threading.Thread(target=slow_run)
        thread.start()
        time.sleep(0.2)  # let the KB run reach the stalled entry
        probes = []
        for _ in range(5):
            start = time.monotonic()
            status, _, payload = raw_request(server, "GET", "/health")
            probes.append(time.monotonic() - start)
            assert status == 200
            assert payload["status"] == "ok"
        thread.join(timeout=10)
        assert done["result"][0] == 200
        # were /health serialized behind the run, every probe would take
        # ~1.5s; non-blocking reads answer in milliseconds
        assert min(probes) < 0.1
        assert max(probes) < 1.0

    def test_stats_and_plans_responsive_while_search_in_flight(self, server):
        load_small_workload(server)
        chaos.inject("matcher.search_plan", delay=1.0, times=1)

        thread = threading.Thread(
            target=post, args=(server, "/search/sparql", TRIVIAL_SPARQL.encode())
        )
        thread.start()
        time.sleep(0.2)
        start = time.monotonic()
        status, _, _ = raw_request(server, "GET", "/stats")
        assert status == 200
        status, _, _ = raw_request(server, "GET", "/plans")
        assert status == 200
        assert time.monotonic() - start < 0.5
        thread.join(timeout=10)


class TestShedding:
    def test_excess_load_is_shed_with_503(self, server):
        load_small_workload(server)
        server.state.max_inflight = 1
        chaos.inject("kb.entry", delay=1.0, times=1)
        results = {}

        def first():
            results["first"] = post(server, "/kb/run", b"")

        thread = threading.Thread(target=first)
        thread.start()
        time.sleep(0.25)  # first request holds the only slot
        status, headers, payload = post(server, "/kb/run", b"")
        assert status == 503
        assert payload["code"] == "shed"
        assert int(headers.get("Retry-After", "0")) >= 1
        thread.join(timeout=10)
        assert results["first"][0] == 200  # the in-flight run finished

    def test_concurrent_sheds_under_burst(self, server):
        """Several simultaneous heavy requests: slot holders succeed,
        the rest get 503 — never a hang or a dropped connection."""
        load_small_workload(server)
        server.state.max_inflight = 2
        chaos.inject("kb.entry", delay=0.5, times=2)
        statuses = []
        lock = threading.Lock()

        def run():
            status, _, _ = post(server, "/kb/run", b"")
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=run) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert len(statuses) == 6
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) >= 2


class TestGracefulShutdown:
    def test_stop_drains_inflight_requests(self):
        srv = AsyncOptImatchServer(port=0, workers=1)
        srv.start()
        load_small_workload(srv)
        chaos.inject("kb.entry", delay=0.6, times=1)
        results = {}

        def slow_run():
            results["slow"] = post(srv, "/kb/run", b"")

        thread = threading.Thread(target=slow_run)
        thread.start()
        deadline = time.monotonic() + 5.0
        while srv.state.inflight_heavy != 1:  # the run holds its slot
            assert time.monotonic() < deadline, "/kb/run never started"
            time.sleep(0.01)
        srv.stop(drain_seconds=5.0)  # must wait for the in-flight run
        thread.join(timeout=10)
        assert results["slow"][0] == 200

    def test_stop_waits_for_lingering_close(self, caplog):
        """A connection still draining a rejected upload when stop()
        lands is closed, not cancelled mid-close."""
        srv = AsyncOptImatchServer(port=0, max_body_bytes=64).start()
        sock = socket.create_connection(srv.address, timeout=10)
        try:
            sock.sendall(
                b"POST /plans HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
            )
            reader = sock.makefile("rb")
            assert b" 413 " in reader.readline()
            # The upload is unfinished, so the server is now draining.
            srv.stop(drain_seconds=1.0)
            reader.close()
        finally:
            sock.close()
        assert not [
            r
            for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]
