"""HTTP durability surface: recovering/read_only taxonomy, acks, batch.

Three degradation stories, each pinned end to end over real sockets:

* while background journal recovery runs, mutations AND searches get
  ``503 recovering`` with a Retry-After header, /health stays live and
  reports ``recovering``, and everything heals once the replay ends;
* a failed recovery (or a journal write error) latches the server into
  ``read_only`` — ingest answers ``503 read_only``, searches keep
  serving from the recovered prefix;
* durability acks: ``?ack=sync`` forces an fsync before the 201, batch
  ingest is one atomic journal record, ``?replace=1`` upserts, KB
  entries journal before they mutate, and a stop/start cycle recovers
  the whole workload over HTTP.
"""

import http.client
import json
import shutil
import threading
import time

import pytest

from repro.qep.writer import write_plan
from repro.server import AsyncOptImatchServer
from repro.store.wal import scan_wal
from repro.testing import chaos
from repro.workload import generate_workload

from tests.robustness.conftest import TRIVIAL_SPARQL


def request(srv, method, path, body=None, content_type="text/plain"):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        data = body if body is not None else b""
        if isinstance(data, str):
            data = data.encode("utf-8")
        conn.request(method, path, body=data, headers={
            "Content-Type": content_type,
            "Content-Length": str(len(data)),
        })
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read() or b"{}"),
        )
    finally:
        conn.close()


def plan_texts(count=3, seed=11):
    return [
        write_plan(plan)
        for plan in generate_workload(
            count, seed=seed, size_sampler=lambda rng: 8
        )
    ]


def wait_for_status(srv, expected, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, payload = request(srv, "GET", "/health")
        assert status == 200
        if payload["status"] == expected:
            return payload
        time.sleep(0.01)
    pytest.fail(f"server never reached status {expected!r}")


@pytest.fixture()
def durable_server(tmp_path):
    """Factory: start a durable server on a shared tmp data dir."""
    started = []

    def factory(**kwargs):
        srv = AsyncOptImatchServer(
            port=0,
            workers=1,
            data_dir=str(tmp_path / "data"),
            fsync_mode=kwargs.pop("fsync_mode", "async"),
            **kwargs,
        )
        srv.start()
        started.append(srv)
        return srv

    yield factory
    for srv in started:
        try:
            srv.stop(drain_seconds=2.0)
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass


class TestRecoveringWindow:
    def test_503_recovering_until_replay_finishes(self, tmp_path):
        srv = AsyncOptImatchServer(
            port=0, workers=1, data_dir=str(tmp_path / "data"),
            fsync_mode="async",
        )
        gate = threading.Event()
        original = srv.state.tool.recover

        def gated_recover():
            gate.wait(30)
            return original()

        srv.state.tool.recover = gated_recover
        srv.start()
        try:
            _, _, health = request(srv, "GET", "/health")
            assert health["status"] == "recovering"
            assert health["durability"]["state"] == "recovering"

            status, headers, payload = request(
                srv, "POST", "/plans", plan_texts(1)[0]
            )
            assert status == 503
            assert payload["code"] == "recovering"
            assert int(headers["Retry-After"]) >= 1

            # Searches would answer over a half-rebuilt workload: they
            # are gated too (unlike read_only, where they keep working).
            status, headers, payload = request(
                srv, "POST", "/search/sparql", TRIVIAL_SPARQL
            )
            assert status == 503
            assert payload["code"] == "recovering"
            assert "Retry-After" in headers

            gate.set()
            wait_for_status(srv, "ok")
            status, _, payload = request(
                srv, "POST", "/plans", plan_texts(1)[0]
            )
            assert status == 201
            assert payload["durability"]["mode"] == "async"
        finally:
            srv.stop(drain_seconds=2.0)

    def test_failed_recovery_latches_read_only(self, tmp_path):
        srv = AsyncOptImatchServer(
            port=0, workers=1, data_dir=str(tmp_path / "data"),
            fsync_mode="async",
        )

        def broken_recover():
            raise RuntimeError("journal device on fire")

        srv.state.tool.recover = broken_recover
        srv.start()
        try:
            health = wait_for_status(srv, "read_only")
            assert health["status"] == "read_only"

            status, headers, payload = request(
                srv, "POST", "/plans", plan_texts(1)[0]
            )
            assert status == 503
            assert payload["code"] == "read_only"
            assert "Retry-After" in headers

            # Reads survive the degradation.
            status, _, _ = request(srv, "POST", "/search/sparql",
                                   TRIVIAL_SPARQL)
            assert status == 200
        finally:
            srv.stop(drain_seconds=2.0)


class TestJournalFailureDegradation:
    def test_wal_error_degrades_ingest_not_search(self, durable_server):
        srv = durable_server()
        wait_for_status(srv, "ok")
        texts = plan_texts(2)
        status, _, _ = request(srv, "POST", "/plans", texts[0])
        assert status == 201

        with chaos.injected("wal.append", exc=OSError("disk detached")):
            status, _, payload = request(srv, "POST", "/plans", texts[1])
        assert status == 503
        assert payload["code"] == "read_only"

        # The store latched read_only: still degraded with chaos gone.
        status, _, payload = request(srv, "POST", "/plans", texts[1])
        assert status == 503 and payload["code"] == "read_only"
        assert wait_for_status(srv, "read_only")["plans"] == 1

        # Searches over the surviving prefix keep answering.
        status, _, payload = request(
            srv, "POST", "/search/sparql", TRIVIAL_SPARQL
        )
        assert status == 200
        assert len(payload["matches"]) == 1


class TestDurabilityAcks:
    def test_ack_sync_reports_synced(self, durable_server):
        srv = durable_server(fsync_mode="batch")
        wait_for_status(srv, "ok")
        texts = plan_texts(2)
        status, _, payload = request(
            srv, "POST", "/plans?ack=sync", texts[0]
        )
        assert status == 201
        assert payload["durability"] == {"mode": "batch", "synced": True}

        status, _, payload = request(srv, "POST", "/plans", texts[1])
        assert status == 201
        assert payload["durability"] == {"mode": "batch", "synced": False}

    def test_batch_ingest_and_replace(self, durable_server):
        srv = durable_server()
        wait_for_status(srv, "ok")
        texts = plan_texts(3)
        status, _, payload = request(
            srv, "POST", "/plans?ack=sync",
            json.dumps({"plans": texts}),
            content_type="application/json",
        )
        assert status == 201
        assert payload["count"] == 3
        assert len(payload["planIds"]) == 3
        assert payload["durability"]["synced"] is True

        # Re-POST of an existing plan id without ?replace=1 conflicts…
        status, _, payload = request(srv, "POST", "/plans", texts[0])
        assert status == 400
        # …and upserts with it.
        status, _, payload = request(
            srv, "POST", "/plans?replace=1", texts[0]
        )
        assert status == 201
        _, _, listing = request(srv, "GET", "/plans")
        assert len(listing["plans"]) == 3
        assert payload["planId"] in listing["plans"]

    def test_replace_stream_batch_is_one_journal_record(
        self, durable_server, tmp_path
    ):
        srv = durable_server()
        wait_for_status(srv, "ok")
        texts = plan_texts(4)
        status, _, payload = request(
            srv, "POST", "/plans", json.dumps({"plans": texts}),
            content_type="application/json",
        )
        assert status == 201
        status, _, summary = request(
            srv, "POST", "/plans/stream?replace=1&batch=4",
            "".join(json.dumps(text) + "\n" for text in texts),
            content_type="application/x-ndjson",
        )
        assert status == 201 and summary["count"] == 4
        records = scan_wal(str(tmp_path / "data" / "wal-0.log")).records
        assert [record["op"] for record in records] == ["add_batch"] * 2
        assert [(plan_id, rev) for plan_id, rev, _ in records[1]["plans"]] \
            == [(plan_id, 2) for plan_id in payload["planIds"]]

    def test_malformed_batch_body_is_400(self, durable_server):
        srv = durable_server()
        wait_for_status(srv, "ok")
        status, _, payload = request(
            srv, "POST", "/plans", json.dumps({"plans": "not-a-list"}),
            content_type="application/json",
        )
        assert status == 400

    def test_restart_recovers_workload_and_kb_over_http(
        self, durable_server
    ):
        from repro.kb import Recommendation
        from repro.kb.builtin import make_pattern
        from repro.kb.knowledge_base import KBEntry

        srv = durable_server()
        wait_for_status(srv, "ok")
        texts = plan_texts(3)
        request(
            srv, "POST", "/plans?ack=sync",
            json.dumps({"plans": texts}),
            content_type="application/json",
        )
        entry = KBEntry(
            name="journaled-entry",
            pattern=make_pattern("A"),
            recommendations=[Recommendation(template="look at @SCAN")],
        )
        status, _, _ = request(
            srv, "POST", "/kb/entries?ack=sync",
            json.dumps(entry.to_json_object()),
            content_type="application/json",
        )
        assert status == 201
        _, _, before = request(srv, "GET", "/plans")
        srv.stop(drain_seconds=2.0)  # graceful: writes final checkpoint

        fresh = durable_server()
        health = wait_for_status(fresh, "ok")
        assert health["plans"] == 3
        _, _, after = request(fresh, "GET", "/plans")
        assert sorted(after["plans"]) == sorted(before["plans"])
        _, _, entries = request(fresh, "GET", "/kb/entries")
        assert "journaled-entry" in entries["entries"]
        assert health["durability"]["recovery"]["replayedRecords"] == 0


class TestJournalSource:
    """Every text ingest route journals the client's explain text byte
    for byte, and recovery rebuilds identical graphs from it."""

    @staticmethod
    def journaled_sources(data_dir):
        sources = []
        logs = sorted(data_dir.glob("wal-*.log"),
                      key=lambda path: int(path.stem.split("-")[1]))
        for path in logs:
            for record in scan_wal(str(path)).records:
                if record["op"] == "add_batch":
                    sources.extend(source for _, _, source in record["plans"])
                elif record["op"] in ("add", "replace"):
                    sources.append(record["source"])
        return sources

    @staticmethod
    def graphs(tool):
        return {
            t.plan_id: (list(t.graph.triples()), t.graph.version)
            for t in tool.workload
        }

    def test_every_route_journals_client_text(self, durable_server, tmp_path):
        from repro.core.optimatch import OptImatch
        from repro.qep.writer import render_tree
        from tests.conftest import build_figure1_plan

        srv = durable_server()
        wait_for_status(srv, "ok")
        # Spellings the writer would not reproduce: CRLF line ends, a
        # trailing blank line, and a bare Figure-1 tree snippet.
        texts = [t.replace("\n", "\r\n") for t in plan_texts(4, seed=13)]
        snippet = render_tree(build_figure1_plan())
        replaced = [texts[0] + "\r\n", texts[3] + "\n", snippet + "\n"]

        def stream(records, query=""):
            body = "".join(json.dumps(r) + "\n" for r in records)
            status, _, payload = request(
                srv, "POST", "/plans/stream" + query, body,
                content_type="application/x-ndjson",
            )
            assert status == 201, payload

        status, _, _ = request(srv, "POST", "/plans", texts[0])
        assert status == 201
        status, _, _ = request(
            srv, "POST", "/plans", json.dumps({"plans": texts[1:3]}),
            content_type="application/json",
        )
        assert status == 201
        stream([texts[3], {"plan": snippet, "id": "fig1-snippet"}])
        status, _, _ = request(srv, "POST", "/plans?replace=1", replaced[0])
        assert status == 201
        stream(
            [replaced[1], {"plan": replaced[2], "id": "fig1-snippet"}],
            "?replace=1",
        )

        data_dir = tmp_path / "data"
        expected = texts + [snippet] + replaced
        assert [s.encode("utf-8") for s in self.journaled_sources(data_dir)] \
            == [t.encode("utf-8") for t in expected]

        before = self.graphs(srv.state.tool)
        assert "fig1-snippet" in before and len(before) == 5
        # Journal-only recovery (a copy taken before any checkpoint)...
        shutil.copytree(data_dir, tmp_path / "journal-only")
        with OptImatch(workers=1, data_dir=str(tmp_path / "journal-only")) as tool:
            recovery = tool.durability_status()["recovery"]
            assert recovery["checkpointSeq"] == 0
            assert recovery["replayedRecords"] > 0
            assert self.graphs(tool) == before
        # ...and a server restart through the final checkpoint.
        srv.stop(drain_seconds=2.0)
        fresh = durable_server()
        wait_for_status(fresh, "ok")
        assert self.graphs(fresh.state.tool) == before
