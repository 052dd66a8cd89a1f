"""Golden-file tests for the Prometheus and Chrome-trace exporters.

Run ``pytest --update-goldens`` to (re)write the files under
``tests/obs/goldens/`` after an intentional format change; a bare run
compares byte-for-byte (static fixtures) or values-normalized (live
scrapes, where timings vary run to run but the series catalog must not).
"""

import json
import os
import re
import time
import urllib.request

import pytest

from repro.core.engine import MatchingEngine
from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_sparql, make_pattern
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE, render_text
from repro.obs.tracing import Tracer

from tests.conftest import build_figure1_plan

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
)


def check_golden(name: str, text: str, update: bool) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if update:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    assert os.path.exists(path), (
        f"golden file {name} is missing; run pytest --update-goldens"
    )
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert text == expected, (
        f"{name} drifted from its golden; regenerate with --update-goldens "
        "if the change is intentional"
    )


def normalize_prometheus_values(text: str) -> str:
    """Keep series names, labels, HELP/TYPE; blank out sample values."""
    lines = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            lines.append(line)
            continue
        series, _, value = line.rpartition(" ")
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        lines.append(series + " V")
    return "\n".join(lines) + "\n"


class TestPrometheusStatic:
    """A hand-built registry renders to a byte-exact golden."""

    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        searches = registry.counter(
            "demo_searches_total", "Total demo searches."
        )
        searches.inc()
        searches.inc(2)
        outcomes = registry.counter(
            "demo_plans_total", "Plans by outcome.", ("outcome",)
        )
        outcomes.labels("evaluated").inc(5)
        outcomes.labels("cached").inc(7)
        inflight = registry.gauge("demo_inflight", "In-flight requests.")
        inflight.set(3)
        inflight.dec()
        seconds = registry.histogram(
            "demo_seconds",
            "Demo latency.",
            ("route",),
            buckets=(0.001, 0.01, 0.1),
        )
        seconds.labels("/search").observe(0.005)
        seconds.labels("/search").observe(0.05)
        seconds.labels("/kb/run").observe(0.0001)
        seconds.labels("/kb/run").observe(25.0)  # lands in +Inf only
        return registry

    def test_static_render_matches_golden(self, update_goldens):
        check_golden(
            "prometheus_static.txt",
            render_text(self._registry()),
            update_goldens,
        )

    def test_every_sample_line_is_valid_exposition(self):
        text = render_text(self._registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), f"invalid sample: {line!r}"

    def test_histogram_buckets_cumulative_and_coherent(self):
        text = render_text(self._registry())
        buckets = [
            float(line.rpartition(" ")[2])
            for line in text.splitlines()
            if line.startswith('demo_seconds_bucket{route="/search"')
        ]
        assert buckets == sorted(buckets), "bucket counts must be cumulative"
        count = [
            line
            for line in text.splitlines()
            if line.startswith('demo_seconds_count{route="/search"}')
        ]
        assert count and float(count[0].rpartition(" ")[2]) == buckets[-1]


class TestLiveServerScrape:
    """GET /metrics over a real server: the series catalog is golden."""

    @pytest.fixture
    def server(self):
        from repro.server import AsyncOptImatchServer

        srv = AsyncOptImatchServer(port=0, workers=1).start()
        for index in range(2):
            srv.state.tool.add_plan(build_figure1_plan(f"fig1-{index}"))
        yield srv
        srv.stop(drain_seconds=2.0)

    def _wait_for_requests(self, server, expected, timeout=5.0):
        """Block until *expected* request observations have committed.

        The handler observes a request in a ``finally`` after the
        response bytes go out, so a fast client can scrape before the
        last observation lands; poll the registry in-process instead of
        scraping (which would add a ``/metrics`` series of its own).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for snap in server.state.registry.collect():
                if snap.name != "optimatch_http_requests_total":
                    continue
                if sum(s.value for s in snap.samples) >= expected:
                    return
            time.sleep(0.01)
        raise AssertionError(
            f"{expected} request observations never committed"
        )

    def _drive_and_scrape(self, server) -> str:
        url = server.url
        urllib.request.urlopen(url + "/health").read()
        body = builtin_sparql("A").encode("utf-8")
        request = urllib.request.Request(
            url + "/search/sparql", data=body, method="POST"
        )
        urllib.request.urlopen(request).read()
        request = urllib.request.Request(
            url + "/kb/run", data=b"", method="POST"
        )
        urllib.request.urlopen(request).read()
        try:
            urllib.request.urlopen(url + "/no-such-route")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        self._wait_for_requests(server, expected=4)
        response = urllib.request.urlopen(url + "/metrics")
        assert response.headers["Content-Type"] == CONTENT_TYPE
        return response.read().decode("utf-8")

    def test_scrape_catalog_matches_golden(self, server, update_goldens):
        text = self._drive_and_scrape(server)
        check_golden(
            "prometheus_server_scrape.txt",
            normalize_prometheus_values(text),
            update_goldens,
        )

    def test_scrape_covers_required_series(self, server):
        text = self._drive_and_scrape(server)
        for needle in (
            'optimatch_http_requests_total{route="/search/sparql",'
            'method="POST",status="200"}',
            'optimatch_http_request_seconds_bucket{route="/kb/run",',
            "optimatch_http_shed_total",
            "optimatch_http_timeouts_total",
            "optimatch_engine_cache_lookups_total",
            'optimatch_engine_stage_seconds_bucket{stage="evaluate",',
            "optimatch_kb_runs_total 1",
        ):
            assert needle in text, f"scrape is missing {needle!r}"


def _traced_engine_run() -> Tracer:
    tracer = Tracer(enabled=True)
    engine = MatchingEngine(workers=1, cache=False, tracer=tracer)
    workload = [
        transform_plan(build_figure1_plan(f"fig1-{index}"))
        for index in range(3)
    ]
    try:
        engine.search(make_pattern("A"), workload)
    finally:
        engine.close()
    return tracer


def _normalize_chrome(trace: dict) -> str:
    normalized = {
        "displayTimeUnit": trace["displayTimeUnit"],
        "traceEvents": [
            {**event, "ts": 0, "dur": 0, "tid": 0}
            for event in trace["traceEvents"]
        ],
    }
    return json.dumps(normalized, indent=2, sort_keys=True) + "\n"


class TestChromeTrace:
    def test_trace_topology_matches_golden(self, update_goldens):
        trace = _traced_engine_run().to_chrome_trace()
        check_golden(
            "chrome_trace_engine.json", _normalize_chrome(trace), update_goldens
        )

    def test_trace_event_schema(self):
        trace = _traced_engine_run().to_chrome_trace()
        events = trace["traceEvents"]
        assert events, "traced run produced no events"
        for event in events:
            assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"]["spanId"], int)
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        assert min(timestamps) == 0, "timestamps must be rebased to zero"

    def test_json_export_schema(self):
        spans = _traced_engine_run().to_json_objects()
        names = {span["name"] for span in spans}
        assert {"search", "compile", "plan", "bgp-join", "tag-rebind"} <= names
        by_id = {span["spanId"]: span for span in spans}
        for span in spans:
            assert span["durationSeconds"] >= 0
            if span["parentId"] is not None:
                parent = by_id[span["parentId"]]
                assert parent["traceId"] == span["traceId"]
