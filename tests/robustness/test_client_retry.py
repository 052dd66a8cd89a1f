"""Retry/backoff behavior of repro.client.OptImatchClient."""

import json
import random

import pytest

from repro.client import ClientError, OptImatchClient, ServerUnavailable
from repro.obs.metrics import MetricsRegistry


def make_client(script, retries=3):
    """A client whose transport replays *script*: each element is either
    an exception instance (raised) or a (status, headers, payload) tuple.
    Sleeps are recorded instead of slept."""
    client = OptImatchClient(
        "http://127.0.0.1:1",  # never actually dialed
        retries=retries,
        backoff_base=0.1,
        rng=random.Random(0),
        sleep=lambda s: client.slept.append(s),
        registry=MetricsRegistry(),  # isolated: tests read retry counters
    )
    client.slept = []
    client.calls = []
    steps = iter(script)

    def fake_send(method, path, body, headers):
        client.calls.append((method, path))
        step = next(steps)
        if isinstance(step, Exception):
            raise step
        status, headers_out, payload = step
        return status, headers_out, json.dumps(payload).encode("utf-8")

    client._send_once = fake_send
    return client


def test_success_first_try():
    client = make_client([(200, {}, {"status": "ok"})])
    assert client.health() == {"status": "ok"}
    assert client.slept == []


def test_retries_on_connection_error_then_succeeds():
    client = make_client(
        [ConnectionRefusedError(), ConnectionResetError(), (200, {}, {"ok": 1})]
    )
    assert client.health() == {"ok": 1}
    assert len(client.calls) == 3
    assert len(client.slept) == 2
    # exponential envelope: each delay is within [0, base * 2^attempt]
    assert 0 <= client.slept[0] <= 0.1
    assert 0 <= client.slept[1] <= 0.2


def test_retries_on_503_honoring_retry_after():
    client = make_client(
        [
            (503, {"Retry-After": "0.25"}, {"error": "shed", "code": "shed"}),
            (200, {}, {"ok": 1}),
        ]
    )
    assert client.health() == {"ok": 1}
    assert client.slept == [0.25]


def test_gives_up_after_retries_exhausted():
    client = make_client([ConnectionRefusedError()] * 4)
    with pytest.raises(ServerUnavailable) as info:
        client.health()
    assert info.value.attempts == 4
    assert isinstance(info.value.last, ConnectionRefusedError)
    assert len(client.slept) == 3  # no sleep after the final failure


def test_unavailable_after_persistent_503():
    client = make_client(
        [(503, {}, {"error": "shed", "code": "shed"})] * 4
    )
    with pytest.raises(ServerUnavailable):
        client.health()


def test_stream_unavailable_after_persistent_503():
    # A re-iterable stream shed on every attempt exhausts its retries
    # exactly like a plain request does.
    shed = json.dumps({"error": "shed", "code": "shed", "ingested": 0})
    client = make_stream_client(
        [(503, {}, shed.encode("utf-8"))] * 3, retries=2
    )
    with pytest.raises(ServerUnavailable) as info:
        client.upload_plans_stream(["T1", "T2"])
    assert info.value.attempts == 3
    assert len(client.stream_calls) == 3
    assert _outcome_counts(client) == {("POST", "unavailable"): 1}
    assert _retry_counts(client) == {"shed": 2}


def test_client_errors_are_not_retried():
    client = make_client(
        [(400, {}, {"error": "bad pattern", "code": "parse_error"})]
    )
    with pytest.raises(ClientError) as info:
        client.search({"nope": 1})
    assert info.value.status == 400
    assert info.value.code == "parse_error"
    assert len(client.calls) == 1
    assert client.slept == []


def test_timeout_param_is_forwarded():
    client = make_client([(200, {}, {"matches": [], "degraded": False})])
    client.search_sparql("SELECT * WHERE {}", timeout_ms=1500)
    method, path = client.calls[0]
    assert method == "POST"
    assert path.startswith("/search/sparql?")
    assert "timeout_ms=1500" in path


def test_strict_flag_is_forwarded():
    client = make_client([(200, {}, {})])
    client.run_kb(timeout_ms=100, strict=True)
    _, path = client.calls[0]
    assert "strict=1" in path
    assert "timeout_ms=100" in path


def test_rejects_non_http_scheme():
    with pytest.raises(ValueError):
        OptImatchClient("ftp://example.com")


# ----------------------------------------------------------------------
# Retry-After validation: the header is server input and must not be
# able to stall the client (inf), poison the sleep (nan) or exceed the
# caller's configured backoff cap.
# ----------------------------------------------------------------------
def _delay_for(retry_after):
    client = make_client([])
    return client._backoff_delay(0, retry_after)


def test_retry_after_infinite_falls_back_to_jitter():
    for header in ("inf", "Infinity", "-inf"):
        delay = _delay_for(header)
        assert 0 <= delay <= 0.1  # jittered base backoff, not the header


def test_retry_after_nan_falls_back_to_jitter():
    delay = _delay_for("nan")
    assert delay == delay  # never NaN
    assert 0 <= delay <= 0.1


def test_retry_after_huge_value_is_clamped_to_cap():
    client = make_client([])
    assert client._backoff_delay(0, "86400") == client.backoff_cap


def test_retry_after_negative_is_floored_at_zero():
    assert _delay_for("-3") == 0.0


def test_retry_after_http_date_falls_back_to_jitter():
    delay = _delay_for("Fri, 08 Aug 2026 12:00:00 GMT")
    assert 0 <= delay <= 0.1


def test_retry_after_valid_value_is_used_verbatim():
    assert _delay_for("0.25") == 0.25


def test_sleep_is_capped_even_when_server_sends_inf():
    client = make_client(
        [
            (503, {"Retry-After": "inf"}, {"error": "shed", "code": "shed"}),
            (200, {}, {"ok": 1}),
        ]
    )
    assert client.health() == {"ok": 1}
    assert len(client.slept) == 1
    assert client.slept[0] <= client.backoff_cap


# ----------------------------------------------------------------------
# Durability-aware retries: a 503 that carries code "recovering" or
# "read_only" is transient (the server is replaying its journal or
# waiting for an operator) and must be retried, with the retry series
# labeled by the actual reason instead of folding into "shed".
# ----------------------------------------------------------------------
def _retry_counts(client):
    for snapshot in client.registry.collect():
        if snapshot.name == "optimatch_client_retries_total":
            return {dict(s.labels)["reason"]: s.value for s in snapshot.samples}
    return {}


def _outcome_counts(client):
    for snapshot in client.registry.collect():
        if snapshot.name == "optimatch_client_requests_total":
            return {
                (dict(s.labels)["method"], dict(s.labels)["outcome"]): s.value
                for s in snapshot.samples
                if s.value
            }
    return {}


def test_503_recovering_and_read_only_are_retried_with_reason_labels():
    client = make_client(
        [
            (
                503,
                {"Retry-After": "0.25"},
                {"error": "journal recovery in progress", "code": "recovering"},
            ),
            (503, {}, {"error": "journal failed", "code": "read_only"}),
            (503, {}, {"error": "at capacity", "code": "shed"}),
            (200, {}, {"ok": 1}),
        ]
    )
    assert client.health() == {"ok": 1}
    assert len(client.calls) == 4
    assert client.slept[0] == 0.25  # recovering honors Retry-After
    counts = _retry_counts(client)
    assert counts.get("recovering") == 1
    assert counts.get("read_only") == 1
    assert counts.get("shed") == 1


def test_503_without_code_counts_as_shed():
    client = make_client([(503, {}, {"error": "busy"}), (200, {}, {"ok": 1})])
    assert client.health() == {"ok": 1}
    assert _retry_counts(client) == {"shed": 1}


def test_persistent_recovering_exhausts_into_unavailable():
    client = make_client(
        [(503, {}, {"error": "recovering", "code": "recovering"})] * 4
    )
    with pytest.raises(ServerUnavailable):
        client.health()
    assert _retry_counts(client) == {"recovering": 3}


def test_upload_plan_forwards_replace_and_ack():
    client = make_client([(201, {}, {"planId": "p", "durability": {}})])
    client.upload_plan("EXPLAIN TEXT", replace=True, ack="sync")
    method, path = client.calls[0]
    assert method == "POST"
    assert path.startswith("/plans?")
    assert "replace=1" in path and "ack=sync" in path


def test_upload_plans_posts_json_batch():
    client = make_client([(201, {}, {"planIds": ["a", "b"], "count": 2})])
    reply = client.upload_plans(["T1", "T2"], ack="sync")
    assert reply["count"] == 2
    method, path = client.calls[0]
    assert method == "POST"
    assert path.startswith("/plans")
    assert "ack=sync" in path


# ----------------------------------------------------------------------
# Streaming upload retry discipline: a stream is only replayed when
# doing so cannot duplicate plans — the input is re-iterable AND the
# failure provably happened before anything was committed (connect
# failure, or a 503 reporting ingested == 0).
# ----------------------------------------------------------------------
def make_stream_client(script, retries=3):
    """A client whose _stream_once replays *script*: an exception
    instance (raised) or a (status, headers, body_bytes) tuple."""
    client = OptImatchClient(
        "http://127.0.0.1:1",
        retries=retries,
        backoff_base=0.1,
        rng=random.Random(0),
        sleep=lambda s: client.slept.append(s),
        registry=MetricsRegistry(),
    )
    client.slept = []
    client.stream_calls = []
    steps = iter(script)

    def fake_stream(path, plans):
        client.stream_calls.append((path, list(plans)))
        step = next(steps)
        if isinstance(step, Exception):
            raise step
        return step

    client._stream_once = fake_stream
    return client


def _summary_body(count, batches):
    return json.dumps(
        {"count": count, "batches": batches, "durability": {}}
    ).encode("utf-8")


def test_stream_retries_connect_failure_with_sequence_input():
    from repro.client import _StreamConnectError

    client = make_stream_client(
        [
            _StreamConnectError(ConnectionRefusedError()),
            (201, {}, _summary_body(2, 1)),
        ]
    )
    reply = client.upload_plans_stream(["T1", "T2"])
    assert reply["count"] == 2
    assert len(client.stream_calls) == 2
    assert len(client.slept) == 1


def test_stream_does_not_retry_midstream_failure():
    client = make_stream_client(
        [BrokenPipeError("server died mid-body"), (201, {}, b"{}")]
    )
    with pytest.raises(OSError):
        client.upload_plans_stream(["T1", "T2"])
    assert len(client.stream_calls) == 1  # replay could duplicate plans
    assert client.slept == []


def test_stream_retries_503_with_zero_ingested():
    client = make_stream_client(
        [
            (
                503,
                {"Retry-After": "0.25"},
                json.dumps(
                    {"error": "at capacity", "code": "shed", "ingested": 0}
                ).encode("utf-8"),
            ),
            (201, {}, _summary_body(2, 1)),
        ]
    )
    reply = client.upload_plans_stream(["T1", "T2"])
    assert reply["count"] == 2
    assert client.slept == [0.25]


def test_stream_does_not_retry_503_after_partial_ingest():
    client = make_stream_client(
        [
            (
                503,
                {},
                json.dumps(
                    {"error": "read only", "code": "read_only", "ingested": 3}
                ).encode("utf-8"),
            ),
        ]
    )
    with pytest.raises(ClientError) as info:
        client.upload_plans_stream(["T1", "T2", "T3", "T4"])
    assert info.value.code == "read_only"
    assert info.value.payload["ingested"] == 3
    assert len(client.stream_calls) == 1


def test_stream_generator_input_is_never_retried():
    from repro.client import _StreamConnectError

    client = make_stream_client(
        [_StreamConnectError(ConnectionRefusedError())]
    )
    with pytest.raises(ServerUnavailable):
        client.upload_plans_stream(iter(["T1", "T2"]))  # consumed once
    assert len(client.stream_calls) == 1
    assert client.slept == []


def test_stream_parses_ack_lines_and_done_record():
    acks = (
        b'{"count":2,"planIds":["a","b"],"seq":1,"synced":true}\n'
        b'{"count":1,"planIds":["c"],"seq":2,"synced":true}\n'
        b'{"batches":2,"count":3,"done":true,"durability":{}}\n'
    )
    client = make_stream_client([(200, {}, acks)])
    seen = []
    reply = client.upload_plans_stream(
        ["T1", "T2", "T3"], ack="sync", on_ack=lambda a: seen.append(a["seq"])
    )
    assert reply["count"] == 3
    assert [a["planIds"] for a in reply["acks"]] == [["a", "b"], ["c"]]
    assert seen == [1, 2]
    path, _ = client.stream_calls[0]
    assert "ack=sync" in path


def test_stream_trailing_error_record_raises_with_ingested():
    body = (
        b'{"count":2,"planIds":["a","b"],"seq":1,"synced":false}\n'
        b'{"error":"journal failed","code":"read_only","ingested":2}\n'
    )
    client = make_stream_client([(200, {}, body)])
    with pytest.raises(ClientError) as info:
        client.upload_plans_stream(["T1", "T2", "T3"], ack="batch")
    assert info.value.code == "read_only"
    assert info.value.payload["ingested"] == 2


def test_stream_records_must_be_str_or_dict():
    client = make_stream_client([(201, {}, b"{}")])
    with pytest.raises(TypeError):
        client._stream_record(42)


def test_client_latency_uses_injected_clock():
    from repro.testing.clock import FakeClock

    clock = FakeClock()
    client = OptImatchClient(
        "http://127.0.0.1:1",
        retries=0,
        clock=clock,
        registry=MetricsRegistry(),
    )
    client._send_once = lambda *a: (
        clock.advance(2.0),
        (200, {}, b'{"status": "ok"}'),
    )[1]
    client.health()
    for snapshot in client.registry.collect():
        if snapshot.name == "optimatch_client_request_seconds":
            sums = {
                s.value
                for s in snapshot.samples
                if s.suffix.endswith("_sum")
            }
            assert sums == {2.0}  # fake time, exactly
            break
    else:  # pragma: no cover
        pytest.fail("latency histogram not exported")


# ----------------------------------------------------------------------
# Retry budget: retries (count-bounded) now also respect a wall-clock
# cap — retry_budget_s bounds the total time a request may spend
# retrying, on the injectable clock, with the final sleep clamped so
# the budget is never overshot.
# ----------------------------------------------------------------------
def make_budget_client(script, budget, retries=10):
    """Like make_client, but with a FakeClock: each transport call costs
    1 second of fake time, sleeps advance the clock by their length."""
    from repro.testing.clock import FakeClock

    clock = FakeClock()
    client = OptImatchClient(
        "http://127.0.0.1:1",
        retries=retries,
        backoff_base=0.1,
        retry_budget_s=budget,
        rng=random.Random(0),
        clock=clock,
        sleep=lambda s: (client.slept.append(s), clock.advance(s)),
        registry=MetricsRegistry(),
    )
    client.clock = clock
    client.slept = []
    client.calls = []
    steps = iter(script)

    def fake_send(method, path, body, headers):
        client.calls.append((method, path))
        clock.advance(1.0)
        step = next(steps)
        if isinstance(step, Exception):
            raise step
        status, headers_out, payload = step
        return status, headers_out, json.dumps(payload).encode("utf-8")

    client._send_once = fake_send
    return client


def test_budget_rejects_non_positive_values():
    for bad in (0, -1, -0.5):
        with pytest.raises(ValueError):
            OptImatchClient("http://127.0.0.1:1", retry_budget_s=bad)


def test_budget_allows_retries_within_the_window():
    client = make_budget_client(
        [ConnectionRefusedError(), (200, {}, {"ok": 1})], budget=10.0
    )
    assert client.health() == {"ok": 1}
    assert len(client.calls) == 2


def test_budget_exhaustion_stops_retrying_before_count_does():
    # Each 503 costs 1s of fake time; with a 2.5s budget the client
    # affords the first two attempts plus one more, never all 10.
    client = make_budget_client(
        [(503, {}, {"error": "shed", "code": "shed"})] * 11,
        budget=2.5,
    )
    started = client.clock()
    with pytest.raises(ServerUnavailable) as info:
        client.health()
    assert info.value.attempts < 10
    assert "retry budget" in str(info.value)
    # Fake time never ran past budget + the final (unslept) attempt.
    assert client.clock() - started <= 2.5 + 1.0


def test_budget_clamps_the_final_sleep_to_remaining_time():
    # Retry-After asks for 60s but only ~1s of budget remains after the
    # first 1s-long attempt: the sleep must be clamped, not taken whole.
    client = make_budget_client(
        [
            (503, {"Retry-After": "60"}, {"error": "shed", "code": "shed"}),
            (200, {}, {"ok": 1}),
        ],
        budget=2.0,
    )
    assert client.health() == {"ok": 1}
    assert len(client.slept) == 1
    assert client.slept[0] <= 1.0


def test_budget_exhausted_connection_errors_raise_unavailable():
    client = make_budget_client(
        [ConnectionRefusedError()] * 5, budget=1.5
    )
    with pytest.raises(ServerUnavailable) as info:
        client.health()
    assert isinstance(info.value.last, ConnectionRefusedError)
    assert "retry budget" in str(info.value)


def test_no_budget_keeps_count_bounded_behavior():
    client = make_budget_client(
        [ConnectionRefusedError()] * 4, budget=None, retries=3
    )
    with pytest.raises(ServerUnavailable) as info:
        client.health()
    assert info.value.attempts == 4  # the count limit, as before


def test_stream_budget_bounds_connect_retries():
    from repro.client import _StreamConnectError
    from repro.testing.clock import FakeClock

    clock = FakeClock()
    client = OptImatchClient(
        "http://127.0.0.1:1",
        retries=10,
        backoff_base=0.1,
        retry_budget_s=2.5,
        rng=random.Random(0),
        clock=clock,
        sleep=lambda s: (client.slept.append(s), clock.advance(s)),
        registry=MetricsRegistry(),
    )
    client.slept = []
    client.stream_calls = []

    def fake_stream(path, plans):
        client.stream_calls.append(path)
        clock.advance(1.0)
        raise _StreamConnectError(ConnectionRefusedError())

    client._stream_once = fake_stream
    with pytest.raises(ServerUnavailable) as info:
        client.upload_plans_stream(["T1", "T2"])
    assert "retry budget" in str(info.value)
    assert len(client.stream_calls) < 10
