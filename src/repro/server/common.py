"""Socket-free service core behind the HTTP front.

:mod:`repro.server.aserver` owns sockets and HTTP framing; everything a
request means lives here, so routes can be tested and reasoned about
without a socket:

* :class:`ServerState` — the engine/KB/governance state behind the
  handlers (thread-safe: the front runs several requests at once on
  its dispatch executor);
* :func:`dispatch` — the route table: maps one fully-read request
  (method, path, headers, body) to a :class:`Response`;
* :func:`encode_json` — the single JSON serialization used for every
  body, so equal payloads are equal bytes;
* the error taxonomy (:class:`_RequestError`) and the request-budget
  plumbing shared with :mod:`repro.core.limits`.

Streaming ingest (``POST /plans/stream``) is the one route that cannot
be expressed as a fully-read request; its incremental engine lives in
:mod:`repro.server.stream` and the front supplies only the socket IO
around it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import threading
from typing import Callable, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core import Budget, OptImatch, ProblemPattern
from repro.core.limits import default_clock
from repro.core.optimatch import DuplicatePlanError
from repro.kb import KnowledgeBase, builtin_knowledge_base
from repro.kb.knowledge_base import KBEntry
from repro.obs.metrics import MetricsRegistry
from repro.obs.process import current_rss_bytes
from repro.obs.prometheus import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.prometheus import render_text
from repro.qep.parser import QepParseError
from repro.store import DEFAULT_CHECKPOINT_EVERY, DurabilityError

#: Default cap on accepted request bodies (bytes).  The streaming-ingest
#: route applies the same cap to each NDJSON *line* (one plan per line).
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024
#: Default per-request deadline for heavy routes when the client sends
#: none (milliseconds); ``None`` would mean unbounded.
DEFAULT_TIMEOUT_MS = 30_000.0
#: Hard ceiling a client-requested deadline is clamped to.
DEFAULT_MAX_TIMEOUT_MS = 120_000.0
#: Default cap on concurrently-evaluating heavy requests.
DEFAULT_MAX_INFLIGHT = 8
#: Seconds suggested to shed clients via the Retry-After header.
RETRY_AFTER_SECONDS = 1
#: The header every retryable 503 carries.
_RETRY_AFTER = (("Retry-After", str(RETRY_AFTER_SECONDS)),)
#: Default plans per streaming-ingest micro-batch (one journal record,
#: one commit, one ack line per batch).
DEFAULT_STREAM_BATCH = 64
#: Hard ceiling on the client-requested ``?batch=`` size.
MAX_STREAM_BATCH = 1024
#: Cap on concurrently-open streaming-ingest connections; excess
#: streams are shed with 503 like any other overload.
MAX_STREAMS = 256
#: Default high-water mark on stream micro-batches committing at once
#: (across all connections).  A connection whose batch cannot be
#: admitted stops reading its socket until a slot frees — the
#: per-connection backpressure that bounds server memory.
DEFAULT_STREAM_HWM = 4

#: Routes whose names may appear as metric label values.  Anything else
#: (404 probes, scanners) is folded into ``other`` so a hostile client
#: cannot grow the label space without bound.
_KNOWN_ROUTES = frozenset(
    {
        "/health",
        "/stats",
        "/metrics",
        "/plans",
        "/plans/stream",
        "/kb/entries",
        "/kb/run",
        "/search",
        "/search/sparql",
    }
)


class _RequestError(Exception):
    """Internal: maps straight to one taxonomy response."""

    def __init__(self, status: int, code: str, message: str, headers=()):
        super().__init__(message)
        self.status = status
        self.code = code
        self.headers = tuple(headers)


class Response:
    """One fully-formed reply: status, extra headers, exact body bytes.

    ``body`` is already serialized — the front writes these bytes
    verbatim.
    """

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Tuple[Tuple[str, str], ...] = (),
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = tuple(headers)


def encode_json(payload) -> bytes:
    """The one JSON serialization used for every body."""
    return json.dumps(payload, indent=2).encode("utf-8")


def json_response(status: int, payload, headers=()) -> Response:
    return Response(status, encode_json(payload), headers=tuple(headers))


def error_response(
    status: int,
    message: str,
    code: str = "bad_request",
    headers=(),
    error_id: Optional[str] = None,
) -> Response:
    payload = {"error": message, "code": code}
    if error_id is not None:
        payload["errorId"] = error_id
    return json_response(status, payload, headers=headers)


class ServerState:
    """Shared state behind the HTTP handlers (thread-safe).

    ``lock`` guards *mutations* of the workload and knowledge base and
    brief snapshot reads.  Long evaluations run on a snapshot **outside**
    the lock (the engine is internally thread-safe), so read routes and
    health checks never queue behind a slow search.

    *clock* is the monotonic clock used for request budgets — injectable
    so time-sensitive tests run on a fake clock
    (:mod:`repro.testing.clock`) instead of sleeping.

    One *registry* (private to this server when omitted) is handed to
    the engine, knowledge base and durable store, so ``/metrics`` and
    ``/stats`` read the same series.  *workers* is the engine's
    execution setting (more than one: a process pool).
    """

    def __init__(
        self,
        knowledge_base: Optional[KnowledgeBase] = None,
        workers: Optional[int] = None,
        cache: bool = True,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        default_timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
        max_timeout_ms: float = DEFAULT_MAX_TIMEOUT_MS,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        registry: Optional[MetricsRegistry] = None,
        data_dir: Optional[str] = None,
        fsync_mode: str = "batch",
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        stream_batch: int = DEFAULT_STREAM_BATCH,
        stream_hwm: int = DEFAULT_STREAM_HWM,
        min_free_bytes: int = 0,
        max_rss_bytes: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ):
        # One registry per server, shared by its engine, knowledge base
        # and store, so a scrape of this instance sees only its own
        # traffic, and tests/goldens start from a clean slate.
        self.registry = registry or MetricsRegistry()
        # With a data_dir, recovery is deferred: the server binds and
        # answers /health immediately in a ``recovering`` state while a
        # background thread replays the journal (begin_recovery()).
        self.tool = OptImatch(
            workers=workers,
            cache=cache,
            registry=self.registry,
            data_dir=data_dir,
            fsync=fsync_mode,
            checkpoint_every=checkpoint_every,
            defer_recovery=True,
        )
        self.kb = knowledge_base or builtin_knowledge_base(registry=self.registry)
        self.lock = threading.Lock()
        self.recovering = data_dir is not None
        self.recovery_error: Optional[str] = None
        self._recovery_thread: Optional[threading.Thread] = None
        self.max_body_bytes = max_body_bytes
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.stream_batch = max(1, min(int(stream_batch), MAX_STREAM_BATCH))
        self.stream_hwm = max(1, int(stream_hwm))
        # Commit-queue high-water mark: at most `stream_hwm` stream
        # micro-batches may be committing/queued at once across all
        # connections.  A blocked acquire IS the backpressure — the
        # connection holding it stops reading its socket.
        self.stream_commit_slots = threading.BoundedSemaphore(self.stream_hwm)
        # Resource-exhaustion admission guards (0 = disabled, the
        # default, so the disabled path costs one falsy int check).
        # Both probes are seams — tests monkeypatch `_disk_usage` /
        # `_rss_probe` instead of actually filling the disk or the heap.
        self.min_free_bytes = max(0, int(min_free_bytes))
        self.max_rss_bytes = max(0, int(max_rss_bytes))
        self.data_dir = data_dir
        self._disk_usage = shutil.disk_usage
        self._rss_probe = current_rss_bytes
        self.clock = clock if clock is not None else default_clock
        self.draining = False
        # In-flight accounting: `requests` counts every active request
        # (for graceful drain); `heavy` counts only evaluation routes
        # (for load shedding); `streams` counts open streaming-ingest
        # connections, capped separately so a firehose of streams cannot
        # starve interactive searches of heavy slots.
        self._counter_lock = threading.Lock()
        self.inflight_requests = 0
        self.inflight_heavy = 0
        self.inflight_streams = 0
        self.max_inflight = max_inflight
        self._m_requests = self.registry.counter(
            "optimatch_http_requests_total",
            "HTTP requests served, by route, method and status code.",
            ("route", "method", "status"),
        )
        self._m_latency = self.registry.histogram(
            "optimatch_http_request_seconds",
            "Wall-clock HTTP request latency in seconds, by route.",
            ("route",),
        )
        self._m_shed = self.registry.counter(
            "optimatch_http_shed_total",
            "Requests shed with 503 because the server was at capacity.",
            ("route",),
        )
        self._m_timeouts = self.registry.counter(
            "optimatch_http_timeouts_total",
            "Per-plan deadline violations surfaced by heavy routes.",
            ("route",),
        )
        self._m_plan_errors = self.registry.counter(
            "optimatch_http_plan_errors_total",
            "Structured per-plan/per-entry evaluation errors, by kind.",
            ("kind",),
        )
        self._m_stream_plans = self.registry.counter(
            "optimatch_stream_plans_total",
            "Plans ingested through POST /plans/stream.",
        )
        self._m_stream_batches = self.registry.counter(
            "optimatch_stream_batches_total",
            "Streaming-ingest micro-batches committed.",
        )
        self._m_stream_connections = self.registry.counter(
            "optimatch_stream_connections_total",
            "Streaming-ingest connections, by terminal outcome.",
            ("outcome",),
        )
        self._m_stream_open = self.registry.gauge(
            "optimatch_stream_open_connections",
            "Streaming-ingest connections currently open.",
        )
        self._m_stream_backpressure = self.registry.counter(
            "optimatch_stream_backpressure_total",
            "Times a streaming connection paused reading because the "
            "commit queue was at its high-water mark.",
        )
        self._m_resource_shed = self.registry.counter(
            "optimatch_resource_shed_total",
            "Ingest requests refused at admission by a resource guard, "
            "by reason (low_disk, overloaded_memory).",
            ("reason",),
        )

    # ------------------------------------------------------------------
    # Recovery / durability
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Kick off background journal recovery (idempotent, no-op
        without durability).  Mutating and heavy routes answer ``503``
        with code ``recovering`` until the replay finishes; /health and
        other reads stay live throughout."""
        if not self.recovering or self._recovery_thread is not None:
            return
        self._recovery_thread = threading.Thread(
            target=self._run_recovery, daemon=True, name="optimatch-recovery"
        )
        self._recovery_thread.start()

    def _run_recovery(self) -> None:
        try:
            self.tool.recover()
            entries = self.tool.recovered_kb_entries
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            print(
                f"[optimatch-server] journal recovery failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            with self.lock:
                self.recovery_error = str(exc)
                self.recovering = False
            return
        with self.lock:
            for entry in entries:
                try:
                    self.kb.add(KBEntry.from_json_object(entry))
                except Exception:  # noqa: BLE001 — skip bad/dup entries
                    pass
            self.recovering = False

    def preload(self, directory: str) -> None:
        """Load every ``*.exfmt`` explain file under *directory* (``serve
        --workload``), after the journal recovery, so the files merge
        into the recovered workload.  A file whose plan id is already
        loaded is skipped; any other failure raises :class:`ValueError`
        naming the file."""
        if self.recovering:
            self.begin_recovery()
            self._recovery_thread.join()
        if self.recovery_error is not None:
            raise ValueError(f"journal recovery failed: {self.recovery_error}")
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".exfmt"):
                continue
            path = os.path.join(directory, name)
            try:
                self.tool.load_explain_file(path)
            except DuplicatePlanError:
                pass  # already loaded, e.g. recovered from the journal
            except Exception as exc:  # noqa: BLE001 — name the file
                raise ValueError(f"cannot load {path}: {exc}") from exc

    def health_status(self) -> str:
        """Precedence: draining > recovering > read_only > ok."""
        if self.draining:
            return "draining"
        if self.recovering:
            return "recovering"
        durability = self.tool.durability_status()
        if self.recovery_error is not None or durability["state"] == "read_only":
            return "read_only"
        return "ok"

    def check_not_recovering(self) -> None:
        """503 ``recovering`` while the journal replay is running (the
        workload is not fully rebuilt yet, so neither mutations nor
        searches can answer correctly)."""
        if self.recovering:
            raise _RequestError(
                503,
                "recovering",
                "journal recovery in progress, retry later",
                headers=_RETRY_AFTER,
            )

    def check_ingest_allowed(self) -> None:
        """Raise the 503 taxonomy error when mutations cannot proceed.

        Searches keep working in ``read_only`` — only ingest degrades.
        Resource guards run here too: refusing ingest while the disk is
        nearly full (before the journal hits real ``ENOSPC`` and latches
        read-only) or while RSS is over the watermark (before the OOM
        killer makes the decision for us) is a *retryable* 503, not a
        latch."""
        self.check_not_recovering()
        if self.recovery_error is not None:
            raise _RequestError(
                503,
                "read_only",
                f"journal recovery failed: {self.recovery_error}",
                headers=_RETRY_AFTER,
            )
        self.check_memory_watermark()
        self.check_disk_preflight()

    def check_memory_watermark(self) -> None:
        """503 ``overloaded_memory`` when RSS exceeds ``--max-rss-bytes``."""
        if not self.max_rss_bytes:
            return
        rss = self._rss_probe()
        if rss > self.max_rss_bytes:
            self._m_resource_shed.labels("overloaded_memory").inc()
            raise _RequestError(
                503,
                "overloaded_memory",
                f"resident set size {rss} bytes exceeds the "
                f"{self.max_rss_bytes}-byte watermark, retry later",
                headers=_RETRY_AFTER,
            )

    def check_disk_preflight(self) -> None:
        """503 ``low_disk`` when the data dir is under ``--min-free-bytes``.

        Only meaningful with durability: the guard protects the journal
        device.  A probe failure is ignored — the write path will
        surface (and classify) the real error."""
        if not self.min_free_bytes or self.data_dir is None:
            return
        try:
            free = self._disk_usage(self.data_dir).free
        except OSError:
            return
        if free < self.min_free_bytes:
            self._m_resource_shed.labels("low_disk").inc()
            raise _RequestError(
                503,
                "low_disk",
                f"{free} bytes free on the journal device is under the "
                f"{self.min_free_bytes}-byte floor, retry later",
                headers=_RETRY_AFTER,
            )

    # ------------------------------------------------------------------
    # Request metrics
    # ------------------------------------------------------------------
    def metric_route(self, route: str) -> str:
        """Bound label cardinality: unknown paths collapse to ``other``."""
        return route if route in _KNOWN_ROUTES else "other"

    def observe_request(
        self, route: str, method: str, status: int, elapsed: float
    ) -> None:
        self._m_requests.labels(route, method, str(status)).inc()
        self._m_latency.labels(route).observe(elapsed)

    def record_shed(self, route: str) -> None:
        self._m_shed.labels(route).inc()

    def record_plan_errors(self, route: str, errors) -> None:
        for error in errors:
            kind = getattr(error, "kind", None) or "error"
            self._m_plan_errors.labels(kind).inc()
            if kind == "timeout":
                self._m_timeouts.labels(route).inc()

    # ------------------------------------------------------------------
    # In-flight accounting
    # ------------------------------------------------------------------
    def request_started(self) -> None:
        with self._counter_lock:
            self.inflight_requests += 1

    def request_finished(self) -> None:
        with self._counter_lock:
            self.inflight_requests -= 1

    def acquire_heavy_slot(self) -> bool:
        """Try to reserve an evaluation slot; False = shed the request."""
        with self._counter_lock:
            if self.draining or self.inflight_heavy >= self.max_inflight:
                return False
            self.inflight_heavy += 1
            return True

    def release_heavy_slot(self) -> None:
        with self._counter_lock:
            self.inflight_heavy -= 1

    def acquire_stream_slot(self) -> bool:
        """Reserve a streaming-ingest connection slot; False = shed."""
        with self._counter_lock:
            if self.draining or self.inflight_streams >= MAX_STREAMS:
                return False
            self.inflight_streams += 1
        self._m_stream_open.inc()
        return True

    def release_stream_slot(self) -> None:
        with self._counter_lock:
            self.inflight_streams -= 1
        self._m_stream_open.dec()


def _matches_to_json(matches) -> list:
    out = []
    for plan_matches in matches:
        occurrences = []
        for occurrence in plan_matches:
            bindings = {}
            for name, node in sorted(occurrence.bindings.items()):
                if hasattr(node, "op_type"):
                    bindings[name] = {
                        "kind": "operator",
                        "type": node.op_type,
                        "number": node.number,
                        "cardinality": node.cardinality,
                        "totalCost": node.total_cost,
                    }
                else:
                    bindings[name] = {
                        "kind": "baseObject",
                        "table": node.qualified_name,
                        "cardinality": node.cardinality,
                    }
            occurrences.append(bindings)
        out.append(
            {"planId": plan_matches.plan_id, "occurrences": occurrences}
        )
    return out


def _report_to_json(report) -> dict:
    plans = []
    for plan_recs in report.plans:
        results = [
            {
                "entry": result.entry_name,
                "confidence": result.confidence,
                "occurrences": result.occurrence_count,
                "recommendations": result.texts(),
            }
            for result in plan_recs.results
        ]
        plans.append({"planId": plan_recs.plan_id, "results": results})
    payload = {"plans": plans, "hits": report.entry_hit_counts()}
    if report.errors:
        payload["degraded"] = True
        payload["errors"] = [e.to_json_object() for e in report.errors]
    else:
        payload["degraded"] = False
    return payload


# ----------------------------------------------------------------------
# Request-parsing helpers
# ----------------------------------------------------------------------
def split_path(path: str) -> Tuple[str, dict]:
    parts = urlsplit(path)
    return parts.path, parse_qs(parts.query)


def content_length(headers: Mapping[str, str]) -> int:
    """The request's Content-Length: ASCII digits only (RFC 9110
    ``1*DIGIT``).

    A missing header is ``411 Length Required``; anything else that is
    not a plain decimal — a sign, ``_`` separators, a hex prefix — is
    ``400`` ``bad_content_length``, never an uncaught exception that
    silently drops the connection.  *headers* must use lower-case keys.
    """
    raw = headers.get("content-length")
    if raw is None:
        raise _RequestError(
            411, "length_required", "Content-Length header is required"
        )
    try:
        if raw.isascii() and raw.isdigit():
            return int(raw)
    except ValueError:  # more digits than int() converts
        pass
    raise _RequestError(
        400, "bad_content_length", f"invalid Content-Length header: {raw!r}"
    )


def validate_content_length(
    state: ServerState, headers: Mapping[str, str]
) -> int:
    """:func:`content_length`, capped: a body over the configured limit
    is ``413``."""
    length = content_length(headers)
    if length > state.max_body_bytes:
        raise _RequestError(
            413,
            "body_too_large",
            f"request body of {length} bytes exceeds the "
            f"{state.max_body_bytes}-byte limit",
        )
    return length


def request_budget(
    state: ServerState, query: dict, headers: Mapping[str, str]
) -> Optional[Budget]:
    """Build the request budget from query params / headers.

    ``timeout_ms`` (or ``X-Timeout-Ms``) is clamped to the server max;
    without either, the server default applies.  ``max_rows`` and
    ``max_bindings`` add result/work caps.  Each must be a positive,
    finite number (a NaN deadline never expires).  The budget runs on
    the state's injectable clock.  *headers* must use lower-case keys.
    """

    def number(name: str, header: Optional[str] = None):
        raw = None
        if name in query:
            raw = query[name][-1]
        elif header is not None:
            raw = headers.get(header)
        if raw is None:
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not 0 < value < math.inf:  # NaN fails both comparisons
            raise _RequestError(
                400, "bad_parameter", f"invalid {name} value: {raw!r}"
            )
        return value

    timeout_ms = number("timeout_ms", "x-timeout-ms")
    if timeout_ms is None:
        timeout_ms = state.default_timeout_ms
    if timeout_ms is not None:
        timeout_ms = min(timeout_ms, state.max_timeout_ms)
    max_rows = number("max_rows")
    max_bindings = number("max_bindings")
    if timeout_ms is None and max_rows is None and max_bindings is None:
        return None
    return Budget(
        timeout_ms=timeout_ms,
        max_rows=int(max_rows) if max_rows is not None else None,
        max_bindings=int(max_bindings) if max_bindings is not None else None,
        clock=state.clock,
    )


def flag(query: dict, name: str) -> bool:
    value = query.get(name, ["0"])[-1].lower()
    return value not in ("", "0", "false", "no")


def shed_response(state: ServerState, route: str) -> Response:
    state.record_shed(state.metric_route(route))
    return error_response(
        503,
        "server is at capacity, retry later",
        code="shed",
        headers=_RETRY_AFTER,
    )


def durability_ack(state: ServerState, synced: bool) -> dict:
    status = state.tool.durability_status()
    if status["state"] == "disabled":
        return {"mode": "disabled", "synced": False}
    return {"mode": status["fsync"], "synced": synced}


def handle_ack(state: ServerState, query: dict) -> bool:
    """Honor ``?ack=sync`` (fsync before replying) / ``?ack=none``.

    Default is the store's configured fsync policy; returns whether
    this request explicitly synced."""
    mode = query.get("ack", [""])[-1].lower()
    if mode == "sync":
        state.tool.sync_journal()
        return True
    return False


def _degraded_response(payload: dict, errors, strict: bool) -> Response:
    """Build a search/KB-run reply, honoring ``?strict=1``.

    Default: ``200`` with ``degraded`` + per-plan error records
    (partial results are usable).  Strict: the first deadline error
    becomes ``408``, any other budget violation ``422``.
    """
    if errors and strict:
        kinds = {e.kind for e in errors}
        if "timeout" in kinds:
            return error_response(
                408,
                "request deadline exceeded during evaluation",
                code="deadline_exceeded",
            )
        return error_response(
            422,
            "evaluation budget exhausted",
            code="budget_exceeded",
        )
    return json_response(200, payload)


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
def dispatch(
    state: ServerState,
    method: str,
    path: str,
    headers: Mapping[str, str],
    body: bytes,
) -> Response:
    """Map one fully-read request to a :class:`Response`.

    *headers* must be a mapping with lower-case keys.  Taxonomy errors
    (:class:`_RequestError`, :class:`DurabilityError`, parse errors on
    POST) are converted to structured replies here; anything unexpected
    propagates for the front's catch-all 500 handler.  ``POST
    /plans/stream`` is not handled here — it needs incremental IO (see
    :mod:`repro.server.stream`).
    """
    route, query = split_path(path)
    try:
        if method == "GET":
            return _dispatch_get(state, route)
        if method == "DELETE":
            try:
                return _dispatch_delete(state, route)
            except DurabilityError as exc:
                return read_only_response(state, exc)
        if method == "POST":
            try:
                return _dispatch_post(state, route, query, headers, body)
            except DurabilityError as exc:
                return read_only_response(state, exc)
            except (QepParseError, ValueError, KeyError) as exc:
                return error_response(400, str(exc), code="parse_error")
        return error_response(
            405, f"method {method} not allowed", code="method_not_allowed"
        )
    except _RequestError as exc:
        return error_response(
            exc.status, str(exc), code=exc.code, headers=exc.headers
        )


def read_only_response(state: ServerState, exc: DurabilityError) -> Response:
    """The journal failed (or is still recovering): ingest degrades to
    503 + Retry-After; searches keep being served."""
    return error_response(
        503,
        str(exc),
        code="read_only",
        headers=_RETRY_AFTER,
    )


def health_payload(state: ServerState) -> dict:
    """The /health body, built lock-free.

    ``plan_count`` and ``len(kb)`` are single reads (atomic under the
    GIL), so liveness stays in microseconds even while ingest holds the
    state lock or a heavy search evaluates — and the front can
    serve it inline on the event loop without an executor hop.
    """
    status = state.health_status()
    payload = {
        "status": status,
        "plans": state.tool.plan_count,
        "kbEntries": len(state.kb),
        "inflight": state.inflight_heavy,
    }
    if state.tool.durable:
        payload["durability"] = state.tool.durability_status()
    if status == "read_only":
        # Operators need the *why* (disk full vs bad device vs a failed
        # recovery) without scraping metrics — see docs/operations.md.
        if state.recovery_error is not None:
            payload["reason"] = f"journal recovery failed: {state.recovery_error}"
        else:
            durability = payload.get("durability") or state.tool.durability_status()
            payload["reason"] = durability.get("failure", "journal failure")
    return payload


def _dispatch_get(state: ServerState, route: str) -> Response:
    if route == "/health":
        return json_response(200, health_payload(state))
    if route == "/plans":
        with state.lock:
            plan_ids = [t.plan_id for t in state.tool.workload]
        return json_response(200, {"plans": plan_ids})
    if route == "/kb/entries":
        with state.lock:
            names = [e.name for e in state.kb.entries]
        return json_response(200, {"entries": names})
    if route == "/stats":
        # A read of the engine's registry series under its own lock.
        return json_response(200, state.tool.stats())
    if route == "/metrics":
        # Prometheus text exposition over the server's registry:
        # request series plus everything the engine and KB export.
        return Response(
            200,
            render_text(state.registry).encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )
    return error_response(404, f"unknown path {route}", code="not_found")


def _dispatch_delete(state: ServerState, route: str) -> Response:
    if route == "/plans":
        state.check_ingest_allowed()
        with state.lock:
            state.tool.clear()
        return json_response(200, {"cleared": True})
    return error_response(404, f"unknown path {route}", code="not_found")


def _dispatch_post(
    state: ServerState,
    route: str,
    query: dict,
    headers: Mapping[str, str],
    body: bytes,
) -> Response:
    if route == "/plans":
        state.check_ingest_allowed()
        content_type = headers.get("content-type", "")
        if "json" in content_type.lower():
            # Batch ingest: {"plans": [text, ...]} — atomic in
            # memory AND across a crash (one journal record).
            payload = json.loads(body)
            texts = payload.get("plans")
            if not isinstance(texts, list) or not all(
                isinstance(t, str) for t in texts
            ):
                raise _RequestError(
                    400,
                    "bad_request",
                    'batch ingest body must be {"plans": [<text>, ...]}',
                )
            with state.lock:
                committed = state.tool.load_explain_batch(texts)
                synced = handle_ack(state, query)
            plan_ids = [t.plan_id for t in committed]
            return json_response(
                201,
                {
                    "planIds": plan_ids,
                    "count": len(plan_ids),
                    "durability": durability_ack(state, synced),
                },
            )
        text = body.decode("utf-8")
        with state.lock:
            if flag(query, "replace"):
                transformed = state.tool.replace_explain_text(text)
            else:
                transformed = state.tool.load_explain_text(text)
            synced = handle_ack(state, query)
        return json_response(
            201,
            {
                "planId": transformed.plan_id,
                "operators": transformed.plan.op_count,
                "triples": len(transformed.graph),
                "durability": durability_ack(state, synced),
            },
        )
    if route in ("/search", "/search/sparql"):
        state.check_not_recovering()
        if route == "/search":
            target = ProblemPattern.from_json(body.decode("utf-8"))
        else:
            target = body.decode("utf-8")
        budget = request_budget(state, query, headers)
        if not state.acquire_heavy_slot():
            return shed_response(state, route)
        try:
            # Snapshot the workload under the lock, evaluate outside
            # it: long searches never block reads or other requests.
            with state.lock:
                workload = state.tool.workload
            result = state.tool.engine.search_isolated(
                target, workload, budget=budget
            )
        finally:
            state.release_heavy_slot()
        state.record_plan_errors(route, result.errors)
        payload = {
            "matches": _matches_to_json(result.matches),
            "degraded": result.degraded,
        }
        if result.errors:
            payload["errors"] = [e.to_json_object() for e in result.errors]
        return _degraded_response(payload, result.errors, flag(query, "strict"))
    if route == "/kb/entries":
        state.check_ingest_allowed()
        entry = KBEntry.from_json_object(json.loads(body))
        with state.lock:
            # Journal first: a DurabilityError must leave the KB
            # unchanged (the 503 tells the client nothing happened).
            state.tool.record_kb_entry(entry.to_json_object())
            state.kb.add(entry)
            synced = handle_ack(state, query)
        return json_response(
            201,
            {"added": entry.name, "durability": durability_ack(state, synced)},
        )
    if route == "/kb/run":
        state.check_not_recovering()
        budget = request_budget(state, query, headers)
        if not state.acquire_heavy_slot():
            return shed_response(state, route)
        try:
            with state.lock:
                workload = state.tool.workload
                kb = state.kb
            report = kb.find_recommendations(
                workload,
                engine=state.tool.engine,
                budget=budget,
                isolate=True,
            )
        finally:
            state.release_heavy_slot()
        state.record_plan_errors(route, report.errors)
        return _degraded_response(
            _report_to_json(report), report.errors, flag(query, "strict")
        )
    return error_response(404, f"unknown path {route}", code="not_found")
