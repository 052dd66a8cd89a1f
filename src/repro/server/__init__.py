"""HTTP service tier — the paper's client/server architecture.

OptImatch is a web tool (Figure 4: a web-based GUI talking to a server
holding the transformation and matching engines; Section 3.2.1 even
notes the client/server communication as an optimization target).  This
package exposes that architecture over a JSON/HTTP API built on the
standard library:

* :class:`AsyncOptImatchServer` (:mod:`repro.server.aserver`) — the
  asyncio front: keep-alive connections, an event loop that never
  blocks on evaluation (CPU work dispatches to executors), and the
  high-throughput streaming-ingest path;
* :mod:`repro.server.common` — the route table, governance state and
  JSON encoding behind it;
* :mod:`repro.server.stream` — the incremental NDJSON ingest session.

The API:

======  =====================  ==========================================
method  path                   body / effect
======  =====================  ==========================================
GET     /health                liveness + workload size (never blocks)
GET     /stats                 matching-engine cache/timing counters
GET     /metrics               Prometheus text exposition (scrape me)
GET     /plans                 list loaded plan ids
POST    /plans                 explain text or JSON batch → loads it
POST    /plans/stream          NDJSON stream, micro-batched ingest
DELETE  /plans                 clear the workload
POST    /search                Figure 5 pattern JSON → matches
POST    /search/sparql         raw SPARQL text → matches
GET     /kb/entries            stored entry names
POST    /kb/entries            entry JSON (pattern + recommendations)
POST    /kb/run                run all entries → recommendations report
======  =====================  ==========================================

Production posture (see docs/operations.md and docs/http-api.md):
per-request deadlines (``?timeout_ms=``, clamped), request body caps
(``413``), load shedding (``503`` + ``Retry-After``), fault isolation
(structured per-plan error records), a stable error-code taxonomy,
graceful drain on ``stop()``, durability (journaled ingest, background
recovery, ``recovering``/``read_only`` degradation), and streaming
ingest with per-connection backpressure.

Start one with ``optimatch serve --port 8080`` or programmatically::

    from repro.server import AsyncOptImatchServer
    server = AsyncOptImatchServer(port=0)     # 0 = ephemeral port
    server.start()
    ...
    server.stop()
"""

from repro.server.aserver import AsyncOptImatchServer
from repro.server.common import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_MAX_STREAMS,
    DEFAULT_MAX_TIMEOUT_MS,
    DEFAULT_RETRY_AFTER_SECONDS,
    DEFAULT_STREAM_BATCH,
    DEFAULT_STREAM_HWM,
    DEFAULT_TIMEOUT_MS,
    MAX_STREAM_BATCH,
    Response,
    ServerState,
    _matches_to_json,
    _report_to_json,
    dispatch,
    encode_json,
    health_payload,
)
from repro.server.stream import (
    NDJSON_CONTENT_TYPE,
    LineSplitter,
    StreamError,
    StreamSession,
    encode_ndjson,
)
__all__ = [
    "AsyncOptImatchServer",
    "ServerState",
    "Response",
    "dispatch",
    "encode_json",
    "encode_ndjson",
    "health_payload",
    "LineSplitter",
    "StreamError",
    "StreamSession",
    "NDJSON_CONTENT_TYPE",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_TIMEOUT_MS",
    "DEFAULT_MAX_TIMEOUT_MS",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_RETRY_AFTER_SECONDS",
    "DEFAULT_STREAM_BATCH",
    "DEFAULT_STREAM_HWM",
    "DEFAULT_MAX_STREAMS",
    "MAX_STREAM_BATCH",
    "_matches_to_json",
    "_report_to_json",
]
