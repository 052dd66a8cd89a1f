"""The HTTP front — keep-alive connections, streaming ingest.

One event loop owns every socket: requests are parsed with
:mod:`asyncio` stream readers, routed through the
:func:`repro.server.common.dispatch` table, and written back over
persistent HTTP/1.1 connections.  The division of labor:

* **event loop** — socket IO, HTTP framing, ``GET /health`` (built
  lock-free by :func:`~repro.server.common.health_payload`, so liveness
  is served inline in microseconds no matter what the executors are
  chewing on);
* **dispatch executor** — every other route.  CPU-bound matching work
  (``/search``, ``/kb/run``) runs here via ``run_in_executor`` (and on
  the engine's process pool when it has several workers), so the loop
  never blocks on the GIL-heavy evaluation path;
* **stream executor** — ``POST /plans/stream`` micro-batch commits.  A
  connection ``await``s its own commit before reading the next chunk,
  and commits queue behind the shared
  :attr:`~repro.server.common.ServerState.stream_commit_slots`
  high-water mark: per-connection backpressure that bounds server
  memory to roughly one batch + one max-size line per connection while
  the TCP window pushes the stall back to fast senders.

Governance composes unchanged: load shedding, budgets, graceful drain
(:meth:`AsyncOptImatchServer.stop`) and the durability taxonomy
(``recovering``/``read_only`` 503s with Retry-After) all live in the
shared :class:`~repro.server.common.ServerState`.

Start one with ``optimatch serve`` or programmatically::

    from repro.server import AsyncOptImatchServer
    server = AsyncOptImatchServer(port=0).start()   # daemon thread
    ...
    server.stop()
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Optional, Tuple

from repro.server.common import (
    Response,
    ServerState,
    _RequestError,
    content_length,
    dispatch,
    encode_json,
    error_response,
    health_payload,
    json_response,
    shed_response,
    split_path,
    validate_content_length,
)
from repro.server.stream import (
    NDJSON_CONTENT_TYPE,
    StreamError,
    StreamSession,
)

#: Read streamed request bodies in slices of this many bytes.
_STREAM_READ_SIZE = 64 * 1024
#: Cap on one request head line / header line (defense against
#: unbounded readline buffering).  A line past the StreamReader's own
#: 64 KiB limit never reaches this check; see :func:`_readline`.
_MAX_LINE = 16 * 1024

#: Lingering-close bounds: how much of a half-dead client's remaining
#: upload we read (and how long we wait) before closing its socket.
_LINGER_BYTES = 1024 * 1024
_LINGER_SECONDS = 1.0


async def _readline(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One line from *reader*, or ``None`` when it overruns the
    reader's buffer limit (``readline`` raises ``ValueError`` then)."""
    try:
        return await reader.readline()
    except ValueError:
        return None


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


class AsyncOptImatchServer:
    """The HTTP service front over one :class:`OptImatch` instance.

    Binds *host*:*port* (``0`` picks an ephemeral port).  Every other
    keyword argument is passed to
    :class:`~repro.server.common.ServerState`, which holds the defaults:
    the governance layer (*max_body_bytes*, *default_timeout_ms*,
    *max_timeout_ms*, *max_inflight*; see docs/operations.md),
    streaming ingest (*stream_batch*, *stream_hwm*; see
    docs/http-api.md), the matching engine (*workers*, *cache*) and
    durability (*data_dir*, *fsync_mode*, *checkpoint_every*).  The
    ``Retry-After`` value and the cap on open streams are the constants
    :data:`~repro.server.common.RETRY_AFTER_SECONDS` and
    :data:`~repro.server.common.MAX_STREAMS`.
    Lifecycle: ``start`` / ``stop`` / ``address`` / ``url``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, **options):
        self.state = ServerState(**options)
        self._host = host
        self._port = port
        # Blocking dispatch must never starve: size for the heavy-slot
        # cap (shed beyond it) plus headroom for light routes.
        self._dispatch_executor = ThreadPoolExecutor(
            max_workers=max(8, self.state.max_inflight + 4),
            thread_name_prefix="optimatch-dispatch",
        )
        # Stream commits are bounded by the commit-slot semaphore; a
        # small dedicated pool keeps blocked commits from ever eating
        # dispatch threads.
        self._stream_executor = ThreadPoolExecutor(
            max_workers=self.state.stream_hwm + 2,
            thread_name_prefix="optimatch-stream",
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._bound: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._bound is None:
            raise RuntimeError("server is not running")
        return self._bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncOptImatchServer":
        """Run the event loop in a daemon thread; returns once bound."""
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="optimatch-aserver"
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self._bound is None:
            raise RuntimeError("async server failed to bind in time")
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surface via start()
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._conn_tasks = set()
        self._conn_writers = set()
        server = await asyncio.start_server(
            self._client_connected, self._host, self._port
        )
        self.state.begin_recovery()
        self._bound = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop_event.wait()
        # Close open keep-alive connections gently: closing the
        # transport feeds EOF to each connection's reader, so its task
        # exits its request loop normally instead of being cancelled.
        for conn_writer in list(self._conn_writers):
            try:
                conn_writer.close()
            except Exception:  # noqa: BLE001 — already dying
                pass
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=2)

    def stop(self, drain_seconds: float = 5.0) -> None:
        """Graceful shutdown: drain in-flight requests, then close.

        New heavy work is shed with 503 while draining, in-flight
        requests get up to *drain_seconds*, then the loop is torn down
        (open keep-alive connections are dropped) and the engine is
        closed.
        """
        self.state.draining = True
        deadline = time.monotonic() + drain_seconds
        while time.monotonic() < deadline:
            with self.state._counter_lock:
                if self.state.inflight_requests == 0:
                    break
            time.sleep(0.02)
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._dispatch_executor.shutdown(wait=False, cancel_futures=True)
        self._stream_executor.shutdown(wait=False, cancel_futures=True)
        self.state.tool.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                request_line = await _readline(reader)
                if request_line == b"":
                    break
                if request_line in (b"\r\n", b"\n"):
                    continue  # stray CRLF between pipelined requests
                if request_line is None or len(request_line) > _MAX_LINE:
                    await self._write_response(
                        writer,
                        error_response(400, "request line too long"),
                        keep_alive=False,
                    )
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
                    await self._write_response(
                        writer,
                        error_response(400, "malformed request line"),
                        keep_alive=False,
                    )
                    break
                method, target, version = parts[0].upper(), parts[1], parts[2]
                headers = await self._read_headers(reader)
                if headers is None:
                    await self._write_response(
                        writer,
                        error_response(400, "malformed headers"),
                        keep_alive=False,
                    )
                    break
                connection = headers.get("connection", "").lower()
                if version.upper() == "HTTP/1.1":
                    keep_alive = connection != "close"
                else:
                    keep_alive = connection == "keep-alive"
                keep_alive = await self._handle_request(
                    reader, writer, method, target, headers, keep_alive
                )
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away / overran framing; nothing to say
        finally:
            self._conn_writers.discard(writer)
            # Stay in _conn_tasks until the close finishes, so shutdown
            # waits for it instead of cancelling it mid-close.
            await self._lingering_close(reader, writer)
            self._conn_tasks.discard(task)

    async def _lingering_close(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close, drain briefly, then close.

        An early error reply (413 mid-upload, a stream protocol error)
        leaves unread request bytes in the kernel receive buffer; a
        plain ``close()`` then makes the kernel send RST, which can
        destroy the already-written response before the client reads
        it.  Sending FIN first lets the client finish reading, and the
        bounded drain consumes whatever it was still sending.
        """
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError):
            pass

        async def drain() -> None:
            remaining = _LINGER_BYTES
            while remaining > 0:
                data = await reader.read(65536)
                if not data:
                    return
                remaining -= len(data)

        try:
            await asyncio.wait_for(drain(), _LINGER_SECONDS)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _read_headers(self, reader: asyncio.StreamReader):
        headers = {}
        while True:
            line = await _readline(reader)
            if line in (b"\r\n", b"\n", b""):
                return headers
            if line is None or len(line) > _MAX_LINE or len(headers) > 256:
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict,
        keep_alive: bool,
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        state = self.state
        state.request_started()
        started = time.perf_counter()
        route, query = split_path(target)
        status = 0
        try:
            try:
                if method == "POST" and route == "/plans/stream":
                    status = await self._handle_stream(
                        reader, writer, query, headers
                    )
                    # Ack streams are unframed; mid-body errors desync
                    # the reader.  Never reuse the connection.
                    return False
                if method not in ("GET", "POST", "DELETE"):
                    status = 405
                    await self._write_response(
                        writer,
                        error_response(
                            405,
                            f"method {method} not allowed",
                            code="method_not_allowed",
                        ),
                        keep_alive=False,
                    )
                    return False
                body = b""
                if method == "POST" or "content-length" in headers:
                    # Read the body before routing, so Content-Length
                    # problems (411/400/413) surface even on unknown
                    # paths — and close, since the body is unread.  A
                    # GET/DELETE body is read (to keep the framing) and
                    # capped like any other; only POST requires one.
                    try:
                        length = validate_content_length(state, headers)
                    except _RequestError as exc:
                        status = exc.status
                        await self._write_response(
                            writer,
                            error_response(
                                exc.status,
                                str(exc),
                                code=exc.code,
                                headers=exc.headers,
                            ),
                            keep_alive=False,
                        )
                        return False
                    body = await reader.readexactly(length) if length else b""
                if method == "GET" and route == "/health":
                    # Inline on the event loop: liveness must not queue
                    # behind the executors.
                    response = json_response(200, health_payload(state))
                else:
                    response = await asyncio.get_running_loop().run_in_executor(
                        self._dispatch_executor,
                        dispatch,
                        state,
                        method,
                        target,
                        headers,
                        body,
                    )
                status = response.status
                await self._write_response(writer, response, keep_alive)
                return keep_alive
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
            ):
                raise
            except Exception as exc:  # noqa: BLE001 — catch-all 500
                status = 500
                await self._internal_error(writer, method, target, exc)
                return False
        finally:
            state.request_finished()
            state.observe_request(
                state.metric_route(route),
                method,
                status,
                time.perf_counter() - started,
            )

    async def _internal_error(self, writer, method, target, exc) -> None:
        error_id = uuid.uuid4().hex[:12]
        print(
            f"[optimatch-server] error {error_id} on "
            f"{method} {target}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        try:
            await self._write_response(
                writer,
                error_response(
                    500,
                    f"internal server error (id {error_id})",
                    code="internal",
                    error_id=error_id,
                ),
                keep_alive=False,
            )
        except (ConnectionError, OSError):
            pass  # client went away mid-reply; nothing left to say

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        head = [
            f"HTTP/1.1 {response.status} {_reason(response.status)}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        for name, value in response.headers:
            head.append(f"{name}: {value}")
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    async def _handle_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        query: dict,
        headers: dict,
    ) -> int:
        state = self.state
        if not state.acquire_stream_slot():
            state._m_stream_connections.labels("shed").inc()
            await self._write_response(
                writer, shed_response(state, "/plans/stream"), keep_alive=False
            )
            return 503
        loop = asyncio.get_running_loop()
        headers_sent = False
        try:
            try:
                session = StreamSession(state, query)
                async for chunk in self._body_chunks(reader, headers):
                    # Awaiting our own commit IS the backpressure: no
                    # further reads from this socket until the batch
                    # (queued behind the commit-slot high-water mark)
                    # has landed.
                    acks = await loop.run_in_executor(
                        self._stream_executor, session.feed, chunk
                    )
                    if acks:
                        if not headers_sent:
                            self._start_ndjson(writer)
                            headers_sent = True
                        writer.write(b"".join(acks))
                        await writer.drain()
                acks, response = await loop.run_in_executor(
                    self._stream_executor, session.finish
                )
                if session.ack_mode == "none":
                    await self._write_response(
                        writer, response, keep_alive=False
                    )
                    status = response.status
                else:
                    if not headers_sent:
                        self._start_ndjson(writer)
                        headers_sent = True
                    writer.write(b"".join(acks))
                    await writer.drain()
                    status = 200
                state._m_stream_connections.labels("ok").inc()
                return status
            except _RequestError as exc:
                state._m_stream_connections.labels("error").inc()
                await self._write_response(
                    writer,
                    error_response(
                        exc.status, str(exc), code=exc.code, headers=exc.headers
                    ),
                    keep_alive=False,
                )
                return exc.status
            except StreamError as exc:
                state._m_stream_connections.labels("error").inc()
                if headers_sent:
                    # Headers are out: the error becomes the final
                    # NDJSON record instead of an HTTP status.
                    writer.write(exc.to_record())
                    await writer.drain()
                    return 200
                await self._write_response(
                    writer,
                    Response(
                        exc.status,
                        encode_json(
                            {
                                "error": str(exc),
                                "code": exc.code,
                                "ingested": exc.ingested,
                            }
                        ),
                    ),
                    keep_alive=False,
                )
                return exc.status
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            OSError,
        ):
            state._m_stream_connections.labels("aborted").inc()
            return 0
        finally:
            state.release_stream_slot()

    def _start_ndjson(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {NDJSON_CONTENT_TYPE}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )

    async def _body_chunks(self, reader: asyncio.StreamReader, headers: dict):
        """Yield request-body slices under either framing.

        ``Transfer-Encoding: chunked`` is decoded chunk by chunk;
        otherwise Content-Length is required (but NOT capped — the
        stream's size limit is per line, enforced by the session's
        splitter) and read in bounded slices.
        """
        te = headers.get("transfer-encoding", "")
        if "chunked" in te.lower():
            while True:
                size_line = await _readline(reader)
                if size_line is None:
                    raise _RequestError(
                        400, "bad_chunked_encoding", "chunk size line too long"
                    )
                try:
                    size = int(size_line.split(b";")[0].strip() or b"", 16)
                except ValueError:
                    raise _RequestError(
                        400, "bad_chunked_encoding", "malformed chunk size"
                    )
                if size == 0:
                    # Consume trailers up to the terminating blank line.
                    while True:
                        line = await _readline(reader)
                        if line is None:
                            raise _RequestError(
                                400, "bad_chunked_encoding", "trailer too long"
                            )
                        if line in (b"\r\n", b"\n", b""):
                            break
                    return
                remaining = size
                while remaining:
                    data = await reader.read(min(remaining, _STREAM_READ_SIZE))
                    if not data:
                        raise _RequestError(
                            400, "bad_chunked_encoding", "truncated chunk"
                        )
                    remaining -= len(data)
                    yield data
                await reader.readexactly(2)  # chunk-terminating CRLF
        else:
            remaining = content_length(headers)
            while remaining:
                data = await reader.read(min(remaining, _STREAM_READ_SIZE))
                if not data:
                    break
                remaining -= len(data)
                yield data
