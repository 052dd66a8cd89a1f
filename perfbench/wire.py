"""Raw HTTP to the server: no retries, no backoff, every failure counted.

Requests go through :mod:`http.client` (one keep-alive connection per
closed-loop client) and streaming ingest through a plain socket, so the
benchmark sees exactly what the server answered.  A non-2xx status, a
``"degraded": true`` body, an NDJSON error record or a connection error
is a failure; the caller counts it and drops its latency sample.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Iterable, List, Optional, Tuple

TIMEOUT_S = 120.0


class RequestFailed(Exception):
    """The server refused, degraded or dropped one operation."""


class Connection:
    """One keep-alive HTTP connection; reconnects after a failure."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[dict, float]:
        """Send one request; returns ``(payload, seconds)`` or raises
        :class:`RequestFailed`."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if method == "POST" else {}
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=body or None, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
        elapsed = time.perf_counter() - started
        if not 200 <= response.status < 300:
            self.close()
            raise RequestFailed(f"{method} {path}: HTTP {response.status}: {data[:200]!r}")
        payload = json.loads(data) if data else {}
        if isinstance(payload, dict) and payload.get("degraded"):
            raise RequestFailed(f"{method} {path}: degraded reply")
        return payload, elapsed

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get_json(port: int, path: str) -> dict:
    conn = Connection(port)
    try:
        return conn.request("GET", path)[0]
    finally:
        conn.close()


def stream_record(plan_id: str, text: str) -> bytes:
    return json.dumps({"plan": text, "id": plan_id}).encode("utf-8") + b"\n"


class IngestStream:
    """One ``POST /plans/stream`` connection in a closed loop.

    :meth:`send_batch` writes one micro-batch as chunked body data and
    blocks until its ack line arrives; the returned latency runs from
    the batch's last byte leaving the client to its ack being read.
    """

    def __init__(self, port: int, query: str):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self._reader = self._sock.makefile("rb")
        self._headers_read = False
        self._sock.sendall(
            (
                f"POST /plans/stream?{query} HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n\r\n"
            ).encode("latin-1")
        )

    def _read_line(self) -> dict:
        if not self._headers_read:
            status = self._reader.readline()
            if not status.startswith(b"HTTP/1.1 200"):
                raise RequestFailed(f"stream refused: {status!r}")
            while self._reader.readline() not in (b"\r\n", b"\n", b""):
                pass
            self._headers_read = True
        line = self._reader.readline()
        if not line:
            raise RequestFailed("stream closed before its ack")
        record = json.loads(line)
        if "error" in record:
            raise RequestFailed(f"stream error record: {record}")
        return record

    def send_batch(self, records: Iterable[bytes]) -> Tuple[List[str], float]:
        """Send one micro-batch; returns ``(acked plan ids, seconds)``."""
        try:
            for record in records:
                self._sock.sendall(b"%x\r\n%s\r\n" % (len(record), record))
            sent = time.perf_counter()
            ack = self._read_line()
        except OSError as exc:
            raise RequestFailed(f"stream: {type(exc).__name__}: {exc}") from exc
        return ack["planIds"], time.perf_counter() - sent

    def finish(self, records: Iterable[bytes] = ()) -> dict:
        """Send a last partial batch and end the body; returns the final
        ``done`` summary record (the partial batch's ack precedes it)."""
        try:
            for record in records:
                self._sock.sendall(b"%x\r\n%s\r\n" % (len(record), record))
            self._sock.sendall(b"0\r\n\r\n")
            while True:
                record = self._read_line()
                if record.get("done"):
                    return record
        except OSError as exc:
            raise RequestFailed(f"stream: {type(exc).__name__}: {exc}") from exc
        finally:
            self.close()

    def close(self) -> None:
        self._reader.close()
        self._sock.close()
