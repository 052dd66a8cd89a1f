"""Streaming NDJSON plan ingest — the engine behind ``POST /plans/stream``.

The wire protocol (see docs/http-api.md):

* The request body is NDJSON — one plan per line, arriving with either
  ``Content-Length`` or ``Transfer-Encoding: chunked`` framing.  A line
  is a JSON string (the explain text) or an object
  ``{"plan": <text>, "id": <plan id>}`` (explicit ids let tree
  snippets, whose parsed default id is shared, be streamed in bulk).
* Plans are committed in micro-batches of ``?batch=`` lines (server
  default, capped at :data:`~repro.server.common.MAX_STREAM_BATCH`):
  one workload mutation and — with durability on — one journal record
  per batch, so the amortization of PR-8 batch ingest applies to an
  unbounded stream.
* ``?ack=none`` (default) answers once at end-of-stream with a ``201``
  JSON summary.  ``?ack=batch`` / ``?ack=sync`` switch the reply to a
  ``200 application/x-ndjson`` stream of one ack line per committed
  batch (``sync`` additionally fsyncs the journal before each ack — a
  batch acked under ``sync`` is crash-durable, the property the kill -9
  suite in tests/robustness asserts).
* ``?replace=1`` upserts: each streamed plan replaces a same-id plan.

Failure semantics: a protocol error (oversized line → ``413``, torn
final line / bad record / parse failure → ``400``, journal failure →
``503``) aborts the stream, but **previously committed batches stay**;
the error payload carries ``ingested`` so the client knows exactly how
many plans landed.  If ack lines were already sent (headers are out),
the error arrives as a final NDJSON error record instead of an HTTP
status.

Backpressure: each committing batch holds one of
``ServerState.stream_commit_slots`` (the ``stream_hwm`` semaphore).
The front drives :class:`StreamSession` synchronously through its
stream executor, so a connection whose batch is waiting for a slot
simply stops reading its socket, and the kernel's TCP window pushes
the stall back to the sender.  Server memory per connection is bounded
by one batch plus one max-size line, no matter how fast clients write.

This module is deliberately socket-free and blocking; the only
asyncio- or socket-aware code lives in :mod:`repro.server.aserver`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.qep.parser import QepParseError
from repro.server.common import (
    MAX_STREAM_BATCH,
    Response,
    ServerState,
    _RequestError,
    durability_ack,
    encode_json,
    flag,
)
from repro.store import DurabilityError

#: Content type of the ack stream (and of request bodies, advisory).
NDJSON_CONTENT_TYPE = "application/x-ndjson"


def encode_ndjson(obj) -> bytes:
    """One compact, key-sorted NDJSON line (ack and error records)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    ) + b"\n"


class StreamError(Exception):
    """Abort the stream: carries the taxonomy status/code plus how many
    plans had already been committed when it struck."""

    def __init__(self, status: int, code: str, message: str, ingested: int = 0):
        super().__init__(message)
        self.status = status
        self.code = code
        self.ingested = ingested

    def to_record(self) -> bytes:
        """The post-headers form: a final NDJSON error record."""
        return encode_ndjson(
            {
                "error": str(self),
                "code": self.code,
                "ingested": self.ingested,
            }
        )


class LineSplitter:
    """Incremental newline splitter with a per-line byte cap.

    ``feed`` returns every *complete* line in arrival order (without
    the newline; a trailing ``\\r`` is stripped for CRLF senders) and
    raises :class:`StreamError` ``413`` as soon as any line — complete
    or still accumulating — exceeds *max_line_bytes*, so an unbounded
    line can never buffer unboundedly.  ``finish`` returns the torn
    remainder, if any.
    """

    def __init__(self, max_line_bytes: int):
        self.max_line_bytes = max_line_bytes
        self._buf = bytearray()
        self.lines_seen = 0

    def _check_size(self, chunk) -> None:
        if len(chunk) > self.max_line_bytes:
            raise StreamError(
                413,
                "line_too_large",
                f"stream line {self.lines_seen + 1} exceeds the "
                f"{self.max_line_bytes}-byte limit",
            )

    def feed(self, data: bytes) -> List[bytes]:
        self._buf += data
        if b"\n" not in self._buf:
            self._check_size(self._buf)
            return []
        parts = self._buf.split(b"\n")
        self._buf = bytearray(parts.pop())
        lines = []
        for part in parts:
            self._check_size(part)
            self.lines_seen += 1
            lines.append(bytes(part).rstrip(b"\r"))
        self._check_size(self._buf)
        return lines

    def finish(self) -> bytes:
        """End of input: whatever never saw its newline (torn line)."""
        return bytes(self._buf).rstrip(b"\r")


def _parse_record(line: bytes, line_no: int) -> Tuple[str, Optional[str]]:
    """One NDJSON line → (explain text, explicit plan id or None)."""
    try:
        record = json.loads(line)
    except ValueError:
        raise StreamError(
            400,
            "bad_stream_record",
            f"stream line {line_no} is not valid JSON",
        )
    if isinstance(record, str):
        return record, None
    if isinstance(record, dict):
        text = record.get("plan")
        plan_id = record.get("id")
        if isinstance(text, str) and (
            plan_id is None or isinstance(plan_id, str)
        ):
            return text, plan_id
    raise StreamError(
        400,
        "bad_stream_record",
        f'stream line {line_no} must be a JSON string or '
        f'{{"plan": <text>, "id": <id>}}',
    )


class StreamSession:
    """Per-connection streaming-ingest state machine (blocking).

    A front feeds raw body bytes in whatever chunks the socket yields;
    the session returns fully-encoded ack lines to write back (empty
    under ``ack=none``).  All failures raise :class:`StreamError` (or
    :class:`~repro.server.common._RequestError` from the admission
    checks in the constructor, which runs before any reply bytes).
    """

    def __init__(self, state: ServerState, query: dict):
        self.state = state
        state.check_ingest_allowed(state.retry_after_seconds)
        ack = (query.get("ack", ["none"])[-1] or "none").lower()
        if ack not in ("none", "batch", "sync"):
            raise _RequestError(
                400, "bad_parameter", f"invalid ack value: {ack!r}"
            )
        self.ack_mode = ack
        raw_batch = query.get("batch", [None])[-1]
        if raw_batch is None:
            self.batch_size = state.stream_batch
        else:
            try:
                self.batch_size = int(raw_batch)
            except (TypeError, ValueError):
                raise _RequestError(
                    400, "bad_parameter", f"invalid batch value: {raw_batch!r}"
                )
            if not 1 <= self.batch_size <= MAX_STREAM_BATCH:
                raise _RequestError(
                    400,
                    "bad_parameter",
                    f"batch must be in 1..{MAX_STREAM_BATCH}: {raw_batch!r}",
                )
        self.replace = flag(query, "replace")
        self.splitter = LineSplitter(state.max_body_bytes)
        self._staged_texts: List[str] = []
        self._staged_ids: List[Optional[str]] = []
        self.ingested = 0
        self.batches = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> List[bytes]:
        """Consume one chunk of body bytes; returns ack lines to send."""
        acks: List[bytes] = []
        try:
            for line in self.splitter.feed(data):
                if not line:
                    continue  # blank separator lines are harmless
                self._stage(line)
                if len(self._staged_texts) >= self.batch_size:
                    acks.append(self._commit())
        except StreamError as exc:
            exc.ingested = self.ingested
            raise
        return [a for a in acks if a is not None]

    def finish(self) -> Tuple[List[bytes], Response]:
        """End of body: flush the partial batch, build the final reply.

        Returns ``(ack_lines, response)``; under ``ack=none`` the
        response is the whole reply (201 + summary), otherwise the
        front has already streamed acks and only appends these final
        lines (the summary record) before closing.
        """
        try:
            torn = self.splitter.finish()
            if torn:
                raise StreamError(
                    400,
                    "truncated_stream",
                    f"stream ended mid-record after line "
                    f"{self.splitter.lines_seen}",
                )
            acks: List[bytes] = []
            if self._staged_texts:
                ack = self._commit()
                if ack is not None:
                    acks.append(ack)
        except StreamError as exc:
            exc.ingested = self.ingested
            raise
        summary = {
            "count": self.ingested,
            "batches": self.batches,
            "durability": durability_ack(self.state, self.ack_mode == "sync"),
        }
        if self.ack_mode == "none":
            return [], Response(201, encode_json(summary))
        acks.append(encode_ndjson({"done": True, **summary}))
        return acks, Response(200, b"", content_type=NDJSON_CONTENT_TYPE)

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def _stage(self, line: bytes) -> None:
        text, plan_id = _parse_record(line, self.splitter.lines_seen)
        self._staged_texts.append(text)
        self._staged_ids.append(plan_id)

    def _commit(self) -> Optional[bytes]:
        """Commit the staged micro-batch; returns the ack line or None.

        Holds one commit slot for the duration — the backpressure
        boundary — and the state lock only around the actual mutation.
        """
        texts, ids = self._staged_texts, self._staged_ids
        self._staged_texts, self._staged_ids = [], []
        state = self.state
        slots = state.stream_commit_slots
        if not slots.acquire(blocking=False):
            state._m_stream_backpressure.inc()
            slots.acquire()
        try:
            with state.tool.tracer.span(
                "ingest-stream", batch=self.batches + 1, plans=len(texts)
            ):
                try:
                    with state.lock:
                        state.check_ingest_allowed(state.retry_after_seconds)
                        committed = state.tool.load_explain_batch(
                            texts, plan_ids=ids, replace=self.replace
                        )
                        plan_ids = [t.plan_id for t in committed]
                        synced = False
                        if self.ack_mode == "sync":
                            state.tool.sync_journal()
                            synced = True
                except _RequestError as exc:
                    raise StreamError(exc.status, exc.code, str(exc))
                except DurabilityError as exc:
                    raise StreamError(503, "read_only", str(exc))
                except (QepParseError, ValueError, KeyError) as exc:
                    raise StreamError(400, "parse_error", str(exc))
        finally:
            slots.release()
        self.ingested += len(plan_ids)
        self.batches += 1
        state._m_stream_plans.inc(len(plan_ids))
        state._m_stream_batches.inc()
        if self.ack_mode == "none":
            return None
        return encode_ndjson(
            {
                "seq": self.batches,
                "planIds": plan_ids,
                "count": len(plan_ids),
                "synced": synced,
            }
        )
