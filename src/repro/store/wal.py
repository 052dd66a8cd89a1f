"""Append-only, checksummed write-ahead journal (the durability log).

Every workload mutation (plan add/replace/remove/clear, KB entry adds)
is appended to the journal *before* it is applied in memory, so a crash
at any instant loses at most the record being written.  The format is
deliberately boring::

    record := u32 length | u32 crc32(payload) | payload
    journal := record*

with both integers little-endian and the payload a compact,
key-sorted JSON object.  A reader walks records front to back and stops
at the first frame that does not check out — short header, short
payload, impossible length, CRC mismatch or undecodable JSON.  Torn
trailing writes from a crash therefore truncate cleanly at the last
valid record boundary, and a corrupt byte can never *resurrect* or
invent a record past itself (see ``tests/store/test_wal_properties.py``
for the hypothesis suite pinning this down).

Fsync policy
------------
:class:`WalWriter` supports three policies for when appended records
are forced to the device:

``"fsync"``
    ``os.fsync`` after every append — an acknowledged record survives
    power loss.  Slowest; this is the policy to pair with the server's
    ``?ack=sync`` durability acknowledgements.
``"batch"`` (default)
    flush on every append, ``os.fsync`` once at most every
    ``batch_records`` appends / ``batch_seconds`` seconds and on
    :meth:`WalWriter.sync` / :meth:`WalWriter.close`.  A crash can lose
    the last unsynced batch, never a synced one.
``"async"``
    flush to the OS on every append, never an explicit fsync (the
    kernel writes back on its own schedule).  Fastest; a power loss can
    lose everything since the last kernel writeback.  An ``atexit``
    hook fsyncs the tail on clean interpreter exit, so only a crash or
    power loss — not an orderly shutdown that skipped ``close`` — can
    drop buffered records.

Chaos sites
-----------
``wal.append`` (keyed by the record's plan id — an ``add_batch``
record's first one — falling back to the op name for plan-less records)
fires before a record is framed and written; ``wal.fsync`` fires
before each explicit ``os.fsync``.  Armed with ``kill=True`` they
simulate a crash mid-append / mid-sync for the recovery harness; armed
with an ``OSError`` they simulate a failed journal device (the store
degrades to read-only serving).  Armed with ``short_write=<n>`` the
``wal.append`` site persists only the first *n* bytes of the frame
before failing — a torn append that recovery must truncate at the last
valid record boundary.
"""

from __future__ import annotations

import atexit
import errno as _errno
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.testing import chaos

#: Frame header: u32 payload length + u32 crc32(payload), little-endian.
_HEADER = struct.Struct("<II")

#: Sanity cap on a single record.  A corrupted length field must not
#: make the reader treat megabytes of garbage as one frame; real
#: records (an explain file plus JSON framing) are a few KiB.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Defaults for the ``batch`` policy.
DEFAULT_BATCH_RECORDS = 64
DEFAULT_BATCH_SECONDS = 0.05

FSYNC_POLICIES = ("fsync", "batch", "async")


class WalError(RuntimeError):
    """The journal device failed (write or fsync raised ``OSError``).

    ``errno`` carries the underlying OS error number when the failure
    was an ``OSError`` (``ENOSPC`` for a full disk, ``EIO`` for a bad
    device), so callers can classify the failure for metrics/alerting
    without parsing the message.
    """

    def __init__(self, message: str, errno: Optional[int] = None):
        super().__init__(message)
        self.errno = errno


def encode_record(obj: dict) -> bytes:
    """Frame one mutation record: length + CRC32 + canonical JSON."""
    payload = json.dumps(
        obj, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(
            f"journal record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalScan:
    """Result of walking a journal front to back.

    ``records`` holds every decoded record up to the first invalid
    frame; ``valid_bytes`` is the offset of the last valid record
    boundary (what the file should be truncated to); ``truncated`` is
    True when trailing bytes past that boundary exist (torn write or
    corruption); ``error`` describes why scanning stopped.
    """

    records: List[dict] = field(default_factory=list)
    valid_bytes: int = 0
    total_bytes: int = 0
    truncated: bool = False
    error: Optional[str] = None


def decode_records(data: bytes) -> WalScan:
    """Decode journal *data*, stopping at the first invalid frame."""
    scan = WalScan(total_bytes=len(data))
    pos = 0
    size = len(data)
    while pos < size:
        if size - pos < _HEADER.size:
            scan.error = "torn frame header"
            break
        length, crc = _HEADER.unpack_from(data, pos)
        if length == 0 or length > MAX_RECORD_BYTES:
            scan.error = f"impossible record length {length}"
            break
        start = pos + _HEADER.size
        end = start + length
        if end > size:
            scan.error = "torn record payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.error = "record checksum mismatch"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            scan.error = "record payload is not valid JSON"
            break
        if not isinstance(record, dict):
            scan.error = "record payload is not a JSON object"
            break
        scan.records.append(record)
        pos = end
        scan.valid_bytes = pos
    scan.truncated = scan.valid_bytes < size
    return scan


def scan_wal(path: str) -> WalScan:
    """Scan the journal at *path*; a missing file is an empty scan."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return WalScan()
    return decode_records(data)


def truncate_wal(path: str, valid_bytes: int) -> None:
    """Drop a torn/corrupt tail: shrink *path* to *valid_bytes*."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


class WalWriter:
    """Thread-safe appender with a configurable fsync policy.

    Appends raise :class:`WalError` when the device fails (any
    ``OSError`` out of write/flush/fsync); the caller is expected to
    stop writing and degrade to read-only serving — a journal that may
    have dropped a record must not accept more.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        batch_records: int = DEFAULT_BATCH_RECORDS,
        batch_seconds: float = DEFAULT_BATCH_SECONDS,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, not {fsync!r}"
            )
        self.path = path
        self.policy = fsync
        self.batch_records = max(1, batch_records)
        self.batch_seconds = batch_seconds
        self._fh = open(path, "ab")
        self._pending = 0  # appends since the last fsync
        self._last_sync = time.monotonic()
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self._closed = False
        if fsync == "async":
            # The async policy never fsyncs on its own; make sure a
            # *clean* interpreter exit (which flushes Python buffers but
            # not the page cache) still forces the tail to the device.
            atexit.register(self._flush_at_exit)

    def _flush_at_exit(self) -> None:
        if self._closed:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            pass  # interpreter is exiting: nothing left to latch

    # ------------------------------------------------------------------
    def append(self, obj: dict) -> int:
        """Frame and append one record; returns the frame size in bytes."""
        frame = encode_record(obj)
        try:
            if chaos.active:
                plans = obj.get("plans")
                first = plans[0][0] if plans else None
                key = str(obj.get("plan") or first or obj.get("op") or "")
                injection = chaos.short_write("wal.append", key)
                if injection is not None:
                    self._torn_append(frame, injection)
                chaos.trip("wal.append", key)
            self._fh.write(frame)
            self._fh.flush()
            self._pending += 1
            if self.policy == "fsync":
                self._fsync()
            elif self.policy == "batch":
                now = time.monotonic()
                if (
                    self._pending >= self.batch_records
                    or now - self._last_sync >= self.batch_seconds
                ):
                    self._fsync()
        except OSError as exc:
            raise WalError(
                f"journal append failed: {exc}", errno=exc.errno
            ) from exc
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return len(frame)

    def _torn_append(self, frame: bytes, injection) -> None:
        """Chaos: persist a prefix of *frame*, then fail like the device.

        The prefix is flushed *and fsynced* so the torn bytes are really
        on disk before the fault — the ``kill=True`` variant must leave
        a genuinely torn file for recovery to truncate, not an empty
        Python buffer.  Raises the armed exception (default
        ``OSError(EIO)``, which :meth:`append` converts to
        :class:`WalError`) unless the injection kills the process.
        """
        prefix = frame[: min(injection.short_write, len(frame))]
        if prefix:
            self._fh.write(prefix)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        if injection.kill:
            os._exit(chaos.KILL_EXIT_CODE)
        exc = injection.exc
        if exc is not None:
            raise exc() if callable(exc) else exc
        raise OSError(_errno.EIO, "injected short write")

    def _fsync(self) -> None:
        if chaos.active:
            chaos.trip("wal.fsync", os.path.basename(self.path))
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._pending = 0
        self._last_sync = time.monotonic()

    def sync(self) -> None:
        """Force everything appended so far to the device."""
        if self._closed:
            return
        try:
            self._fh.flush()
            self._fsync()
        except OSError as exc:
            raise WalError(
                f"journal sync failed: {exc}", errno=exc.errno
            ) from exc

    def tell(self) -> int:
        return self._fh.tell()

    def close(self, sync: bool = True) -> None:
        """Close the file, fsyncing first by default (graceful path)."""
        if self._closed:
            return
        self._closed = True
        if self.policy == "async":
            atexit.unregister(self._flush_at_exit)
        try:
            if sync:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        except OSError:
            pass  # closing a failed device: nothing more to lose
        finally:
            self._fh.close()
