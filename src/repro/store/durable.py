"""Crash-safe workload persistence: journal + checkpoints + recovery.

:class:`DurableStore` owns one data directory and keeps the *logical*
workload state durable — which plans exist (by id), their explain-file
source text, and any knowledge-base entries added at runtime.  It
composes two mechanisms:

* the write-ahead journal (:mod:`repro.store.wal`): every mutation is
  appended (and, per the fsync policy, synced) before it is applied;
* periodic **checkpoints**: that logical state plus the plans' warm
  match results, one CRC-checked JSON manifest written to
  ``ckpt-<seq>.bin.tmp``, fsynced, and atomically renamed into place
  (``checkpoint.rename`` chaos site between the two).  Each checkpoint
  starts a fresh journal ``wal-<seq>.log``, so journals stay short and
  recovery time is bounded by ``checkpoint_every``.

This module alone knows the checkpoint format.  A checkpoint holds no
plan graph: the RDF transform is deterministic, so a plan's explain
source is all recovery needs to rebuild its graph.

Recovery (:meth:`DurableStore.recover`) picks the newest *valid*
checkpoint (CRC-checked manifest; an invalid or torn one falls back to
its predecessor, while one it cannot read or whose format it does not
know is refused and kept), replays every retained journal from that
sequence forward, truncates a torn trailing record at the last valid
CRC boundary, sweeps stray ``*.tmp`` files, and reopens the journal for
appending.  The returned :class:`RecoveryInfo` carries everything the
facade needs to rebuild in-memory state **deterministically** — plans
are re-transformed from their journaled source text, so recovered
graphs are bit-identical to the pre-crash ones.  It also carries the
checkpointed match results, minus those of every plan a replayed
journal record adds or replaces; the facade re-arms the rest whose
``graph.version`` is unchanged (the delta invalidation described in
docs/durability.md).

Failure mode
------------
Any journal device failure (:class:`repro.store.wal.WalError`) — and
any ``OSError`` out of the checkpoint write/rename path — flips the
store to **read-only**: every further mutation raises
:class:`DurabilityError` while reads keep working, which the server
surfaces as 503 + ``Retry-After`` on ingest with searches still served.
Each latch increments ``optimatch_durability_errors_total{kind=...}``
(``enospc`` / ``eio`` / ``io`` / ``error`` via :func:`failure_kind`) and
:meth:`DurableStore.status` carries ``failure`` + ``failureKind`` so
``/health`` can tell operators *why* the store latched.
"""

from __future__ import annotations

import errno
import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.store import wal as _wal
from repro.store.wal import WalError, WalWriter
from repro.testing import chaos

#: Checkpoint file magic: b"OPTMCKP1".
CKPT_MAGIC = b"OPTMCKP1"
#: Format 3 is the manifest alone, listing each cached query's text once
#: (``queries``) and naming it in each cache entry by its index.  Format
#: 2 repeated the text in every entry; it still loads.  Format 1
#: followed the manifest with a blob of per-plan graph images and stored
#: cache rows as term ids into them; it still loads, minus its cache
#: rows (see :meth:`DurableStore.recover`).  Manifests written while
#: graph versions carried a plan revision hold a ``revisions`` table
#: and a ``rev`` per plan; recovery reads the table only as the sign
#: that its cache versions carry that revision in their high 32 bits.
CKPT_FORMAT = 3
_CKPT_FORMATS = (1, 2, 3)

_CKPT_HEADER = struct.Struct("<II")  # manifest length + crc32(manifest)

_WAL_NAME = re.compile(r"^wal-(\d+)\.log$")
_CKPT_NAME = re.compile(r"^ckpt-(\d+)\.bin$")

#: Default journal records between automatic checkpoints.
DEFAULT_CHECKPOINT_EVERY = 256

#: Checkpoints retained: the newest, and its predecessor as the fallback
#: when the newest fails validation.
KEEP_CHECKPOINTS = 2


class DurabilityError(RuntimeError):
    """A mutation could not be made durable (journal failed / read-only)."""


def failure_kind(err: Optional[int]) -> str:
    """Metric label for a durability failure's errno.

    ``enospc`` (disk full) and ``eio`` (device error) get their own
    buckets because they drive different operator responses (free space
    vs replace hardware); any other OS error is ``io``; a failure with
    no errno at all (e.g. a checkpoint serialization bug) is ``error``.
    """
    if err == errno.ENOSPC:
        return "enospc"
    if err == errno.EIO:
        return "eio"
    return "io" if err is not None else "error"


@dataclass
class CacheEntry:
    """One persisted match-cache entry from a checkpoint.

    ``rows`` is the wire form: one list per occurrence, each a list of
    ``[name, node]`` pairs in binding order, where ``node`` names a
    plan node of ``plan_id`` — an operator by its number (int) or a
    base object by its qualified name (str).
    """

    plan_id: str
    version: int
    query: str
    rows: List[list]


@dataclass
class RecoveryInfo:
    """Everything :meth:`DurableStore.recover` hands the facade."""

    plans: List[Tuple[str, str]] = field(default_factory=list)
    kb_entries: List[dict] = field(default_factory=list)
    cache_entries: List[CacheEntry] = field(default_factory=list)
    checkpoint_seq: int = 0
    replayed_records: int = 0
    truncated_bytes: int = 0
    seconds: float = 0.0


class DurableStore:
    """Durable logical workload state under one data directory.

    Not thread-safe on its own: callers (the facade, which the server
    already serializes under its state lock) must not interleave
    mutations.  ``fsync`` / ``checkpoint_every`` are described in
    docs/durability.md.
    """

    def __init__(
        self,
        data_dir: str,
        fsync: str = "batch",
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        registry=None,
    ):
        if fsync not in _wal.FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {_wal.FSYNC_POLICIES}, "
                f"not {fsync!r}"
            )
        self.data_dir = os.path.abspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.fsync_policy = fsync
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._plans: Dict[str, str] = {}  # id -> source, insertion-ordered
        self._kb: List[dict] = []
        self._writer: Optional[WalWriter] = None
        self._recovered = False
        self._failed: Optional[str] = None
        self._failed_kind: Optional[str] = None
        self._closed = False
        self.checkpoint_seq = 0
        self.records_since_checkpoint = 0
        self.last_checkpoint_seconds = 0.0
        self.last_recovery: Optional[dict] = None

        from repro.obs.metrics import MetricsRegistry

        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_records = self.registry.counter(
            "optimatch_wal_records_total",
            "Journal records appended, by mutation op.",
            ("op",),
        )
        self._m_bytes = self.registry.counter(
            "optimatch_wal_bytes_total", "Journal bytes appended."
        )
        self._m_checkpoint = self.registry.histogram(
            "optimatch_checkpoint_seconds",
            "Wall-clock seconds per checkpoint write.",
        )
        self._m_state = self.registry.gauge(
            "optimatch_durability_state_info",
            "Durability state of the store (1 = active).",
            ("state",),
        )
        self._m_dur_errors = self.registry.counter(
            "optimatch_durability_errors_total",
            "Durability failures that latched the store read-only, "
            "by kind (enospc, eio, io, error).",
            ("kind",),
        )
        self._set_state_gauge()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def read_only(self) -> bool:
        return self._failed is not None

    @property
    def state(self) -> str:
        if self._failed is not None:
            return "read_only"
        if not self._recovered:
            return "recovering"
        return "ready"

    def _set_state_gauge(self) -> None:
        current = self.state
        for state in ("recovering", "ready", "read_only"):
            self._m_state.labels(state).set(1.0 if state == current else 0.0)

    def _fail(self, reason: str, kind: str = "error") -> None:
        if self._failed is None:
            self._failed = reason
            self._failed_kind = kind
            self._m_dur_errors.labels(kind).inc()
            self._set_state_gauge()

    @property
    def kb_entries(self) -> List[dict]:
        return list(self._kb)

    def status(self) -> dict:
        """JSON-ready durability facts for ``/health`` and ``stats()``."""
        writer = self._writer
        payload = {
            "state": self.state,
            "dataDir": self.data_dir,
            "fsync": self.fsync_policy,
            "checkpointSeq": self.checkpoint_seq,
            "checkpointEvery": self.checkpoint_every,
            "recordsSinceCheckpoint": self.records_since_checkpoint,
            "journalRecords": writer.records_appended if writer else 0,
            "journalBytes": writer.bytes_appended if writer else 0,
            "journalFsyncs": writer.fsyncs if writer else 0,
            "lastCheckpointSeconds": round(self.last_checkpoint_seconds, 6),
        }
        if self._failed is not None:
            payload["failure"] = self._failed
            payload["failureKind"] = self._failed_kind or "error"
        if self.last_recovery is not None:
            payload["recovery"] = self.last_recovery
        return payload

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        """Journal *record*, then apply it through :meth:`_apply` — the
        transition replay uses, so live state and recovered state
        cannot drift apart."""
        if self._failed is not None:
            raise DurabilityError(
                f"store is read-only after a journal failure: {self._failed}"
            )
        if not self._recovered or self._writer is None:
            raise DurabilityError("store has not completed recovery")
        try:
            size = self._writer.append(record)
        except WalError as exc:
            self._fail(str(exc), kind=failure_kind(exc.errno))
            raise DurabilityError(str(exc)) from exc
        self._m_records.labels(record["op"]).inc()
        self._m_bytes.inc(size)
        self.records_since_checkpoint += 1
        self._apply(record)

    def record_plans(self, items: List[Tuple[str, str]]) -> None:
        """Journal a batch of plan adds and replaces — ``(plan id,
        source)`` pairs — as ONE ``add_batch`` record (atomic across a
        crash: either every plan in the batch recovers or none does)."""
        self._append({"op": "add_batch", "plans": list(items)})

    def record_remove(self, plan_id: str) -> None:
        self._append({"op": "remove", "plan": plan_id})

    def record_clear(self) -> None:
        self._append({"op": "clear"})

    def record_kb_entry(self, entry: dict) -> None:
        self._append({"op": "kb_add", "entry": entry})

    def sync(self) -> None:
        """Force journaled records to the device (durability ack)."""
        if self._writer is None or self._failed is not None:
            return
        try:
            self._writer.sync()
        except WalError as exc:
            self._fail(str(exc), kind=failure_kind(exc.errno))
            raise DurabilityError(str(exc)) from exc

    @property
    def should_checkpoint(self) -> bool:
        return (
            self._recovered
            and self._failed is None
            and self.records_since_checkpoint >= self.checkpoint_every
        )

    # ------------------------------------------------------------------
    # Replay (shared by recovery)
    # ------------------------------------------------------------------
    def _apply(self, record: dict) -> Optional[List[str]]:
        """Apply one journal record to the logical state (idempotent
        upserts, so chain replay across checkpoints converges) and
        return the ids of the plans it adds or replaces, or None for an
        op it does not know.  Every live write goes through here too
        (see :meth:`_append`).  Plan writes are ``add_batch`` records of
        ``[id, source]`` pairs; ``[id, rev, source]`` triples and the
        single-plan ``add`` and ``replace`` ops are still read, so data
        directories written by older versions recover."""
        op = record.get("op")
        if op == "add" or op == "replace":
            writes = [(record["plan"], record["source"])]
        elif op == "add_batch":
            writes = [(item[0], item[-1]) for item in record["plans"]]
        elif op == "remove":
            self._plans.pop(record["plan"], None)
            return []
        elif op == "clear":
            self._plans.clear()
            return []
        elif op == "kb_add":
            self._kb.append(record["entry"])
            return []
        else:
            return None  # unknown op from a future version: skip
        self._plans.update(writes)
        return [plan_id for plan_id, _ in writes]

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, cache_entries: Optional[List[dict]] = None) -> int:
        """Write checkpoint ``seq`` atomically and start journal ``seq``.

        The checkpoint holds the logical state and *cache_entries*, the
        plans' memoized match results in wire form (see
        :class:`CacheEntry`, keyed ``plan`` / ``version`` / ``query`` /
        ``rows``).  The manifest stores each distinct query text once,
        in ``queries``, and each entry's ``query`` as its index there
        (format 3).  A failure cleans up the temp file and raises
        :class:`DurabilityError` without touching the existing
        checkpoint or journal.
        """
        if not self._recovered:
            raise DurabilityError("store has not completed recovery")
        if self._failed is not None:
            raise DurabilityError(
                f"store is read-only after a journal failure: {self._failed}"
            )
        started = time.perf_counter()
        seq = self.checkpoint_seq + 1
        queries: Dict[str, int] = {}
        cache = [
            {**entry, "query": queries.setdefault(entry["query"], len(queries))}
            for entry in cache_entries or ()
        ]
        manifest = {
            "format": CKPT_FORMAT,
            "seq": seq,
            "wal": f"wal-{seq}.log",
            "plans": [
                {"id": plan_id, "source": source}
                for plan_id, source in self._plans.items()
            ],
            "kb": list(self._kb),
            "queries": list(queries),
            "cache": cache,
        }
        manifest_bytes = json.dumps(
            manifest, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        final_path = os.path.join(self.data_dir, f"ckpt-{seq}.bin")
        tmp_path = final_path + ".tmp"
        try:
            # Flush the current journal first: the checkpoint must never
            # be *ahead* of the journal it supersedes.
            if self._writer is not None:
                self._writer.sync()
            with open(tmp_path, "wb") as handle:
                handle.write(CKPT_MAGIC)
                handle.write(
                    _CKPT_HEADER.pack(
                        len(manifest_bytes), zlib.crc32(manifest_bytes)
                    )
                )
                handle.write(manifest_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            if chaos.active:
                chaos.trip("checkpoint.rename", str(seq))
            os.replace(tmp_path, final_path)
            self._fsync_dir()
            # New epoch: checkpoint seq owns a fresh journal.
            old_writer, self._writer = self._writer, None
            if old_writer is not None:
                old_writer.close()
            self._writer = WalWriter(
                os.path.join(self.data_dir, f"wal-{seq}.log"),
                fsync=self.fsync_policy,
            )
        except WalError as exc:
            self._remove_quietly(tmp_path)
            self._fail(str(exc), kind=failure_kind(exc.errno))
            raise DurabilityError(str(exc)) from exc
        except OSError as exc:
            # Disk trouble mid-checkpoint (ENOSPC writing the temp file,
            # EIO on the rename): the existing checkpoint and journal
            # are intact, but a device that just failed must not keep
            # taking acked writes — latch read-only.
            self._remove_quietly(tmp_path)
            self._fail(
                f"checkpoint failed: {exc}", kind=failure_kind(exc.errno)
            )
            raise DurabilityError(f"checkpoint failed: {exc}") from exc
        except Exception as exc:
            self._remove_quietly(tmp_path)
            if self._writer is None:
                # The old journal was closed but the new one never
                # opened: no safe append target remains.
                self._fail(f"checkpoint failed: {exc}")
            raise DurabilityError(f"checkpoint failed: {exc}") from exc
        self.checkpoint_seq = seq
        self.records_since_checkpoint = 0
        self.last_checkpoint_seconds = time.perf_counter() - started
        self._m_checkpoint.observe(self.last_checkpoint_seconds)
        self._prune(seq)
        return seq

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.data_dir, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _prune(self, current_seq: int) -> None:
        """Retain the newest :data:`KEEP_CHECKPOINTS` checkpoints, and every
        journal a fallback to the oldest retained checkpoint could need."""
        ckpts, wals = self._scan_dir()
        retained = sorted(ckpts)[-KEEP_CHECKPOINTS:]
        keep_wals_from = min(retained) if retained else 0
        for seq in ckpts:
            if seq not in retained:
                self._remove_quietly(
                    os.path.join(self.data_dir, f"ckpt-{seq}.bin")
                )
        for seq in wals:
            if seq < keep_wals_from:
                self._remove_quietly(
                    os.path.join(self.data_dir, f"wal-{seq}.log")
                )

    def _scan_dir(self) -> Tuple[List[int], List[int]]:
        ckpts: List[int] = []
        wals: List[int] = []
        for name in os.listdir(self.data_dir):
            match = _CKPT_NAME.match(name)
            if match:
                ckpts.append(int(match.group(1)))
                continue
            match = _WAL_NAME.match(name)
            if match:
                wals.append(int(match.group(1)))
        return ckpts, wals

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryInfo:
        """Load the newest valid checkpoint, replay journals, reopen.

        Raises :class:`DurabilityError`, keeping the checkpoint, when
        one cannot be read or has a format this version does not know
        (see :meth:`_load_checkpoint`)."""
        if self._recovered:
            raise DurabilityError("recover() may only run once per store")
        started = time.perf_counter()
        # Sweep temp files first: a crash mid-checkpoint leaves
        # ckpt-*.bin.tmp that must never be mistaken for state.
        for name in os.listdir(self.data_dir):
            if name.endswith(".tmp"):
                self._remove_quietly(os.path.join(self.data_dir, name))
        ckpts, wals = self._scan_dir()
        info = RecoveryInfo()
        manifest: Optional[dict] = None
        ckpt_seq = 0
        entries: List[CacheEntry] = []
        for seq in sorted(ckpts, reverse=True):
            manifest = self._load_checkpoint(seq)
            if manifest is not None:
                ckpt_seq = seq
                break
            # Invalid/torn checkpoint: drop it so it can never shadow
            # an older valid one on the next startup.
            self._remove_quietly(
                os.path.join(self.data_dir, f"ckpt-{seq}.bin")
            )
        if manifest is not None:
            for entry in manifest.get("plans", ()):
                self._plans[entry["id"]] = entry["source"]
            self._kb = list(manifest.get("kb", ()))
            # Format 1 cache rows hold term ids into its image blob,
            # which is not read: those plans re-match once.
            if manifest["format"] != 1:
                # Format 3 names each entry's query by its index into
                # ``queries``; format 2 holds the text itself.  A
                # manifest with a ``revisions`` table was written with a
                # plan revision in each version's high 32 bits: keep the
                # graph's own version, the low 32.
                queries = manifest.get("queries")
                mask = 0xFFFFFFFF if "revisions" in manifest else -1
                for entry in manifest.get("cache", ()):
                    query = entry["query"]
                    entries.append(
                        CacheEntry(
                            plan_id=entry["plan"],
                            version=int(entry["version"]) & mask,
                            query=query if queries is None else queries[query],
                            rows=entry["rows"],
                        )
                    )

        # Chain-replay every retained journal from the checkpoint's
        # sequence forward.  Only the newest journal may legitimately be
        # torn (it was the append target at crash time); a torn older
        # journal ends the chain — records beyond it are gone, and later
        # journals assume state we no longer have.
        replay = sorted(seq for seq in wals if seq >= ckpt_seq)
        current_seq = max([ckpt_seq] + wals) if (wals or ckpt_seq) else 0
        rewritten = set()
        for wal_seq in replay:
            path = os.path.join(self.data_dir, f"wal-{wal_seq}.log")
            scan = _wal.scan_wal(path)
            for record in scan.records:
                written = self._apply(record)
                if written is not None:
                    info.replayed_records += 1
                    rewritten.update(written)
            if scan.truncated:
                info.truncated_bytes += scan.total_bytes - scan.valid_bytes
                _wal.truncate_wal(path, scan.valid_bytes)
                if wal_seq != replay[-1]:
                    break

        info.checkpoint_seq = ckpt_seq
        info.plans = list(self._plans.items())
        # A plan the journal tail adds or replaces is not the one its
        # checkpointed results were matched against.
        info.cache_entries = [
            entry for entry in entries if entry.plan_id not in rewritten
        ]
        info.kb_entries = list(self._kb)
        self.checkpoint_seq = max(ckpt_seq, current_seq)
        try:
            self._writer = WalWriter(
                os.path.join(self.data_dir, f"wal-{current_seq}.log"),
                fsync=self.fsync_policy,
            )
        except OSError as exc:
            self._fail(
                f"journal open failed: {exc}", kind=failure_kind(exc.errno)
            )
        self._recovered = True
        # Replayed records are work the next checkpoint should absorb.
        self.records_since_checkpoint = info.replayed_records
        info.seconds = time.perf_counter() - started
        self.last_recovery = {
            "checkpointSeq": info.checkpoint_seq,
            "replayedRecords": info.replayed_records,
            "truncatedBytes": info.truncated_bytes,
            "plans": len(info.plans),
            "seconds": round(info.seconds, 6),
        }
        self._set_state_gauge()
        return info

    def _load_checkpoint(self, seq: int) -> Optional[dict]:
        """Validate ``ckpt-<seq>.bin`` and return its manifest; None
        when it is torn or corrupt.  A file that cannot be read, or
        whose format this version does not know, raises
        :class:`DurabilityError` instead: it may hold the newest state,
        so recovery must neither skip nor delete it.  A format 1 file's
        trailing blob is not read."""
        path = os.path.join(self.data_dir, f"ckpt-{seq}.bin")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise DurabilityError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        header_size = len(CKPT_MAGIC) + _CKPT_HEADER.size
        if len(data) < header_size or not data.startswith(CKPT_MAGIC):
            return None
        length, crc = _CKPT_HEADER.unpack_from(data, len(CKPT_MAGIC))
        start = header_size
        end = start + length
        if end > len(data):
            return None
        manifest_bytes = data[start:end]
        if zlib.crc32(manifest_bytes) != crc:
            return None
        try:
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("format") not in _CKPT_FORMATS:
            raise DurabilityError(
                f"checkpoint {path} has unknown format "
                f"{manifest.get('format')!r}"
            )
        return manifest

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            self._writer = None
