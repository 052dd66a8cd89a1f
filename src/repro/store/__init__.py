"""Durable workload persistence: write-ahead journal + checkpoints.

``repro.store.wal`` is the CRC32-checksummed, length-prefixed journal;
``repro.store.durable`` composes it with atomic checkpoints of the
logical workload state and crash recovery.  See docs/durability.md for
formats, fsync modes and the recovery/ops runbook.
"""

from repro.store.durable import (
    DEFAULT_CHECKPOINT_EVERY,
    CacheEntry,
    DurabilityError,
    DurableStore,
    RecoveryInfo,
)
from repro.store.wal import (
    FSYNC_POLICIES,
    WalError,
    WalScan,
    WalWriter,
    decode_records,
    encode_record,
    scan_wal,
    truncate_wal,
)

__all__ = [
    "CacheEntry",
    "DEFAULT_CHECKPOINT_EVERY",
    "DurabilityError",
    "DurableStore",
    "FSYNC_POLICIES",
    "RecoveryInfo",
    "WalError",
    "WalScan",
    "WalWriter",
    "decode_records",
    "encode_record",
    "scan_wal",
    "truncate_wal",
]
