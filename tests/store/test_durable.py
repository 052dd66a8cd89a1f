"""DurableStore: checkpoints, chain replay, fallback, pruning, failure.

These tests drive the store directly (no facade, no engine), so every
recovery path — empty dir, journal-only, checkpoint + tail, torn tail,
corrupt checkpoint fallback — is pinned at the layer that owns it.
"""

import errno
import json
import os
import struct
import zlib

import pytest

from repro.store import (
    CacheEntry,
    DurabilityError,
    DurableStore,
    WalWriter,
    durable,
    scan_wal,
)
from repro.testing import chaos


def opened(data_dir, **kwargs) -> DurableStore:
    store = DurableStore(str(data_dir), fsync="async", **kwargs)
    store.recover()
    return store


class TestJournalOnlyRecovery:
    def test_empty_directory_recovers_empty(self, tmp_path):
        store = DurableStore(str(tmp_path))
        info = store.recover()
        assert info.plans == [] and info.checkpoint_seq == 0
        assert store.state == "ready"
        store.close()

    def test_mutations_replay_without_checkpoint(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "SRC1")])
        store.record_plans([("p2", "SRC2")])
        store.record_plans([("p1", "SRC1b")])
        store.record_remove("p2")
        store.record_kb_entry({"name": "entry"})
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert info.plans == [("p1", "SRC1b")]
        assert info.kb_entries == [{"name": "entry"}]
        again.close()

    def test_batch_add_is_one_journal_record(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("a", "SA"), ("b", "SB"), ("c", "SC")])
        store.close()
        scan = scan_wal(str(tmp_path / "wal-0.log"))
        assert len(scan.records) == 1
        assert scan.records[0]["op"] == "add_batch"

        again = DurableStore(str(tmp_path))
        assert [p[0] for p in again.recover().plans] == ["a", "b", "c"]
        again.close()

    def test_revisions_survive_remove_and_clear(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p", "S1")])
        store.record_remove("p")
        store.record_plans([("p", "S2")])
        store.record_clear()
        store.record_plans([("p", "S3")])
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert info.plans == [("p", "S3")]
        again.close()


class TestCheckpointRecovery:
    def test_checkpoint_plus_tail_replay(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        rows = [[["TOP", 3], ["BASE", "SCHEMA.T1"]]]
        seq = store.checkpoint(
            [{"plan": "p1", "version": 7, "query": "Q", "rows": rows}]
        )
        assert seq == 1
        store.record_plans([("p2", "S2")])  # tail: journaled after the ckpt
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [p[0] for p in info.plans] == ["p1", "p2"]
        assert info.checkpoint_seq == 1
        assert info.replayed_records == 1
        assert info.cache_entries == [
            CacheEntry("p1", 7, "Q", rows)
        ]
        again.close()

    def test_torn_tail_is_truncated_on_disk(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        store.record_plans([("p2", "S2")])
        store.close()
        wal_path = tmp_path / "wal-0.log"
        clean_size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x09\x00\x00\x00torn-garbage")

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [p[0] for p in info.plans] == ["p1", "p2"]
        assert info.truncated_bytes > 0
        assert os.path.getsize(wal_path) == clean_size  # physically repaired
        again.record_plans([("p3", "S3")])  # journal accepts appends again
        again.close()
        third = DurableStore(str(tmp_path))
        assert [p[0] for p in third.recover().plans] == ["p1", "p2", "p3"]
        third.close()

    def test_stray_tmp_files_are_swept(self, tmp_path):
        (tmp_path / "ckpt-9.bin.tmp").write_bytes(b"half a checkpoint")
        store = opened(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        store.close()

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        store.checkpoint()  # ckpt-1
        store.record_plans([("p2", "S2")])
        store.checkpoint()  # ckpt-2
        store.record_plans([("p3", "S3")])  # tail in wal-2
        store.close()

        # Corrupt ckpt-2's manifest: recovery must fall back to ckpt-1
        # and still see p2 and p3 by chain-replaying wal-1 then wal-2.
        path = tmp_path / "ckpt-2.bin"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [p[0] for p in info.plans] == ["p1", "p2", "p3"]
        assert info.checkpoint_seq == 1
        assert not (tmp_path / "ckpt-2.bin").exists()  # deleted, not shadowing
        again.close()

    def test_unreadable_checkpoint_is_refused_and_kept(
        self, tmp_path, monkeypatch
    ):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1"), ("p2", "S2"), ("p3", "S3")])
        store.checkpoint()  # ckpt-1; wal-0 is pruned
        store.record_plans([("p4", "S4")])  # tail in wal-1
        store.close()
        assert not (tmp_path / "wal-0.log").exists()

        failed = []

        def open_failing_once(path, *args, **kwargs):
            if path.endswith("ckpt-1.bin") and not failed:
                failed.append(path)
                raise OSError(errno.EIO, os.strerror(errno.EIO), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(durable, "open", open_failing_once, raising=False)
        faulty = DurableStore(str(tmp_path))
        with pytest.raises(DurabilityError, match="ckpt-1.bin"):
            faulty.recover()
        faulty.close()
        assert failed and (tmp_path / "ckpt-1.bin").exists()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [p[0] for p in info.plans] == ["p1", "p2", "p3", "p4"]
        assert info.checkpoint_seq == 1
        again.close()

    def test_unknown_format_is_refused_and_kept(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        store.checkpoint()  # ckpt-1
        store.checkpoint()  # ckpt-2, rewritten below by a newer version
        store.close()
        manifest = json.dumps({"format": 99, "seq": 2}).encode("utf-8")
        path = tmp_path / "ckpt-2.bin"
        path.write_bytes(
            durable.CKPT_MAGIC
            + struct.pack("<II", len(manifest), zlib.crc32(manifest))
            + manifest
        )
        written = path.read_bytes()

        again = DurableStore(str(tmp_path))
        with pytest.raises(DurabilityError, match="unknown format 99"):
            again.recover()
        again.close()
        assert path.read_bytes() == written
        assert (tmp_path / "ckpt-1.bin").exists()

    def test_pruning_keeps_newest_two_and_their_journals(self, tmp_path):
        store = opened(tmp_path)
        for index in range(4):
            store.record_plans([(f"p{index}", f"S{index}")])
            store.checkpoint()
        store.close()
        ckpts = sorted(p.name for p in tmp_path.glob("ckpt-*.bin"))
        wals = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        assert ckpts == ["ckpt-3.bin", "ckpt-4.bin"]
        assert all(int(name[4:-4]) >= 3 for name in wals)

        again = DurableStore(str(tmp_path))
        assert len(again.recover().plans) == 4
        again.close()

    def test_crash_before_rename_preserves_previous_state(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        with chaos.injected("checkpoint.rename", exc=RuntimeError("crash")):
            with pytest.raises(DurabilityError):
                store.checkpoint()
        # Nothing renamed, no temp litter, journal still authoritative.
        assert not list(tmp_path.glob("ckpt-*.bin"))
        assert not list(tmp_path.glob("*.tmp"))
        store.close()

        again = DurableStore(str(tmp_path))
        assert [p[0] for p in again.recover().plans] == ["p1"]
        again.close()


class TestTailRewrites:
    """Recovery drops the checkpointed results of every plan a replayed
    journal record adds or replaces, whatever record shape wrote it."""

    @staticmethod
    def checkpointed(tmp_path, plan_ids):
        store = opened(tmp_path)
        store.record_plans([(plan_id, "S") for plan_id in plan_ids])
        store.checkpoint(
            [
                {"plan": plan_id, "version": 7, "query": "Q", "rows": []}
                for plan_id in plan_ids
            ]
        )
        return store

    def test_added_or_replaced_plans_lose_their_results(self, tmp_path):
        store = self.checkpointed(tmp_path, ["a", "b", "c", "d"])
        store.record_plans([("b", "S2")])
        store.record_remove("c")
        store.record_remove("d")
        store.record_plans([("d", "S2")])
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [plan_id for plan_id, _ in info.plans] == ["a", "b", "d"]
        # c is removed: its entry stays, and names no recovered plan.
        assert [e.plan_id for e in info.cache_entries] == ["a", "c"]
        again.close()

    def test_older_record_shapes_count_as_rewrites(self, tmp_path):
        self.checkpointed(tmp_path, ["a", "b", "c"]).close()
        writer = WalWriter(str(tmp_path / "wal-1.log"), fsync="async")
        writer.append({"op": "replace", "plan": "a", "rev": 2, "source": "S2"})
        writer.append({"op": "add_batch", "plans": [["b", 2, "S2"]]})
        writer.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert info.plans == [("a", "S2"), ("b", "S2"), ("c", "S")]
        assert [e.plan_id for e in info.cache_entries] == ["c"]
        again.close()


class TestFailureDegradation:
    def test_journal_failure_degrades_to_read_only(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", "S1")])
        with chaos.injected("wal.append", exc=OSError("device gone")):
            with pytest.raises(DurabilityError):
                store.record_plans([("p2", "S2")])
        assert store.read_only and store.state == "read_only"
        assert "failure" in store.status()
        # Every further mutation refuses — even with chaos disarmed.
        with pytest.raises(DurabilityError):
            store.record_plans([("p3", "S3")])
        with pytest.raises(DurabilityError):
            store.checkpoint()
        store.close()

        # The journaled prefix is still fully recoverable.
        again = DurableStore(str(tmp_path))
        assert [p[0] for p in again.recover().plans] == ["p1"]
        again.close()

    def test_recover_runs_once(self, tmp_path):
        store = opened(tmp_path)
        with pytest.raises(DurabilityError):
            store.recover()
        store.close()

    def test_mutation_before_recovery_raises(self, tmp_path):
        store = DurableStore(str(tmp_path))
        assert store.state == "recovering"
        with pytest.raises(DurabilityError):
            store.record_plans([("p", "S")])
        store.close()

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DurableStore(str(tmp_path), fsync="sometimes")
