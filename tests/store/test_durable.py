"""DurableStore: checkpoints, chain replay, fallback, pruning, failure.

These tests drive the store directly (no facade, no engine), so every
recovery path — empty dir, journal-only, checkpoint + tail, torn tail,
corrupt checkpoint fallback — is pinned at the layer that owns it.
"""

import os

import pytest

from repro.store import (
    CacheEntry,
    DurabilityError,
    DurableStore,
    compose_version,
    scan_wal,
    split_version,
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
        store.record_plans([("p1", 1, "SRC1")])
        store.record_plans([("p2", 1, "SRC2")])
        store.record_plans([("p1", 2, "SRC1b")])
        store.record_remove("p2")
        store.record_kb_entry({"name": "entry"})
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert info.plans == [("p1", 2, "SRC1b")]
        assert info.kb_entries == [{"name": "entry"}]
        assert again.revisions == {"p1": 2, "p2": 1}
        again.close()

    def test_batch_add_is_one_journal_record(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("a", 1, "SA"), ("b", 1, "SB"), ("c", 1, "SC")])
        store.close()
        scan = scan_wal(str(tmp_path / "wal-0.log"))
        assert len(scan.records) == 1
        assert scan.records[0]["op"] == "add_batch"

        again = DurableStore(str(tmp_path))
        assert [p[0] for p in again.recover().plans] == ["a", "b", "c"]
        again.close()

    def test_revisions_survive_remove_and_clear(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p", 1, "S1")])
        store.record_remove("p")
        store.record_plans([("p", 2, "S2")])
        store.record_clear()
        store.record_plans([("p", 3, "S3")])
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert info.plans == [("p", 3, "S3")]
        assert again.revisions == {"p": 3}
        again.close()

    def test_composed_versions_differ_across_revisions(self):
        low = compose_version(1, 42)
        high = compose_version(2, 42)
        assert low != high
        assert split_version(high) == (2, 42)


class TestCheckpointRecovery:
    def test_checkpoint_plus_tail_replay(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", 1, "S1")])
        rows = [[["TOP", 3], ["BASE", "SCHEMA.T1"]]]
        seq = store.checkpoint(
            [{"plan": "p1", "version": compose_version(1, 7),
              "query": "Q", "rows": rows}]
        )
        assert seq == 1
        store.record_plans([("p2", 1, "S2")])  # tail: journaled after the ckpt
        store.close()

        again = DurableStore(str(tmp_path))
        info = again.recover()
        assert [p[0] for p in info.plans] == ["p1", "p2"]
        assert info.checkpoint_seq == 1
        assert info.replayed_records == 1
        assert info.cache_entries == [
            CacheEntry("p1", compose_version(1, 7), "Q", rows)
        ]
        again.close()

    def test_torn_tail_is_truncated_on_disk(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", 1, "S1")])
        store.record_plans([("p2", 1, "S2")])
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
        again.record_plans([("p3", 1, "S3")])  # journal accepts appends again
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
        store.record_plans([("p1", 1, "S1")])
        store.checkpoint()  # ckpt-1
        store.record_plans([("p2", 1, "S2")])
        store.checkpoint()  # ckpt-2
        store.record_plans([("p3", 1, "S3")])  # tail in wal-2
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

    def test_pruning_keeps_newest_two_and_their_journals(self, tmp_path):
        store = opened(tmp_path)
        for index in range(4):
            store.record_plans([(f"p{index}", 1, f"S{index}")])
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
        store.record_plans([("p1", 1, "S1")])
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


class TestFailureDegradation:
    def test_journal_failure_degrades_to_read_only(self, tmp_path):
        store = opened(tmp_path)
        store.record_plans([("p1", 1, "S1")])
        with chaos.injected("wal.append", exc=OSError("device gone")):
            with pytest.raises(DurabilityError):
                store.record_plans([("p2", 1, "S2")])
        assert store.read_only and store.state == "read_only"
        assert "failure" in store.status()
        # Every further mutation refuses — even with chaos disarmed.
        with pytest.raises(DurabilityError):
            store.record_plans([("p3", 1, "S3")])
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
            store.record_plans([("p", 1, "S")])
        store.close()

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DurableStore(str(tmp_path), fsync="sometimes")
