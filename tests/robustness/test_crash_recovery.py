"""kill -9 crash-recovery harness (the PR's headline acceptance test).

A child process (:mod:`tests.robustness._crash_child`) ingests plans
into a durable facade, printing ``ACK <plan_id>`` after each journal
fsync.  The parent kills it — with SIGKILL mid-ingest, or via chaos
``kill=True`` at the surgical sites (``wal.append``,
``checkpoint.rename``) — then recovers the data directory and asserts:

* every ACKed plan survives (the durability contract);
* a torn trailing record is truncated, never resurrected;
* search results over the recovered workload are bit-identical to a
  control that never crashed (compared through the server's canonical
  JSON projection);
* checkpointed match-cache entries re-arm the engine (delta
  invalidation), so recovery is warm, not just correct.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.optimatch import OptImatch
from repro.qep.writer import write_plan
from repro.server import _matches_to_json
from repro.testing.chaos import KILL_EXIT_CODE
from repro.workload import generate_workload

from tests.robustness._crash_child import SPARQL

CHILD = os.path.join(os.path.dirname(__file__), "_crash_child.py")

#: Upper bound on any child phase; generous because CI machines crawl.
CHILD_TIMEOUT = 120.0


@pytest.fixture()
def workload_dir(tmp_path):
    directory = tmp_path / "workload"
    directory.mkdir()
    for plan in generate_workload(6, seed=29, size_sampler=lambda rng: 8):
        (directory / f"{plan.plan_id}.exfmt").write_text(write_plan(plan))
    return directory


def spawn_child(data_dir, workload_dir, *extra):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-u", CHILD, str(data_dir), str(workload_dir), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def read_until(proc, prefix, count=1, timeout=CHILD_TIMEOUT):
    """Collect *count* stdout lines starting with *prefix*."""
    deadline = time.monotonic() + timeout
    seen = []
    while len(seen) < count:
        assert time.monotonic() < deadline, (
            f"child produced {len(seen)}/{count} {prefix!r} lines in time"
        )
        line = proc.stdout.readline()
        if not line:
            pytest.fail(
                f"child stdout closed early; stderr: {proc.stderr.read()}"
            )
        if line.startswith(prefix):
            seen.append(line.strip())
    return seen


def recovered_tool(data_dir) -> OptImatch:
    return OptImatch(workers=1, data_dir=str(data_dir), fsync="async")


def canonical_results(tool) -> str:
    return json.dumps(_matches_to_json(tool.search(SPARQL)), sort_keys=True)


def control_results(workload_dir, plan_ids) -> str:
    control = OptImatch(workers=1)
    try:
        for plan_id in plan_ids:
            control.load_explain_file(
                os.path.join(str(workload_dir), f"{plan_id}.exfmt")
            )
        return canonical_results(control)
    finally:
        control.close()


class TestSigkillMidIngest:
    def test_acked_plans_survive_sigkill(self, tmp_path, workload_dir):
        data_dir = tmp_path / "data"
        proc = spawn_child(data_dir, workload_dir, "--fsync", "fsync")
        try:
            acked = [
                line.split(" ", 1)[1]
                for line in read_until(proc, "ACK", count=3)
            ]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        tool = recovered_tool(data_dir)
        try:
            recovered_ids = [t.plan_id for t in tool.workload]
            # Durability contract: every ACK survives.  The child may
            # have journaled more before SIGKILL landed — that's fine.
            assert set(acked) <= set(recovered_ids)
            assert canonical_results(tool) == control_results(
                workload_dir, recovered_ids
            )
        finally:
            tool.close()

    def test_results_bit_identical_after_full_ingest_crash(
        self, tmp_path, workload_dir
    ):
        data_dir = tmp_path / "data"
        proc = spawn_child(
            data_dir, workload_dir, "--fsync", "fsync", "--search"
        )
        try:
            read_until(proc, "SEARCHED")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        tool = recovered_tool(data_dir)
        try:
            recovered_ids = [t.plan_id for t in tool.workload]
            assert len(recovered_ids) == 6
            # The child checkpointed after searching: recovery re-arms
            # the whole cache (delta = nothing changed), so the search
            # below is served from seeded entries.
            assert tool.stats()["matchCache"]["seeded"] == 6
            assert canonical_results(tool) == control_results(
                workload_dir, recovered_ids
            )
            stats = tool.stats()["matchCache"]
            assert stats["hits"] == 6 and stats["misses"] == 0
        finally:
            tool.close()


class TestSigkillMidStream:
    """kill -9 a server mid ``POST /plans/stream?ack=sync``.

    Every ack line the client read was preceded by a journal fsync, so
    after SIGKILL the recovered workload must contain every acked plan;
    it may additionally contain later batches that were journaled but
    not yet acked — never anything that was not sent.
    """

    STREAM_CHILD = os.path.join(os.path.dirname(__file__), "_stream_child.py")

    def _spawn_server(self, data_dir):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        return subprocess.Popen(
            [sys.executable, "-u", self.STREAM_CHILD, str(data_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def test_acked_stream_batches_survive_sigkill(self, tmp_path, workload_dir):
        import socket

        data_dir = tmp_path / "data"
        proc = self._spawn_server(data_dir)
        try:
            port = int(read_until(proc, "PORT")[0].split(" ", 1)[1])
            names = sorted(
                name[: -len(".exfmt")]
                for name in os.listdir(workload_dir)
                if name.endswith(".exfmt")
            )
            sent = []
            acked = []
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            reader = sock.makefile("rb")
            try:
                sock.sendall(
                    b"POST /plans/stream?ack=sync&batch=1 HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/x-ndjson\r\n"
                    b"Transfer-Encoding: chunked\r\n"
                    b"\r\n"
                )
                for index, name in enumerate(names[:4]):
                    text = (workload_dir / f"{name}.exfmt").read_text()
                    line = json.dumps(
                        {"plan": text, "id": name}
                    ).encode("utf-8") + b"\n"
                    sock.sendall(b"%x\r\n%s\r\n" % (len(line), line))
                    sent.append(name)
                    if index == 0:
                        # Headers ride out with the first ack.
                        status_line = reader.readline()
                        assert b"200" in status_line, status_line
                        while reader.readline() not in (b"\r\n", b"\n", b""):
                            pass
                    ack = json.loads(reader.readline())
                    assert ack["synced"] is True
                    acked.extend(ack["planIds"])
                # Mid-stream, acks in hand, torn request body: SIGKILL.
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
            finally:
                reader.close()
                sock.close()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        assert len(acked) == 4
        tool = recovered_tool(data_dir)
        try:
            recovered_ids = {t.plan_id for t in tool.workload}
            # Durability contract, both directions: every synced ack
            # survived, and nothing that was never sent materialized.
            assert set(acked) <= recovered_ids <= set(sent)
            assert canonical_results(tool) == control_results(
                workload_dir, sorted(recovered_ids)
            )
        finally:
            tool.close()


class TestChaosKillSites:
    def test_kill_at_wal_append_loses_only_that_record(
        self, tmp_path, workload_dir
    ):
        data_dir = tmp_path / "data"
        victims = sorted(
            name[: -len(".exfmt")]
            for name in os.listdir(workload_dir)
            if name.endswith(".exfmt")
        )
        victim = victims[3]  # die appending the 4th plan's record
        proc = spawn_child(
            data_dir,
            workload_dir,
            "--fsync", "fsync",
            "--kill-site", "wal.append",
            "--kill-key", victim,
        )
        try:
            acked = [
                line.split(" ", 1)[1]
                for line in read_until(proc, "ACK", count=3)
            ]
            assert proc.wait(timeout=CHILD_TIMEOUT) == KILL_EXIT_CODE
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        tool = recovered_tool(data_dir)
        try:
            recovered_ids = [t.plan_id for t in tool.workload]
            assert recovered_ids == acked == victims[:3]
            assert canonical_results(tool) == control_results(
                workload_dir, recovered_ids
            )
        finally:
            tool.close()

    def test_kill_at_checkpoint_rename_replays_journal(
        self, tmp_path, workload_dir
    ):
        data_dir = tmp_path / "data"
        proc = spawn_child(
            data_dir,
            workload_dir,
            "--fsync", "fsync",
            "--search",  # triggers the checkpoint that dies mid-rename
            "--kill-site", "checkpoint.rename",
        )
        try:
            read_until(proc, "ACK", count=6)
            assert proc.wait(timeout=CHILD_TIMEOUT) == KILL_EXIT_CODE
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        # The crash left ckpt-1.bin.tmp (never renamed); recovery must
        # sweep it and rebuild everything from the journal.
        assert list(data_dir.glob("ckpt-*.bin")) == []
        tool = recovered_tool(data_dir)
        try:
            assert not list(data_dir.glob("*.tmp"))
            recovered_ids = [t.plan_id for t in tool.workload]
            assert len(recovered_ids) == 6
            assert canonical_results(tool) == control_results(
                workload_dir, recovered_ids
            )
        finally:
            tool.close()


class TestGracefulControl:
    def test_clean_close_recovers_identically(self, tmp_path, workload_dir):
        """Control arm: no crash at all — same assertions must hold."""
        data_dir = tmp_path / "data"
        proc = spawn_child(
            data_dir, workload_dir, "--fsync", "batch", "--close"
        )
        try:
            read_until(proc, "CLOSED")
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        tool = recovered_tool(data_dir)
        try:
            recovered_ids = [t.plan_id for t in tool.workload]
            assert len(recovered_ids) == 6
            # close() checkpointed: the journal tail is empty.
            assert (
                tool.durability_status()["recovery"]["replayedRecords"] == 0
            )
            assert canonical_results(tool) == control_results(
                workload_dir, recovered_ids
            )
        finally:
            tool.close()
