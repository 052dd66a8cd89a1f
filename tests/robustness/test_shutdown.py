"""Graceful shutdown: resource release and the CLI SIGTERM path.

Two regressions pinned here:

* ``AsyncOptImatchServer.stop()`` must release the process-mode
  shared-memory snapshot segment — an earlier CLI path leaked
  ``/dev/shm/psm_*`` segments on SIGTERM because it tore the process
  down without closing the engine;
* ``repro.cli serve`` must treat SIGTERM like Ctrl-C: exit 0 after a
  full graceful shutdown, including the final durability checkpoint.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.optimatch import OptImatch
from repro.qep.writer import write_plan
from repro.server import AsyncOptImatchServer
from repro.workload import generate_workload


def shm_segments():
    if not os.path.isdir("/dev/shm"):
        return None
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestSharedMemoryRelease:
    def test_server_stop_releases_process_mode_segments(self):
        before = shm_segments()
        if before is None:
            pytest.skip("/dev/shm not available on this platform")
        srv = AsyncOptImatchServer(port=0, workers=2)
        try:
            if srv.state.tool.engine.mode != "process":
                pytest.skip("process mode unavailable (fork/posix shm)")
            srv.start()
            for plan in generate_workload(2, seed=7, size_sampler=lambda rng: 8):
                srv.state.tool.add_plan(plan)
        finally:
            srv.stop(drain_seconds=2.0)
        assert shm_segments() <= before  # no new segments leaked


class TestCliSigterm:
    def test_serve_sigterm_exits_zero_and_checkpoints(self, tmp_path):
        workload = tmp_path / "workload"
        workload.mkdir()
        for plan in generate_workload(3, seed=17, size_sampler=lambda rng: 8):
            (workload / f"{plan.plan_id}.exfmt").write_text(write_plan(plan))
        data_dir = tmp_path / "data"

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0",
                "--workload", str(workload),
                "--data-dir", str(data_dir),
                "--fsync-mode", "async",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            line = ""
            while "listening on" not in line:
                assert time.monotonic() < deadline, "server never came up"
                line = proc.stdout.readline()
                if not line:
                    pytest.fail(
                        f"serve exited early: {proc.stderr.read()}"
                    )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()

        # The graceful path wrote a final checkpoint: recovery replays
        # nothing and sees the full --workload ingest.
        assert list(data_dir.glob("ckpt-*.bin"))
        assert not list(data_dir.glob("*.tmp"))
        tool = OptImatch(workers=1, data_dir=str(data_dir), fsync="async")
        try:
            assert tool.plan_count == 3
            assert tool.durability_status()["recovery"]["replayedRecords"] == 0
        finally:
            tool.close()
