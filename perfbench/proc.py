"""The server under test, run as its own process.

``python -m repro.cli serve --async`` on an ephemeral port with a
durable data directory.  The benchmark learns the port from the
server's "listening on" line, polls ``GET /health`` until it reads
``ok``, reads peak RSS from ``/proc/<pid>/status`` and always stops the
process (SIGTERM, which takes the final checkpoint; SIGKILL after a
grace period) and waits for it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

import wire

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")
START_TIMEOUT_S = 120.0


class ServerProcess:
    def __init__(self, data_dir: str):
        self.data_dir = data_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYTHONUNBUFFERED"] = "1"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--async",
             "--port", "0", "--data-dir", data_dir, "--fsync-mode", "batch"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.port: Optional[int] = None
        self._stderr: List[bytes] = []
        self._stderr_thread = threading.Thread(target=self._drain_stderr, daemon=True)
        self._stderr_thread.start()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def wait_ready(self) -> float:
        """Block until ``/health`` says ``ok``; returns seconds since launch."""
        deadline = self.started + START_TIMEOUT_S
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening: " + self.stderr_tail())
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(1))
        while True:
            try:
                if wire.get_json(self.port, "/health").get("status") == "ok":
                    return time.perf_counter() - self.started
            except wire.RequestFailed:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never became healthy: " + self.stderr_tail())
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stderr_tail(self) -> str:
        return b"".join(self._stderr[-20:]).decode("utf-8", "replace")

    def stop(self, kill: bool = False, timeout: float = 120.0) -> None:
        """SIGTERM (graceful: drain + final checkpoint) or SIGKILL, then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr_thread.join(timeout=10)
        self.proc.stderr.close()


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
