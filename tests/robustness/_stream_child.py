"""Child process for the kill -9 mid-stream harness.

Starts a durable server on an ephemeral port, waits until
``/health`` reports ``ok``, prints ``PORT <port>``, then parks forever —
the parent streams plans at it over ``POST /plans/stream?ack=sync`` and
SIGKILLs this process mid-stream.  Every ack the parent received before
the kill was preceded by a journal fsync, so the acked plans must
survive recovery of the data directory.

``start()`` only launches the background journal recovery, and until
it finishes ingest answers ``503 recovering``; announcing the port
before that would let the parent's first streamed line race it.

Usage: ``python _stream_child.py DATA_DIR``
"""

import http.client
import json
import sys
import time

#: How long recovery of the (small) data directory may take.
READY_DEADLINE_S = 60.0


def wait_until_ok(port: int) -> None:
    """Poll ``GET /health`` until its status is ``ok`` (or give up)."""
    deadline = time.monotonic() + READY_DEADLINE_S
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/health")
            status = json.loads(conn.getresponse().read()).get("status")
        finally:
            conn.close()
        if status == "ok":
            return
        if time.monotonic() > deadline:
            raise SystemExit(f"server not ready: /health says {status!r}")
        time.sleep(0.01)


def main() -> None:
    data_dir = sys.argv[1]

    from repro.server import AsyncOptImatchServer

    server = AsyncOptImatchServer(
        port=0,
        workers=1,
        data_dir=data_dir,
        fsync_mode="batch",  # ack=sync forces the fsync per batch anyway
    )
    server.start()
    port = server.address[1]
    wait_until_ok(port)
    print(f"PORT {port}", flush=True)
    while True:  # parked: the parent SIGKILLs us
        time.sleep(3600)


if __name__ == "__main__":
    main()
