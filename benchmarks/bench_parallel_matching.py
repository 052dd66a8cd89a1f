"""Process scale-out: speedup of the multiprocess matching tier.

More than one worker escapes the GIL by evaluating plans in pool
workers over zero-copy shared-memory graph snapshots
(``docs/scale-out.md``).  This check measures the tier against the
serial matcher on the Figure 9 workload at scale 0.1, records per
worker count the speedup and the snapshot build/attach amortization
(the ``process_scaleout`` section of ``reports/BENCH_matching.json``),
and asserts that every worker count returns the serial matches.  On
hosts with at least 4 CPUs it also asserts >=1.6x at 4 workers;
elsewhere that bar is report-only, with a note.  It stays here until
the repository benchmark (``perfbench/``) measures a process-pool arm.
"""

import os
import time

import pytest

from benchmarks.conftest import write_json_report, write_report
from repro.core import mpexec
from repro.core.engine import MatchingEngine
from repro.core.matcher import find_matches
from repro.kb.builtin import builtin_sparql

WORKER_COUNTS = [1, 2, 4]


def _signatures(matches):
    return [
        (m.plan_id, [o.signature() for o in m.occurrences]) for m in matches
    ]


@pytest.fixture(scope="module")
def sparql():
    return builtin_sparql("A")


@pytest.mark.skipif(
    not mpexec.available(), reason="POSIX shared memory unavailable"
)
def test_process_scaleout_report(workload, sparql):
    """Multiprocess tier: speedup per worker count + snapshot amortization.

    Measures the process tier against the serial matcher on the same
    workload and records, per worker count, the cold evaluation time,
    the speedup vs. serial, and how the one-time snapshot build and the
    per-worker attach amortize over repeated searches.
    """
    cpus = os.cpu_count() or 1

    def once(fn, *args, **kwargs):
        start = time.perf_counter()
        fn(*args, **kwargs)
        return time.perf_counter() - start

    serial_s = min(once(find_matches, sparql, workload) for _ in range(3))
    serial_matches = _signatures(find_matches(sparql, workload))

    lines = [
        "Process scale-out: shared-memory snapshots + multiprocess pool "
        f"({len(workload)} plans, host cpus={cpus})",
        f"  serial find_matches:          {serial_s * 1e3:8.1f} ms",
    ]
    by_workers = {}
    for workers in WORKER_COUNTS:
        engine = MatchingEngine(workers=workers, cache=False)
        try:
            timings = [
                once(engine.search, sparql, workload) for _ in range(3)
            ]
            assert _signatures(engine.search(sparql, workload)) == (
                serial_matches
            ), f"process pool (workers={workers}) diverged from serial"
            stats = engine.stats()
        finally:
            engine.close()
        cold = min(timings)
        snap = stats["snapshot"]
        by_workers[workers] = {
            "totalSeconds": round(cold, 6),
            "plansPerSecond": round(len(workload) / cold, 2),
            "speedupVsSerial": round(serial_s / cold, 3),
            "mode": stats["mode"],  # "serial" = fell back to serial path
            "snapshotBuilds": snap["builds"],
            "snapshotBuildSeconds": round(snap["buildSeconds"], 6),
            "snapshotAttaches": snap["attaches"],
            "snapshotAttachSeconds": round(snap["attachSeconds"], 6),
        }
        lines.append(
            f"  mp-workers={workers} (cold):        {cold * 1e3:8.1f} ms "
            f"(speedup vs serial: {serial_s / cold:4.2f}x, "
            f"builds {snap['builds']} @ {snap['buildSeconds'] * 1e3:.1f} ms, "
            f"attaches {snap['attaches']} @ "
            f"{snap['attachSeconds'] * 1e3:.1f} ms)"
        )

    threshold_applies = cpus >= 4
    if not threshold_applies:
        note = (
            f"host has {cpus} CPU(s) < 4 — the >=1.6x @ 4 workers "
            "threshold is report-only on this host (process scale-out "
            "cannot beat serial without spare cores; expect IPC overhead "
            "to dominate)"
        )
        lines.append(f"  note: {note}")

    write_report("process_scaleout", "\n".join(lines))
    write_json_report(
        "process_scaleout",
        {
            "workloadPlans": len(workload),
            "cpus": cpus,
            "serialSeconds": round(serial_s, 6),
            "byWorkers": {str(w): v for w, v in by_workers.items()},
            "thresholdApplies": threshold_applies,
        },
    )

    if threshold_applies:
        speedup = by_workers[4]["speedupVsSerial"]
        assert speedup >= 1.6, (
            f"expected >=1.6x speedup at 4 process workers on a "
            f"{cpus}-cpu host, measured {speedup:.2f}x"
        )
