"""Cached and process-parallel matching engine on the Fig-9 workload.

Demonstrates the scaling claims of ``repro.core.engine``:

* **cache**: an identical repeated search over an unchanged workload is
  served from the per-plan match cache — the hit rate is asserted to be
  >= 90% and the warm pass is asserted faster than the cold pass;
* **process scale-out**: more than one worker escapes the GIL entirely
  by evaluating plans in pool workers over zero-copy shared-memory graph
  snapshots (``docs/scale-out.md``).  The ``process_scaleout`` JSON
  section records speedup vs. serial per worker count plus the snapshot
  build/attach amortization; the >=1.6x @ 4 workers threshold is
  asserted only on hosts with >= 4 CPUs (and not under
  ``OPTIMATCH_PERF_SMOKE=1``) — elsewhere it is report-only with an
  explicit note.

Engine and bare serial matcher must return identical matches
(asserted).
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


def _hit_rate(before, after):
    """Match-cache hit rate between two ``stats()`` snapshots (the
    counters only rise, so a window is a before/after delta)."""
    hits = after["matchCache"]["hits"] - before["matchCache"]["hits"]
    misses = after["matchCache"]["misses"] - before["matchCache"]["misses"]
    return hits / (hits + misses)


def _signatures(matches):
    return [
        (m.plan_id, [o.signature() for o in m.occurrences]) for m in matches
    ]


@pytest.fixture(scope="module")
def sparql():
    return builtin_sparql("A")


def test_parallel_identical_to_serial(workload, sparql):
    serial = find_matches(sparql, workload)
    with MatchingEngine() as engine:
        assert _signatures(engine.search(sparql, workload)) == _signatures(
            serial
        ), "the engine diverged from the serial matcher"


def test_serial_baseline(benchmark, workload, sparql):
    benchmark(find_matches, sparql, workload)


def test_engine_cold(benchmark, workload, sparql):
    """Uncached evaluation cost (cache off so every benchmark round
    measures real evaluation, not a cache hit)."""
    engine = MatchingEngine(cache=False)
    benchmark(engine.search, sparql, workload)
    engine.close()


def test_engine_warm_cache(benchmark, workload, sparql):
    """Repeated identical search: served from the match cache."""
    engine = MatchingEngine()
    engine.search(sparql, workload)  # warm
    before = engine.stats()  # count only the repeated (cached) searches
    benchmark(engine.search, sparql, workload)
    hit_rate = _hit_rate(before, engine.stats())
    assert hit_rate >= 0.9, f"expected >=90% cache hits, got {hit_rate:.1%}"


def test_parallel_matching_report(workload, sparql):
    """Timed sweep: serial vs engine {cold, warm}; writes the report."""

    def once(fn, *args, **kwargs):
        start = time.perf_counter()
        fn(*args, **kwargs)
        return time.perf_counter() - start

    serial_s = min(once(find_matches, sparql, workload) for _ in range(3))
    lines = [
        "Cached matching engine "
        f"({len(workload)} plans, host cpus={os.cpu_count()})",
        f"  serial find_matches:        {serial_s * 1e3:8.1f} ms",
    ]
    engine = MatchingEngine(cache=False)
    cold = min(once(engine.search, sparql, workload) for _ in range(3))
    engine.close()
    lines.append(
        f"  engine cold:                {cold * 1e3:8.1f} ms "
        f"(speedup vs serial: {serial_s / cold:4.2f}x)"
    )

    engine = MatchingEngine()
    engine.search(sparql, workload)  # warm the cache
    before = engine.stats()  # measure the repeated searches, not the warm-up
    warm = min(once(engine.search, sparql, workload) for _ in range(3))
    hit_rate = _hit_rate(before, engine.stats())
    lines.append(
        f"  engine warm cache:          {warm * 1e3:8.1f} ms "
        f"(speedup vs serial: {serial_s / max(warm, 1e-9):4.2f}x, "
        f"hit rate {hit_rate:.1%})"
    )
    write_report("parallel_matching", "\n".join(lines))
    write_json_report(
        "parallel_matching",
        {
            "workloadPlans": len(workload),
            "serial": {
                "totalSeconds": round(serial_s, 6),
                "plansPerSecond": round(len(workload) / serial_s, 2),
            },
            "engineCold": {
                "totalSeconds": round(cold, 6),
                "plansPerSecond": round(len(workload) / cold, 2),
                "speedupVsSerial": round(serial_s / cold, 3),
            },
            "engineWarmCache": {
                "totalSeconds": round(warm, 6),
                "plansPerSecond": round(len(workload) / max(warm, 1e-9), 2),
                "speedupVsSerial": round(serial_s / max(warm, 1e-9), 3),
                "matchCacheHitRate": round(hit_rate, 4),
            },
        },
    )

    # The cache claims hold everywhere.
    assert hit_rate >= 0.9
    assert warm < serial_s, "a fully cached search must beat serial"


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
    smoke = os.environ.get("OPTIMATCH_PERF_SMOKE") == "1"

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

    threshold_applies = cpus >= 4 and not smoke
    if cpus < 4:
        note = (
            f"host has {cpus} CPU(s) < 4 — the >=1.6x @ 4 workers "
            "threshold is report-only on this host (process scale-out "
            "cannot beat serial without spare cores; expect IPC overhead "
            "to dominate)"
        )
        lines.append(f"  note: {note}")
    elif smoke:
        lines.append(
            "  note: OPTIMATCH_PERF_SMOKE=1 — thresholds are report-only"
        )

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
