"""Durability layer cost: ingest per fsync mode and recovery time.

Measures the claims of ``docs/durability.md`` on the Fig-9 synthetic
workload and writes the ``durability_overhead`` section of
``BENCH_matching.json``:

* **ingest throughput per fsync policy** — plans/second through
  ``OptImatch(data_dir=...)`` for ``async`` / ``batch`` / ``fsync``;
* **recovery time vs journal length** — cold-start
  ``OptImatch(data_dir=...)`` over a directory whose journal holds N
  un-checkpointed records (simulated crash: the writer is dropped
  without a final checkpoint), plus the clean-restart case where
  recovery replays nothing from a checkpoint.

That the ``data_dir=None`` path does no durability work at all is a
structural test, not a timing:
``tests/store/test_facade_durability.py::TestDisabledPath``.
"""

import gc
import os
import time

from benchmarks.conftest import write_json_report, write_report
from repro.core.optimatch import OptImatch

FSYNC_MODES = ("async", "batch", "fsync")


def _facade_ingest(plans, **kwargs):
    tool = OptImatch(workers=1, **kwargs)
    start = time.perf_counter()
    for plan in plans:
        tool.add_plan(plan)
    elapsed = time.perf_counter() - start
    tool.close()
    return elapsed


def test_durability_overhead_report(workload_plans, tmp_path):
    plans = workload_plans
    n = len(plans)
    lines = [
        f"Durability overhead ({n} plans, host cpus={os.cpu_count()})",
    ]

    # Journaled ingest per fsync policy (checkpointing disabled so the
    # numbers isolate the append/fsync cost, not checkpoint writes).
    by_fsync = {}
    for mode in FSYNC_MODES:
        gc.collect()
        data_dir = tmp_path / f"ingest-{mode}"
        elapsed = _facade_ingest(
            plans,
            data_dir=str(data_dir),
            fsync=mode,
            checkpoint_every=10 ** 9,
        )
        by_fsync[mode] = {
            "totalSeconds": round(elapsed, 6),
            "plansPerSecond": round(n / elapsed, 2),
        }
        lines.append(
            f"  facade, fsync={mode:5}:       {elapsed * 1e3:8.1f} ms "
            f"({n / elapsed:7.1f} plans/s)"
        )

    # Recovery time vs journal length.  Ingest without ever
    # checkpointing and drop the store un-closed (crash simulation:
    # appends were flushed, no final checkpoint was written), then time
    # the cold start that replays the whole journal.
    recovery = {}
    for count in sorted({max(1, n // 4), max(2, n // 2), n}):
        data_dir = tmp_path / f"recover-{count}"
        tool = OptImatch(
            workers=1,
            data_dir=str(data_dir),
            fsync="async",
            checkpoint_every=10 ** 9,
        )
        for plan in plans[:count]:
            tool.add_plan(plan)
        tool._store._writer.close(sync=True)  # crash: skip close()'s checkpoint
        tool._engine.close()

        start = time.perf_counter()
        recovered = OptImatch(workers=1, data_dir=str(data_dir))
        elapsed = time.perf_counter() - start
        report = recovered.durability_status()["recovery"]
        assert recovered.plan_count == count
        assert report["replayedRecords"] == count
        recovered.close()
        recovery[str(count)] = {
            "journalRecords": count,
            "recoverySeconds": round(elapsed, 6),
            "plansPerSecond": round(count / elapsed, 2),
        }
        lines.append(
            f"  recovery, {count:4} journal records: {elapsed * 1e3:8.1f} ms "
            f"({count / elapsed:7.1f} plans/s replayed)"
        )

    # Clean restart: close() checkpointed, so recovery replays nothing.
    clean_dir = recovery_dir = tmp_path / "recover-clean"
    tool = OptImatch(workers=1, data_dir=str(clean_dir), fsync="async")
    for plan in plans:
        tool.add_plan(plan)
    tool.close()
    start = time.perf_counter()
    recovered = OptImatch(workers=1, data_dir=str(recovery_dir))
    clean_s = time.perf_counter() - start
    clean_report = recovered.durability_status()["recovery"]
    assert recovered.plan_count == n
    assert clean_report["replayedRecords"] == 0
    recovered.close()
    lines.append(
        f"  recovery from checkpoint:   {clean_s * 1e3:8.1f} ms "
        f"(0 records replayed, {n} plans)"
    )

    write_report("durability_overhead", "\n".join(lines))
    write_json_report(
        "durability_overhead",
        {
            "workloadPlans": n,
            "ingest": {"byFsync": by_fsync},
            "recovery": {
                "byJournalRecords": recovery,
                "fromCheckpoint": {
                    "recoverySeconds": round(clean_s, 6),
                    "replayedRecords": 0,
                    "plans": n,
                },
            },
        },
    )
