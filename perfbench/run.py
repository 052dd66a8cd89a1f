"""OptImatch benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search_adhoc --seed 1 --seconds 10 --trace 0

``--trace 0`` drives the server process over HTTP and prints the
end-to-end metrics declared in ``BENCHMARK.json``; ``--trace 1`` runs
the traced per-layer breakdown.  Human-readable notes (provenance,
checks, the layer table) go to standard output first; the last line is
always ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an output check fails or the program under test
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

UNITS_FILE = os.path.join(ROOT, "BENCHMARK.json")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(UNITS_FILE) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def provenance(args, notes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plans": notes.get("plans"),
        "input_bytes": notes.get("input_bytes"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest_durable", "search_adhoc", "triage_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (tests): 1 set-up, a few plans and requests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program under test not found: {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import e2e

    scale = e2e.SMOKE if args.smoke else e2e.FULL

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workloads = e2e.WORKLOADS
        if args.trace:
            import traced

            workloads = traced.WORKLOADS
        outcome = workloads[args.workload](args.seed, args.seconds, work_dir, scale)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    units = declared_units(bool(args.trace))
    missing = sorted(set(units) ^ set(outcome.metrics))
    if missing:
        print(f"metric set differs from BENCHMARK.json: {missing}", file=sys.stderr)
        return 3
    print("provenance " + json.dumps(provenance(args, outcome.notes)))
    print("notes " + json.dumps(outcome.notes, default=str))
    for name, value in outcome.metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    if not outcome.correct:
        print(f"output check FAILED: {outcome.notes.get('problem')}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
