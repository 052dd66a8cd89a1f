"""Shared fixtures of the two checks that have no tier-1 form yet.

Both run the Figure 9 workload at scale 0.1 (100 plans, seed 2016);
``optimatch experiment fig9`` prints the same figure.  Run them by
name (the tier-1 suite does not collect this directory)::

    PYTHONPATH=src python -m pytest -s benchmarks/bench_fig9_workload_size.py
    PYTHONPATH=src python -m pytest -s benchmarks/bench_parallel_matching.py
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro.core.transform import transform_workload
from repro.experiments.workloads import experiment_workload


@pytest.fixture(scope="session")
def workload():
    """The Figure 9 workload at scale 0.1, transformed to RDF."""
    return transform_workload(experiment_workload(100, seed=2016))


def write_report(name: str, text: str) -> None:
    """Persist an experiment table next to the benchmark outputs."""
    directory = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n{text}\n[report written to {path}]")


#: Machine-readable benchmark results, one section per check.
BENCH_JSON = os.path.join(os.path.dirname(__file__), "reports", "BENCH_matching.json")


def write_json_report(section: str, payload: dict) -> None:
    """Merge *payload* under ``sections[section]`` in BENCH_matching.json,
    leaving the other sections in place."""
    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    data: dict = {}
    if os.path.exists(BENCH_JSON):
        try:
            with open(BENCH_JSON, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["host"] = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    data.setdefault("sections", {})[section] = payload
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[JSON section {section!r} written to {BENCH_JSON}]")
