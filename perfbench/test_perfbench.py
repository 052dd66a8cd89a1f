"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_durable", "search_adhoc", "triage_mixed")

#: Per-layer metrics that count work and must repeat exactly per seed.
EXACT_COUNTERS = (
    "transform.triples_per_plan",
    "wal.bytes_per_input_byte",
    "checkpoint.count",
    "checkpoint.bytes",
    "evaluator.visited_bindings",
    "evaluator.closure_bfs_count",
    "evaluator.closure_frontier_nodes",
    "evaluator.rows_per_occurrence",
    "engine.plans_evaluated",
    "engine.match_hit_ratio",
    "encode.bytes_per_reply",
)


def run_bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_match_declaration(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_and_split_adds_up(workload):
    first, second = (run_bench(workload, 1) for _ in range(2))
    a, b = result_of(first), result_of(second)
    assert {n: m["unit"] for n, m in a["metrics"].items()} == declared("per_layer")
    for name in EXACT_COUNTERS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    notes = next(line for line in first.stdout.splitlines() if line.startswith("notes "))
    split = json.loads(notes[len("notes "):])["split"]
    total = split.pop("= op latency")
    assert sum(split.values()) == pytest.approx(total, rel=1e-9)
    assert split["residual"] == pytest.approx(a["metrics"]["residual_ms"]["value"])


def test_search_variants_compile_to_distinct_sparql():
    sys.path.insert(0, HERE)
    import inputs
    from repro.core import ProblemPattern
    from repro.core.sparqlgen import pattern_to_sparql

    texts = [pattern_to_sparql(ProblemPattern.from_json_object(data))
             for _, data in itertools.islice(inputs.pattern_variants(3), 400)]
    assert len(set(texts)) == len(texts)


def test_revisions_change_every_plant_set():
    sys.path.insert(0, HERE)
    import inputs

    plans = inputs.make_plans(12, 3, "qep")
    revisions = inputs.make_revisions(plans, 3)
    assert [p.plan_id for p in plans] == [r.plan_id for r in revisions]
    assert all(p.plants != r.plants for p, r in zip(plans, revisions))
    assert sum("D" in p.plants for p in plans) == inputs.PATTERN_D_PLANS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("search_adhoc", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
