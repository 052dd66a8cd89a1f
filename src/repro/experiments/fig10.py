"""Figure 10: per-plan search time versus number of LOLEPOPs.

Paper setup (Section 3.2.2): the workload is split into operator-count
buckets [0-50], [50-100], [100-150], [150-200], [200-250] and [500-550]
(buckets 250-500 were empty in the customer workload); for each bucket
the average per-plan analysis time in milliseconds is reported.  Time
grows linearly in plan size; even ~500-operator plans stay under ~400 ms
in the paper's setup.

Next to each average time the table records the average visited
bindings per plan (the evaluator's work counter, read from an unlimited
:class:`~repro.core.limits.Budget`), which repeats exactly for a fixed
seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.limits import Budget, activate
from repro.core.matcher import search_plan
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_plan
from repro.experiments.common import DEFAULT_SCALE, ExperimentTable, timed
from repro.experiments.workloads import bucketed_workload
from repro.kb.builtin import make_pattern
from repro.obs.profiler import StageTimer

#: The paper's buckets (operator-count ranges).
PAPER_BUCKETS = [(1, 50), (50, 100), (100, 150), (150, 200), (200, 250), (500, 550)]

PATTERN_IDS = {"#1": "A", "#2": "B", "#3": "C"}


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 2016,
    plans_per_bucket: Optional[int] = None,
) -> ExperimentTable:
    """Run the Figure 10 sweep: average ms per plan, per bucket."""
    if plans_per_bucket is None:
        # Per-plan times vary a lot with pattern incidence (especially
        # Pattern #2, which is nearly free on LOJ-less plans), so keep a
        # minimum sample per bucket even at small scales.
        plans_per_bucket = max(4, int(round(30 * scale)))
    timer = StageTimer()
    with timer.stage("generate"):
        workloads = bucketed_workload(PAPER_BUCKETS, plans_per_bucket, seed=seed)
    with timer.stage("compile"):
        queries = {
            label: pattern_to_sparql(make_pattern(letter))
            for label, letter in PATTERN_IDS.items()
        }

    table = ExperimentTable(
        title="Figure 10 — per-plan search time vs number of LOLEPOPs",
        headers=["Bucket (ops)", "Plans", "Avg ops"]
        + [f"Pattern {label} [ms]" for label in queries]
        + [f"Pattern {label} bindings" for label in queries],
    )
    for (low, high), plans in workloads.items():
        with timer.stage("transform"):
            transformed = [transform_plan(plan) for plan in plans]
        avg_ops = sum(p.op_count for p in plans) / len(plans)
        ms_row: List[float] = []
        bindings_row: List[float] = []
        for label, sparql in queries.items():
            total = 0.0
            visited = 0
            for item in transformed:
                budget = Budget()
                with activate(budget):
                    elapsed, _ = timed(search_plan, sparql, item)
                total += elapsed
                visited += budget.bindings
            timer.add("search", total)
            ms_row.append(total / len(transformed) * 1000.0)
            bindings_row.append(visited / len(transformed))
        table.add_row(
            f"[{low}-{high}]", len(plans), round(avg_ops, 1),
            *ms_row, *bindings_row,
        )
    table.add_note(
        f"{plans_per_bucket} plans per bucket (scale={scale:g}); buckets "
        "(250-500) are empty by construction, as in the paper's workload"
    )
    table.add_note(
        "paper reference: linear growth; < 400 ms per plan at ~500 LOLEPOPs"
    )
    table.add_note(timer.to_note())
    return table


def series_from_table(table: ExperimentTable) -> Dict[str, List[float]]:
    """``"#1"``..``"#3"`` are ms per plan; ``"bindings #1"``..``"bindings
    #3"`` the matching visited bindings per plan."""
    series = {"avg_ops": [row[2] for row in table.rows]}
    for offset, label in enumerate(PATTERN_IDS, start=3):
        series[label] = [row[offset] for row in table.rows]
        series[f"bindings {label}"] = [
            row[offset + len(PATTERN_IDS)] for row in table.rows
        ]
    return series
