"""Figure 9: search time versus number of QEP files.

Paper setup (Section 3.2.1): the 1000-QEP workload is split into buckets
of [100, 200, ..., 1000] files; each of the three expert patterns is
searched against every bucket; the reported time grows linearly with the
number of files, staying under ~70 seconds at 1000 QEPs, with Pattern #2
about twice as slow as the others because of its recursive (descendant)
property paths.

The reproduction measures the same sweep over the synthetic workload.
Next to each search time the table records the search's visited
bindings (the evaluator's work counter, read from an unlimited
:class:`~repro.core.limits.Budget`): the count repeats exactly for a
fixed seed, so tier-1 checks the linear growth on it without timing
noise.  The paper's other shape claim, Pattern #2 ≈ 2x the others, does
not hold here: the planner routes #2's recursion through the bound end
of its property paths, and #2 is the cheapest of the three
(EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.limits import Budget, activate
from repro.core.matcher import find_matches
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_workload
from repro.experiments.common import DEFAULT_SCALE, ExperimentTable, timed
from repro.experiments.workloads import experiment_workload
from repro.kb.builtin import make_pattern
from repro.obs.profiler import StageTimer

#: Paper reference series (seconds, read off Figure 9 at 1000 QEPs).
PAPER_SECONDS_AT_1000 = {"#1": 32.0, "#2": 66.0, "#3": 30.0}

PATTERN_IDS = {"#1": "A", "#2": "B", "#3": "C"}


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 2016,
    repetitions: int = 1,
) -> ExperimentTable:
    """Run the Figure 9 sweep and return the timing table.

    *scale* multiplies the paper's bucket sizes (scale 1.0 → 100..1000
    QEPs); *repetitions* averages the timing per bucket (the paper used
    six repetitions with random bucket assignment)."""
    timer = StageTimer()
    bucket_step = max(1, int(round(100 * scale)))
    sizes = [bucket_step * i for i in range(1, 11)]
    with timer.stage("generate"):
        plans = experiment_workload(sizes[-1], seed=seed)
    # The paper assigns QEPs to buckets randomly (6 repetitions); a
    # deterministic equivalent is striping by size so every prefix holds
    # a representative mix of small and huge plans.
    plans = _striped_by_size(plans, len(sizes))
    with timer.stage("transform"):
        transformed = transform_workload(plans)
    with timer.stage("compile"):
        queries = {
            label: pattern_to_sparql(make_pattern(letter))
            for label, letter in PATTERN_IDS.items()
        }

    table = ExperimentTable(
        title="Figure 9 — search time vs number of QEP files",
        headers=["QEP files"]
        + [f"Pattern {label} [s]" for label in queries]
        + [f"Pattern {label} bindings" for label in queries],
    )
    series: Dict[str, List[float]] = {label: [] for label in queries}
    for size in sizes:
        subset = transformed[:size]
        seconds_row: List[float] = []
        bindings_row: List[int] = []
        for label, sparql in queries.items():
            total = 0.0
            visited = 0
            for _ in range(repetitions):
                budget = Budget()
                with activate(budget):
                    elapsed, _ = timed(find_matches, sparql, subset)
                total += elapsed
                visited += budget.bindings
            timer.add("search", total)
            seconds = total / repetitions
            series[label].append(seconds)
            seconds_row.append(seconds)
            bindings_row.append(round(visited / repetitions))
        table.add_row(size, *seconds_row, *bindings_row)
    table.add_note(
        f"scale={scale:g} (paper: 100..1000 QEPs; here {sizes[0]}..{sizes[-1]})"
    )
    table.add_note(
        "paper reference at 1000 QEPs: "
        + ", ".join(f"{k}~{v:g}s" for k, v in PAPER_SECONDS_AT_1000.items())
    )
    ratio = (
        series["#2"][-1] / max(series["#1"][-1], 1e-9)
        if series["#2"] and series["#1"]
        else float("nan")
    )
    table.add_note(
        f"Pattern #2 / Pattern #1 time ratio at the largest bucket: "
        f"{ratio:.2f} (paper: ~2x, recursion over descendants)"
    )
    table.add_note(timer.to_note())
    return table


def _striped_by_size(plans, n_buckets: int):
    """Deal size-sorted plans round-robin into *n_buckets* groups.

    Concatenating the groups makes every prefix of ``k * len/n_buckets``
    plans carry ~k/n_buckets of the large plans, so per-bucket timings
    grow with workload size rather than with which monster plan happened
    to land in the last bucket.
    """
    ordered = sorted(plans, key=lambda p: -p.op_count)
    groups = [ordered[i::n_buckets] for i in range(n_buckets)]
    return [plan for group in groups for plan in group]


def series_from_table(table: ExperimentTable) -> Dict[str, List[float]]:
    """Extract the numeric series for assertions.

    ``"#1"``..``"#3"`` are seconds; ``"bindings #1"``..``"bindings #3"``
    the matching visited-binding counts."""
    series = {"sizes": [row[0] for row in table.rows]}
    for offset, label in enumerate(PATTERN_IDS, start=1):
        series[label] = [row[offset] for row in table.rows]
        series[f"bindings {label}"] = [
            row[offset + len(PATTERN_IDS)] for row in table.rows
        ]
    return series
