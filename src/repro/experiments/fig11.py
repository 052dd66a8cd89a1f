"""Figure 11: knowledge-base run time versus number of recommendations.

Paper setup (Section 3.2.3): 1000 QEP files are analysed against
knowledge bases holding 1, 10, 100 and 250 pattern/recommendation
entries; run time grows linearly in the KB size (the paper's full run —
1000 QEPs x 250 entries — takes ~70 minutes on their machine).

The reproduction grows the builtin KB with cloned entries (Figure 11
measures matching throughput, not pattern novelty) and sweeps the same
entry counts over a scale-adjusted workload.  Next to the run time each
row records the run's visited bindings (the evaluator's work counter,
read from an unlimited :class:`~repro.core.limits.Budget`): the count
repeats exactly for a fixed seed, so linearity can be checked without
timing noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.limits import Budget
from repro.experiments.common import DEFAULT_SCALE, ExperimentTable, timed
from repro.experiments.workloads import transformed_experiment_workload
from repro.obs.profiler import StageTimer

#: KB sizes from the paper.
PAPER_KB_SIZES = [1, 10, 100, 250]


def _kb_of_size(size: int):
    """A knowledge base with exactly *size* entries.

    Starts from the builtin + extended expert library (14 distinct
    patterns) and grows with renamed clones beyond that, mirroring how a
    real KB accretes variants of known problems.
    """
    from repro.kb.builtin import _clone_entries
    from repro.kb.library import extended_knowledge_base

    kb = extended_knowledge_base()
    if size < len(kb):
        for entry in kb.entries[size:]:
            kb.remove(entry.name)
        return kb
    _clone_entries(kb, size - len(kb))
    return kb


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 2016,
    kb_sizes: Optional[List[int]] = None,
) -> ExperimentTable:
    n_plans = max(5, int(round(1000 * scale * 0.1)))
    # KB sizes shrink with scale too, but keep the paper's four points.
    if kb_sizes is None:
        kb_sizes = [max(1, int(round(s * max(scale, 0.04)))) for s in PAPER_KB_SIZES]
        kb_sizes = sorted(set(kb_sizes))
        if len(kb_sizes) < 3:
            kb_sizes = [1, 4, 10, 25]
    timer = StageTimer()
    with timer.stage("generate+transform"):
        workload = transformed_experiment_workload(n_plans, seed=seed)

    table = ExperimentTable(
        title="Figure 11 — KB run time vs number of recommendations",
        headers=[
            "KB entries", "QEP files", "Run time [s]", "s per entry",
            "Visited bindings",
        ],
    )
    for size in kb_sizes:
        with timer.stage("kb-build"):
            kb = _kb_of_size(size)
        budget = Budget()
        elapsed, report = timed(kb.find_recommendations, workload, budget=budget)
        timer.add("kb-run", elapsed)
        table.add_row(
            size, n_plans, elapsed, elapsed / max(size, 1), budget.bindings
        )
    table.add_note(
        f"scale={scale:g}: {n_plans} QEPs x KB sizes {kb_sizes} "
        "(paper: 1000 QEPs x [1, 10, 100, 250])"
    )
    table.add_note(
        "paper reference: linear in KB size; 1000x250 took ~70 minutes"
    )
    table.add_note(timer.to_note())
    return table


def series_from_table(table: ExperimentTable) -> Dict[str, List[float]]:
    return {
        "kb_sizes": [row[0] for row in table.rows],
        "seconds": [row[2] for row in table.rows],
        "bindings": [row[4] for row in table.rows],
    }
