"""Figure 12 and Table 1: the comparative user study (Section 3.3).

Paper setup: three IBM experts and OptImatch each search a 100-QEP
sample for Patterns #1-#3 (with 15 / 12 / 18 true matches respectively).
Findings: OptImatch is ~40x faster on the sample (projected ~150x at
1000 QEPs, because the ~60 s of pattern specification happens once), and
manual search misses matches — 88% / 71% / 81% per pattern, ~80% on
average — while OptImatch is exact.

The experts are simulated (:mod:`repro.baselines.manual_expert`); their
timing is a documented reading-speed model, while OptImatch's timing is
measured for real.  Ground truth comes from the independent reference
checkers, not from OptImatch itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.manual_expert import SimulatedExpert, search_quality
from repro.core.matcher import find_matches
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_workload
from repro.experiments.common import DEFAULT_SCALE, ExperimentTable, timed
from repro.experiments.workloads import experiment_workload
from repro.kb.builtin import make_pattern
from repro.obs.profiler import StageTimer
from repro.qep.writer import write_plan
from repro.workload.reference import REFERENCE_CHECKERS

PATTERN_IDS = {"#1": "A", "#2": "B", "#3": "C"}

#: Paper reference values.
PAPER_TABLE1 = {"#1": 0.88, "#2": 0.71, "#3": 0.81}
PAPER_SPEEDUP_100 = 40.0
PAPER_PATTERN_SPEC_SECONDS = 60.0  # GUI time to specify a pattern, once

N_EXPERTS = 3


@dataclass
class UserStudyResult:
    time_table: ExperimentTable     # Figure 12
    precision_table: ExperimentTable  # Table 1
    speedups: Dict[str, float]
    found_rates: Dict[str, float]

    def to_text(self) -> str:
        return self.time_table.to_text() + "\n\n" + self.precision_table.to_text()


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 2016,
    n_plans: Optional[int] = None,
) -> UserStudyResult:
    if n_plans is None:
        n_plans = max(10, int(round(100 * max(scale, 0.1))))
    timer = StageTimer()
    with timer.stage("generate"):
        plans = experiment_workload(n_plans, seed=seed)
        explain_texts = {plan.plan_id: write_plan(plan) for plan in plans}
    with timer.stage("transform"):
        transformed = transform_workload(plans)
    truth = {
        label: {
            plan.plan_id
            for plan in plans
            if REFERENCE_CHECKERS[letter](plan)
        }
        for label, letter in PATTERN_IDS.items()
    }

    time_table = ExperimentTable(
        title="Figure 12 — comparative study: expert vs OptImatch time",
        headers=[
            "Pattern",
            "True matches",
            "Expert avg [s] (model)",
            "OptImatch [s] (measured)",
            "Speedup",
        ],
    )
    precision_table = ExperimentTable(
        title="Table 1 — manual search quality (found-rate) vs OptImatch",
        headers=[
            "Pattern",
            "Manual found-rate",
            "Paper",
            "Manual precision",
            "OptImatch found-rate",
        ],
    )

    experts = [SimulatedExpert(seed=seed + i) for i in range(N_EXPERTS)]
    speedups: Dict[str, float] = {}
    found_rates: Dict[str, float] = {}
    for label, letter in PATTERN_IDS.items():
        # --- manual side (modelled time, real grep + error behaviour)
        expert_seconds: List[float] = []
        expert_found: List[float] = []
        expert_precision: List[float] = []
        for expert in experts:
            with timer.stage("manual-search"):
                result = expert.search_workload(letter, explain_texts)
            quality = search_quality(
                result.flagged, truth[label], len(plans)
            )
            expert_seconds.append(result.elapsed_seconds)
            expert_found.append(quality["found_rate"])
            expert_precision.append(quality["precision"])
        manual_seconds = sum(expert_seconds) / len(expert_seconds)
        manual_found = sum(expert_found) / len(expert_found)
        manual_precision = sum(expert_precision) / len(expert_precision)

        # --- OptImatch side (measured, plus the one-off spec time the
        # paper includes)
        sparql = pattern_to_sparql(make_pattern(letter))
        elapsed, matches = timed(find_matches, sparql, transformed)
        timer.add("search", elapsed)
        tool_found = {m.plan_id for m in matches}
        tool_quality = search_quality(tool_found, truth[label], len(plans))
        tool_seconds = elapsed + PAPER_PATTERN_SPEC_SECONDS

        speedup = manual_seconds / tool_seconds if tool_seconds else float("inf")
        speedups[label] = speedup
        found_rates[label] = manual_found
        time_table.add_row(
            label, len(truth[label]), manual_seconds, tool_seconds, speedup
        )
        precision_table.add_row(
            label,
            manual_found,
            PAPER_TABLE1[label],
            manual_precision,
            tool_quality["found_rate"],
        )

    time_table.add_note(
        f"{n_plans} QEPs, {N_EXPERTS} simulated experts; tool time includes "
        f"{PAPER_PATTERN_SPEC_SECONDS:.0f}s one-off pattern specification, "
        "as in the paper"
    )
    time_table.add_note(
        f"paper reference: ~{PAPER_SPEEDUP_100:.0f}x speedup on 100 QEPs, "
        "~150x projected at 1000"
    )
    precision_table.add_note(
        "paper Table 1 metric: share of true-match QEP files found "
        "(manual avg ~80%); OptImatch is exact (1.0)"
    )
    time_table.add_note(timer.to_note())
    return UserStudyResult(
        time_table=time_table,
        precision_table=precision_table,
        speedups=speedups,
        found_rates=found_rates,
    )
