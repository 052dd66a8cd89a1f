"""Seeded inputs for the benchmark workloads.

Everything the server sees is generated here from ``--seed``: explain
texts of Fig-9-shaped plans, a second variant of each plan for
revisions, distinct Figure-5 pattern variants for ad-hoc search.

Plan sizes and plants are *stratified*: a plan set of ``n`` plans always
holds the same multiset of operator counts (the ``n`` quantiles of the
paper's size distribution, Section 3.2.2), each with the same planted
patterns; the seed picks their order and every plan's content.  That
keeps the work of a workload, and which plans are the costly ones,
nearly equal across seeds, so run-to-run spread measures the system,
not the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.experiments.workloads import PAPER_PLANT_RATES, controlled_config
from repro.kb.builtin import make_pattern
from repro.qep.writer import write_plan
from repro.workload.generator import WorkloadGenerator, paper_size_for

#: Plans of a set that carry Pattern D.  The paper gives rates for A-C
#: only (``PAPER_PLANT_RATES``); one plan is the fewest that still gives
#: the builtin KB's D entry a recommendation to render.
PATTERN_D_PLANS = 1


def stratified_sizes(n: int) -> List[int]:
    """The ``n`` mid-quantiles of the paper's operator-count distribution
    (taken from a fixed, seed-independent sample)."""
    rng = random.Random(2016)
    sample = sorted(paper_size_for(rng) for _ in range(4000))
    return [sample[int((i + 0.5) * len(sample) / n)] for i in range(n)]


@dataclass
class PlanInput:
    plan_id: str
    text: str
    target_ops: int
    plants: Tuple[str, ...]

    @property
    def nbytes(self) -> int:
        return len(self.text.encode("utf-8"))


def _generate(generator: WorkloadGenerator, plan_id: str, target_ops: int,
              plants: List[str]) -> PlanInput:
    plan = generator.generate_plan(plan_id, target_ops=target_ops, plant=plants)
    return PlanInput(plan.plan_id, write_plan(plan), target_ops, tuple(plants))


def make_plans(n: int, seed: int, prefix: str) -> List[PlanInput]:
    """``n`` seeded plans as explain texts.

    Sizes are stratified (see the module docstring) and so are planted
    patterns: exactly ``round(rate * n)`` plans carry each of A-C at the
    paper's rates and :data:`PATTERN_D_PLANS` carry D, spread evenly
    over the size ranks.
    """
    counts = {letter: round(rate * n) for letter, rate in PAPER_PLANT_RATES.items()}
    counts["D"] = min(n, PATTERN_D_PLANS)
    plants: List[List[str]] = [[] for _ in range(n)]
    for offset, (letter, count) in enumerate(sorted(counts.items())):
        for i in range(count):
            plants[(int((i + 0.5) * n / count) + offset) % n].append(letter)
    ranked = list(zip(stratified_sizes(n), plants))
    random.Random(seed).shuffle(ranked)
    generator = WorkloadGenerator(seed=seed + 1, config=controlled_config())
    return [_generate(generator, f"{prefix}-{index:04d}", size, letters)
            for index, (size, letters) in enumerate(ranked)]


def make_revisions(plans: List[PlanInput], seed: int) -> List[PlanInput]:
    """A second variant of every plan: same id and target size, new
    seeded content, and a plant set that differs in one of A-C (picked
    by size, so the same sizes toggle the same letter whatever the
    seed), so replacing one variant by the other changes what the KB
    must report for that plan."""
    generator = WorkloadGenerator(seed=seed + 2, config=controlled_config())
    return [_generate(generator, plan.plan_id, plan.target_ops,
                      sorted(set(plan.plants) ^ {"ABC"[plan.target_ops % 3]}))
            for plan in plans]


def _rename_aliases(data: dict, suffix: str) -> dict:
    for pop in data["pops"]:
        if pop.get("alias"):
            pop["alias"] = f"{pop['alias']}_{suffix}"
    return data


def _nudge_thresholds(data: dict, index: int) -> dict:
    """Move every cardinality threshold by ``index`` parts per billion:
    the paper's thresholds in effect, but new SPARQL text."""
    for pop in data["pops"]:
        for prop in pop["popProperties"]:
            if prop["id"] == "hasEstimateCardinality" and prop.get("sign") in (">", "<"):
                prop["value"] = prop["value"] * (1 + index * 1e-9)
    return data


def pattern_variants(seed: int) -> Iterator[Tuple[str, dict]]:
    """Endless stream of ``(letter, pattern JSON)`` ad-hoc searches.

    Letters rotate A, B, C, D so the cost mix is the same in every run.
    A and C get nudged cardinality thresholds, B and D aliases renamed
    after the seed and the request's index; no two yielded patterns
    compile to the same SPARQL text, so neither engine cache can answer
    a request.
    """
    for index in itertools.count(1):
        letter = "ABCD"[(index - 1) % 4]
        data = make_pattern(letter).to_json_object()
        if letter in "AC":
            data = _nudge_thresholds(data, index)
        else:
            data = _rename_aliases(data, f"s{seed}v{index}")
        yield letter, data
