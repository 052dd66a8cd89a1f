"""Experiment harness reproducing the paper's evaluation (Section 3).

One module per figure/table:

* :mod:`~repro.experiments.fig9` — search time vs workload size,
* :mod:`~repro.experiments.fig10` — per-plan time vs number of LOLEPOPs,
* :mod:`~repro.experiments.fig11` — KB-run time vs number of
  recommendations,
* :mod:`~repro.experiments.user_study` — Figure 12 (expert vs OptImatch
  time) and Table 1 (manual search quality).

Each module exposes ``run(scale=..., seed=...)`` returning a result
object with rows and a ``to_text()`` paper-style report;
``optimatch experiment fig9|fig10|fig11|study [--scale S]`` prints it.
``scale`` shrinks workload sizes (default 0.1) so a run finishes within
a minute; a scale of 1.0 is the paper's full size (1000 QEPs).  The
tier-1 tests in ``tests/experiments/`` check the paper's shape claims
at the default scale on visited bindings, which repeat exactly for a
seed.
"""

from repro.experiments.common import ExperimentTable, linear_fit_r2
from repro.experiments.workloads import (
    PAPER_PLANT_RATES,
    controlled_config,
    experiment_workload,
)
from repro.experiments import fig9, fig10, fig11, user_study

__all__ = [
    "ExperimentTable",
    "PAPER_PLANT_RATES",
    "controlled_config",
    "experiment_workload",
    "fig10",
    "fig11",
    "fig9",
    "linear_fit_r2",
    "user_study",
]
