"""One ledger: engine numbers live only in the metrics registry.

``MatchingEngine.stats()`` is a read of the engine's registry series, so
every figure it reports must equal the matching sample a ``/metrics``
scrape would export — across cache hits and misses, uncached searches,
budget failures, recovery seeding and, where shared memory exists, the
process tier's snapshot builds, attaches and worker tasks.
"""

import pytest

from repro.core import mpexec
from repro.core.engine import MatchingEngine
from repro.core.limits import Budget
from repro.experiments.workloads import transformed_experiment_workload
from repro.kb.builtin import builtin_sparql, make_pattern
from repro.obs.metrics import MetricsRegistry
from repro.sparql import prepare_query

WORKERS = [
    1,
    pytest.param(
        2,
        marks=pytest.mark.skipif(
            not mpexec.available(), reason="POSIX shared memory unavailable"
        ),
    ),
]


def _samples(registry):
    """Every exported sample as ``{(name + suffix, labels): value}``."""
    return {
        (snapshot.name + sample.suffix, sample.labels): sample.value
        for snapshot in registry.collect()
        for sample in snapshot.samples
    }


def _mixed_sequence(engine, workload):
    pattern = make_pattern("A")
    first = engine.search(pattern, workload)
    engine.search(pattern, workload)  # match-cache hits when caching
    engine.search(prepare_query(builtin_sparql("B")), workload)  # no key
    limited = engine.search_isolated(
        make_pattern("C"), workload, budget=Budget(max_bindings=1)
    )
    assert {e.kind for e in limited.errors} == {"budget"}
    engine.seed_match_cache("recovered", first[0])


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("workers", WORKERS)
def test_stats_equal_registry_samples(workers, cache):
    workload = transformed_experiment_workload(8, seed=21)
    with MatchingEngine(workers=workers, cache=cache) as engine:
        _mixed_sequence(engine, workload)
        stats = engine.stats()
        samples = _samples(engine.registry)

    def sample(name, **labels):
        return samples[(name, tuple(labels.items()))]

    plans = "optimatch_engine_plans_total"
    lookups = "optimatch_engine_cache_lookups_total"
    stage = "optimatch_engine_stage_seconds_sum"
    assert stats["searches"] == sample("optimatch_engine_searches_total") == 4
    assert stats["plansFromCache"] == sample(plans, outcome="cached")
    assert stats["planErrors"] == sample(plans, outcome="error") > 0
    assert stats["plansEvaluated"] == (
        sample(plans, outcome="evaluated") + sample(plans, outcome="error")
    )
    assert stats["plansSeen"] == 4 * len(workload)
    for level, key in (("prepared", "preparedCache"), ("match", "matchCache")):
        assert stats[key]["hits"] == sample(lookups, cache=level, result="hit")
        assert stats[key]["misses"] == sample(
            lookups, cache=level, result="miss"
        )
    assert stats["matchCache"]["seeded"] == sample(
        lookups, cache="match", result="seeded"
    ) == (1 if cache else 0)
    assert stats["matchCache"]["hits"] == (len(workload) if cache else 0)
    for name in ("prepare", "evaluate", "total"):
        assert stats["timings"][f"{name}Seconds"] == round(
            sample(stage, stage=name), 6
        )
    tasks = {}
    for (name, labels), value in samples.items():
        if name == "optimatch_engine_worker_tasks_total":
            worker = dict(labels)["worker"]
            tasks[worker] = tasks.get(worker, 0) + value
    assert stats["workerTasks"] == tasks
    snapshot = "optimatch_engine_snapshot_seconds"
    for phase, key in (("build", "builds"), ("attach", "attaches")):
        assert stats["snapshot"][key] == sample(
            f"{snapshot}_count", stage=phase
        )
        assert stats["snapshot"][f"{phase}Seconds"] == round(
            sample(f"{snapshot}_sum", stage=phase), 6
        )
    if engine.mode == "process":
        assert stats["snapshot"]["builds"] >= 1
        assert stats["snapshot"]["attaches"] >= 1
        assert set(tasks) - {"serial"} <= {"p0", "p1"}
    else:
        assert stats["snapshot"]["builds"] == 0
        assert set(tasks) == {"serial"}


def test_engines_without_a_registry_share_no_series():
    workload = transformed_experiment_workload(4, seed=22)
    busy, idle = MatchingEngine(), MatchingEngine()
    assert busy.registry is not idle.registry
    busy.search(make_pattern("A"), workload)
    assert busy.stats()["searches"] == 1
    assert idle.stats()["searches"] == 0
    for (name, _), value in _samples(idle.registry).items():
        if name != "optimatch_engine_mode_info":  # a setting, not a count
            assert value == 0, name


def test_engines_given_one_registry_report_their_sum():
    workload = transformed_experiment_workload(4, seed=23)
    registry = MetricsRegistry()
    one = MatchingEngine(registry=registry)
    two = MatchingEngine(registry=registry)
    one.search(make_pattern("A"), workload)
    two.search(make_pattern("B"), workload)
    assert one.stats()["searches"] == two.stats()["searches"] == 2
