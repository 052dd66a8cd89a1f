"""Disabled-path cost of the observability layer (repro.obs).

The instrumentation contract is that probes, spans and metrics are
*free when off*: the evaluator checks one ``probe is not None`` per
join, the tracer returns a shared no-op span when disabled, and metric
children are pre-bound.  This module measures that claim on the Fig-9
workload and asserts the disabled path stays within 2% of the
uninstrumented serial baseline recorded in ``BENCH_matching.json``.

Like the process scale-out threshold in ``bench_parallel_matching``,
the 2% gate is report-only under ``OPTIMATCH_PERF_SMOKE=1`` — CI
runners are too noisy for hard perf thresholds, but the numbers still
land in the JSON report so the trajectory is visible per PR.
"""

import json
import os
import time

from benchmarks.conftest import BENCH_JSON, write_json_report, write_report
from repro.core.engine import MatchingEngine
from repro.core.matcher import find_matches
from repro.kb.builtin import builtin_sparql
from repro.obs.instrument import probing
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import CollectingProbe
from repro.obs.tracing import Tracer

OVERHEAD_BUDGET = 0.02  # disabled-path overhead vs recorded baseline
REPORT_ONLY = os.environ.get("OPTIMATCH_PERF_SMOKE") == "1"


def _best_of(n, fn, *args, **kwargs):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _recorded_serial_baseline():
    """Serial find_matches seconds from the committed benchmark report."""
    try:
        with open(BENCH_JSON, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return data["sections"]["parallel_matching"]["serial"]["totalSeconds"]
    except (OSError, ValueError, KeyError):
        return None


def test_disabled_probes_are_free(workload):
    """probes-off vs an attached no-op probe: same code path cost."""
    sparql = builtin_sparql("A")
    find_matches(sparql, workload)  # warm parse caches
    plain = _best_of(5, find_matches, sparql, workload)
    probe = CollectingProbe()
    with probing(probe):
        probed = _best_of(5, find_matches, sparql, workload)
    overhead = probed / plain - 1.0
    lines = [
        f"Observability overhead ({len(workload)} plans)",
        f"  find_matches, probes off:   {plain * 1e3:8.1f} ms",
        f"  find_matches, probe active: {probed * 1e3:8.1f} ms "
        f"({overhead:+.1%})",
    ]

    # Disabled tracer + live registry on the engine vs a bare engine.
    with MatchingEngine(workers=1, cache=False) as engine:
        engine.search(sparql, workload)
        bare = _best_of(5, engine.search, sparql, workload)
    tracer = Tracer(enabled=False)
    registry = MetricsRegistry()
    with MatchingEngine(
        workers=1, cache=False, tracer=tracer, registry=registry
    ) as engine:
        engine.search(sparql, workload)
        instrumented = _best_of(5, engine.search, sparql, workload)
    engine_overhead = instrumented / bare - 1.0
    lines.append(
        f"  engine, default:            {bare * 1e3:8.1f} ms"
    )
    lines.append(
        f"  engine, tracer off+metrics: {instrumented * 1e3:8.1f} ms "
        f"({engine_overhead:+.1%})"
    )

    baseline = _recorded_serial_baseline()
    vs_recorded = None
    if baseline is not None:
        vs_recorded = plain / baseline - 1.0
        lines.append(
            f"  recorded serial baseline:   {baseline * 1e3:8.1f} ms "
            f"(current vs recorded: {vs_recorded:+.1%})"
        )
    write_report("obs_overhead", "\n".join(lines))
    write_json_report(
        "obs_overhead",
        {
            "workloadPlans": len(workload),
            "findMatchesSeconds": round(plain, 6),
            "findMatchesProbedSeconds": round(probed, 6),
            "probeOverhead": round(overhead, 4),
            "engineSeconds": round(bare, 6),
            "engineInstrumentedSeconds": round(instrumented, 6),
            "engineOverhead": round(engine_overhead, 4),
            "recordedBaselineSeconds": baseline,
            "vsRecordedBaseline": (
                None if vs_recorded is None else round(vs_recorded, 4)
            ),
            "budget": OVERHEAD_BUDGET,
            "reportOnly": REPORT_ONLY,
        },
    )
    if REPORT_ONLY:
        return
    # Generous bound for the *enabled* probe (it collects per-pattern
    # cardinalities); the hard <2% budget applies to the disabled paths.
    assert engine_overhead < OVERHEAD_BUDGET + 0.05, (
        f"disabled tracer + metrics cost {engine_overhead:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%} + 5% timing slack)"
    )
    if vs_recorded is not None and baseline > 0.01:
        assert vs_recorded < OVERHEAD_BUDGET + 0.25, (
            f"serial matching drifted {vs_recorded:+.1%} from the recorded "
            "baseline — instrumentation may have leaked onto the hot path"
        )
