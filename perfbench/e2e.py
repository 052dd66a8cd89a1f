"""End-to-end workloads: the server process driven over HTTP, tracing off.

Each workload sets the server up ``Scale.setups`` times (the median is
``setup_s``), runs one closed-loop measurement window against the last
set-up server, then stops it (final checkpoint), measures the data
directory and restarts the server on a copy of it ``Scale.restarts``
times (the median is ``recovery_s``).  Every reply
is checked against an in-process :class:`repro.OptImatch` over the same
generated plans, and every acknowledged plan must be present after the
restart.

All three workloads report the same end-to-end metrics.  The
*operation* behind ``ops_per_s`` / ``op_p50_ms`` / ``op_p90_ms`` is the
workload's primary request: one acknowledged micro-batch on
``ingest_durable``, one ``POST /search`` on ``search_adhoc`` and one
``POST /kb/run`` on ``triage_mixed``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import inputs
import wire
from proc import ServerProcess, dir_bytes

#: Plans per preload micro-batch.
PRELOAD_BATCH = 8
#: Closed-loop connections for ``search_adhoc`` (at most ``nproc``).
SEARCH_CONNECTIONS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one run (``FULL`` by default, ``SMOKE`` for tests)."""

    #: Server set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Restarts after the window; ``recovery_s`` is their median.
    restarts: int = 3
    #: Plans preloaded for the search and triage workloads.
    preload_plans: int = 30
    #: Primary operations per second of ``--seconds``: every window is a
    #: fixed amount of work (plans ingested, searches, KB runs and
    #: revisions), about ``--seconds`` long on a 2-CPU x86 host, so the
    #: stored state and the output checks do not depend on speed.
    ingest_plans_per_second: int = 10
    searches_per_second: int = 12
    #: Rounded to whole cycles through the preloaded plans, so every
    #: plan is revised equally often whatever size the seed gave it.
    triage_rounds_per_second: int = 12
    #: Traced run: primary searches, triage rounds, plans under EXPLAIN.
    searches: int = 40
    triage_rounds: int = 30
    explain_plans: int = 30


FULL = Scale()
SMOKE = Scale(setups=1, restarts=1, preload_plans=6, ingest_plans_per_second=3,
              searches_per_second=4, triage_rounds_per_second=3,
              searches=4, triage_rounds=3, explain_plans=3)


@dataclass
class Tally:
    """Latency samples of successful operations, plus failures."""

    samples: List[float] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def ok(self, seconds: float) -> None:
        with self.lock:
            self.samples.append(seconds)

    def fail(self, exc: Exception) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(str(exc))

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed


def percentile_ms(samples: List[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1000.0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: Dict[str, object]


def stream_preload(port: int, plans: List[inputs.PlanInput]) -> None:
    """Stream *plans* durably (``ack=sync``) and check the server is ok."""
    records = [wire.stream_record(p.plan_id, p.text) for p in plans]
    full = len(records) - len(records) % PRELOAD_BATCH
    stream = wire.IngestStream(port, f"ack=sync&batch={PRELOAD_BATCH}")
    for start in range(0, full, PRELOAD_BATCH):
        stream.send_batch(records[start:start + PRELOAD_BATCH])
    if stream.finish(records[full:])["count"] != len(records):
        raise RuntimeError("preload was not fully acknowledged")
    if wire.get_json(port, "/health")["status"] != "ok":
        raise RuntimeError("server unhealthy after preload")


class Harness:
    """Server lifecycle shared by the three workloads."""

    def __init__(self, work_dir: str, scale: Scale):
        self.work_dir = work_dir
        self.scale = scale
        self.setup_times: List[float] = []
        self.data_dir = ""

    def setup(self, preload: List[inputs.PlanInput]) -> ServerProcess:
        """Set up ``scale.setups`` times; keep the last server running."""
        server = None
        for attempt in range(self.scale.setups):
            if server is not None:
                server.stop(kill=True)
                shutil.rmtree(self.data_dir)
            self.data_dir = os.path.join(self.work_dir, f"data-{attempt}")
            server = ServerProcess(self.data_dir)
            try:
                server.wait_ready()
                if preload:
                    stream_preload(server.port, preload)
            except BaseException:
                server.stop(kill=True)
                raise
            self.setup_times.append(time.perf_counter() - server.started)
        return server

    def finish(self, server: ServerProcess, expected_ids: List[str],
               live_bytes: int) -> Tuple[Dict[str, float], bool, str]:
        """Stop, measure the data dir, restart ``scale.restarts`` times
        (the median is ``recovery_s``) and verify the recovered plan set.

        Every restart runs on a fresh copy of the stopped data dir, so
        each sample recovers the same state (a graceful stop of the
        restarted server would add a checkpoint for the next one)."""
        rss = server.peak_rss_mb()
        server.stop()
        stored = dir_bytes(self.data_dir)
        recovery: List[float] = []
        problem = ""
        copy = self.data_dir + "-restart"
        for _ in range(self.scale.restarts):
            shutil.copytree(self.data_dir, copy)
            restarted = ServerProcess(copy)
            try:
                recovery.append(restarted.wait_ready())
                recovered = wire.get_json(restarted.port, "/plans")["plans"]
            finally:
                restarted.stop(kill=True)
                shutil.rmtree(copy)
            if sorted(recovered) != sorted(expected_ids):
                problem = (f"recovered {len(recovered)} plans, expected "
                           f"{len(expected_ids)} acknowledged ones")
        return {
            "setup_s": statistics.median(self.setup_times),
            "recovery_s": statistics.median(recovery),
            "storage_bytes_per_input_byte": stored / live_bytes,
            "server_peak_rss_mb": rss,
        }, not problem, problem


def op_metrics(tally: Tally, elapsed: float) -> Dict[str, float]:
    if not tally.samples:
        raise RuntimeError("no operation succeeded: " + "; ".join(tally.errors))
    return {
        "ops_per_s": len(tally.samples) / elapsed,
        "op_p50_ms": statistics.median(tally.samples) * 1000.0,
        "op_p90_ms": percentile_ms(tally.samples, 90),
    }


def closed_loop(clients: List[Callable[[], None]]) -> float:
    """Run each client on its own thread until its work is done; returns
    the window's length (until the last operation completed)."""
    errors: List[BaseException] = []

    def run(client: Callable[[], None]) -> None:
        try:
            client()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=run, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# ingest_durable
# ----------------------------------------------------------------------
def ingest_durable(seed: int, seconds: int, work_dir: str, scale: Scale) -> Outcome:
    plans = inputs.make_plans(scale.ingest_plans_per_second * seconds, seed, "ing")
    harness = Harness(work_dir, scale)
    server = harness.setup([])
    tally = Tally()
    acked: List[str] = []
    try:
        started = time.perf_counter()
        stream = wire.IngestStream(server.port, "ack=sync&batch=1")
        for plan in plans:
            try:
                ids, latency = stream.send_batch([wire.stream_record(plan.plan_id, plan.text)])
            except wire.RequestFailed as exc:
                tally.fail(exc)
                stream.close()
                stream = wire.IngestStream(server.port, "ack=sync&batch=1")
                continue
            if ids != [plan.plan_id]:
                tally.fail(RuntimeError(f"ack for {ids}, sent {plan.plan_id}"))
                continue
            acked.append(plan.plan_id)
            tally.ok(latency)
        stream.finish()
        elapsed = time.perf_counter() - started
    except BaseException:
        server.stop(kill=True)
        raise
    live_bytes = sum(p.nbytes for p in plans if p.plan_id in set(acked))
    common, correct, problem = harness.finish(server, acked, live_bytes)
    return Outcome(
        {**op_metrics(tally, elapsed), **common}, tally.attempted, tally.failed,
        correct, {"plans": len(plans), "input_bytes": sum(p.nbytes for p in plans),
                  "problem": problem, "errors": tally.errors,
                  "aliases": "ops_per_s=ingest_plans_per_s op_p50_ms=ingest_ack_p50_ms "
                             "op_p90_ms=ingest_ack_p90_ms"},
    )


# ----------------------------------------------------------------------
# search_adhoc
# ----------------------------------------------------------------------
def search_reply_key(payload: dict) -> List[Tuple[str, int]]:
    """What a ``/search`` reply must get right: plan ids, occurrence counts."""
    return [(m["planId"], len(m["occurrences"])) for m in payload["matches"]]


def search_adhoc(seed: int, seconds: int, work_dir: str, scale: Scale) -> Outcome:
    from repro import OptImatch
    from repro.core import ProblemPattern

    plans = inputs.make_plans(scale.preload_plans, seed, "qep")
    variants = inputs.pattern_variants(seed)
    queue = iter([next(variants)[1] for _ in range(scale.searches_per_second * seconds)])
    queue_lock = threading.Lock()
    harness = Harness(work_dir, scale)
    server = harness.setup(plans)
    tally = Tally()
    replies: List[Tuple[dict, List[Tuple[str, int]]]] = []

    def client() -> None:
        conn = wire.Connection(server.port)
        try:
            while True:
                with queue_lock:
                    pattern = next(queue, None)
                if pattern is None:
                    return
                try:
                    payload, latency = conn.request(
                        "POST", "/search", json.dumps(pattern).encode("utf-8"))
                except wire.RequestFailed as exc:
                    tally.fail(exc)
                    continue
                tally.ok(latency)
                with tally.lock:
                    replies.append((pattern, search_reply_key(payload)))
        finally:
            conn.close()

    try:
        elapsed = closed_loop([client] * SEARCH_CONNECTIONS)
    except BaseException:
        server.stop(kill=True)
        raise
    common, correct, problem = harness.finish(
        server, [p.plan_id for p in plans], sum(p.nbytes for p in plans))
    # Output check: every reply against an in-process engine.
    with OptImatch(cache=False) as oracle:
        for plan in plans:
            oracle.load_explain_text(plan.text, plan.plan_id)
        mismatches = 0
        for pattern, got in replies:
            result = oracle.search_isolated(ProblemPattern.from_json_object(pattern))
            want = [(m.plan_id, m.count) for m in result.matches]
            if got != want:
                mismatches += 1
                problem = problem or f"search reply {got} != in-process {want}"
    return Outcome(
        {**op_metrics(tally, elapsed), **common}, tally.attempted, tally.failed,
        correct and not mismatches,
        {"plans": len(plans), "input_bytes": sum(p.nbytes for p in plans),
         "searches_checked": len(replies), "problem": problem, "errors": tally.errors,
         "aliases": "ops_per_s=search_per_s op_p50_ms=search_p50_ms op_p90_ms=search_p90_ms"},
    )


# ----------------------------------------------------------------------
# triage_mixed
# ----------------------------------------------------------------------
def kb_key(plans: List[Tuple[str, List[Tuple[str, int, List[str]]]]]) -> list:
    return [(plan_id, [(e, n, list(t)) for e, n, t in results])
            for plan_id, results in plans if results]


def kb_reply_key(payload: dict) -> list:
    """What a ``/kb/run`` reply must get right: per plan, each entry's
    occurrence count and rendered recommendation texts."""
    return kb_key([
        (p["planId"], [(r["entry"], r["occurrences"], r["recommendations"])
                       for r in p["results"]])
        for p in payload["plans"]
    ])


def kb_plan_results(plans: List[inputs.PlanInput]) -> Dict[str, list]:
    """Plan id -> what an in-process builtin KB run reports for it.

    A plan's KB results depend on that plan alone, so the right reply
    for any mix of variants is assembled from these, in workload order.
    """
    from repro import OptImatch
    from repro.kb import builtin_knowledge_base

    with OptImatch() as oracle:
        for plan in plans:
            oracle.load_explain_text(plan.text, plan.plan_id)
        report = oracle.run_knowledge_base(builtin_knowledge_base(), isolate=True)
    return {p.plan_id: [(r.entry_name, r.occurrence_count, r.texts()) for r in p.results]
            for p in report.plans}


def revision(n_plans: int, index: int) -> Tuple[int, int]:
    """Round *index*'s revision as ``(plan slot, variant)``: plans are
    revised in turn, each switching to its other variant (the preloaded
    plans are variant 0)."""
    return index % n_plans, (index // n_plans + 1) % 2


def triage_mixed(seed: int, seconds: int, work_dir: str, scale: Scale) -> Outcome:
    plans = inputs.make_plans(scale.preload_plans, seed, "qep")
    variants = (plans, inputs.make_revisions(plans, seed))
    harness = Harness(work_dir, scale)
    server = harness.setup(plans)
    kb_tally, ingest_tally = Tally(), Tally()
    # Variant each plan slot holds on the server, and per KB reply the
    # state it was answered in.
    current = [0] * len(plans)
    replies: List[Tuple[Tuple[int, ...], list]] = []
    # Rounds alternate the two connections: one revision acked on the
    # stream, then one KB run, which re-evaluates exactly that plan and
    # answers the others from the match cache.  Revisions cycle through
    # every plan, so the cold work has the workload's stratified sizes,
    # and each one changes that plan's right answer, so a stale cached
    # match fails the output check.  (Free-running loops made the
    # hit/cold mix a race between them; its spread across runs was
    # wider than any useful bound.)
    query = "ack=sync&batch=1&replace=1"
    stream = wire.IngestStream(server.port, query)
    conn = wire.Connection(server.port)
    cycles = max(1, round(scale.triage_rounds_per_second * seconds / len(plans)))
    try:
        started = time.perf_counter()
        for index in range(cycles * len(plans)):
            slot, variant = revision(len(plans), index)
            plan = variants[variant][slot]
            try:
                _, latency = stream.send_batch([wire.stream_record(plan.plan_id, plan.text)])
                ingest_tally.ok(latency)
                current[slot] = variant
            except wire.RequestFailed as exc:
                ingest_tally.fail(exc)
                stream.close()
                stream = wire.IngestStream(server.port, query)
            try:
                payload, latency = conn.request("POST", "/kb/run")
            except wire.RequestFailed as exc:
                kb_tally.fail(exc)
                continue
            kb_tally.ok(latency)
            replies.append((tuple(current), kb_reply_key(payload)))
        stream.finish()
        elapsed = time.perf_counter() - started
    except BaseException:
        stream.close()
        server.stop(kill=True)
        raise
    finally:
        conn.close()
    common, correct, problem = harness.finish(
        server, [p.plan_id for p in plans], sum(p.nbytes for p in plans))
    results = [kb_plan_results(v) for v in variants]
    changing = sum(1 for p in plans if results[0].get(p.plan_id) != results[1].get(p.plan_id))
    mismatches = 0
    for state, got in replies:
        want = kb_key([(p.plan_id, results[v].get(p.plan_id, []))
                       for p, v in zip(plans, state)])
        mismatches += got != want
    if mismatches:
        problem = problem or f"{mismatches} KB replies differ from the in-process report"
    return Outcome(
        {**op_metrics(kb_tally, elapsed), **common},
        kb_tally.attempted + ingest_tally.attempted,
        kb_tally.failed + ingest_tally.failed,
        correct and not mismatches,
        {"plans": len(plans), "input_bytes": sum(p.nbytes for p in plans),
         "revisions_acked": len(ingest_tally.samples),
         "plans_whose_revision_changes_the_answer": changing,
         "ingest_plans_per_s": len(ingest_tally.samples) / elapsed,
         "ingest_ack_p50_ms": statistics.median(ingest_tally.samples or [0.0]) * 1000.0,
         "kb_runs_checked": len(replies), "problem": problem,
         "errors": kb_tally.errors + ingest_tally.errors,
         "aliases": "op_p50_ms=kb_run_p50_ms op_p90_ms=kb_run_p90_ms"},
    )


WORKLOADS = {
    "ingest_durable": ingest_durable,
    "search_adhoc": search_adhoc,
    "triage_mixed": triage_mixed,
}
