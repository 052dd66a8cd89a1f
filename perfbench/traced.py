"""Traced run: the per-layer breakdown behind the end-to-end numbers.

The server runs in this process (:class:`repro.server.AsyncOptImatchServer`
on an ephemeral port) so that spans from both sides land in one
:class:`repro.obs.tracing.Tracer`:

* the engine's own spans (``search``, ``compile``, ``plan``,
  ``bgp-join``, ``tag-rebind`` and the ``closure-bfs`` events), by
  handing the tracer to the engine;
* spans this module opens around each layer's public functions
  (:data:`LAYER_SPANS`), installed only for the traced pass and removed
  afterwards.  Nothing under ``src/`` changes.

A client on the same loopback socket sends a fixed, seeded sequence of
the workload's primary operations, one at a time, so every counter
repeats exactly for a fixed seed.  Per operation, the client-side
latency splits into ``front.overhead_ms`` (HTTP and stream framing
outside the server's dispatch) plus the self time of every layer span
plus ``residual_ms`` (dispatch code no layer span covers); the three
add up to the latency by construction and the table printed before the
result shows the split.  The same sequence is then replayed untraced
on a fresh server, which gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import e2e
import inputs
import wire

#: Root span of one operation inside the server, by route.
ROOT_SPANS = ("dispatch", "stream.commit")

#: Span name -> (owner path, attribute) of the function it wraps.
LAYER_SPANS = {
    "dispatch": ("repro.server.aserver", "dispatch"),
    "stream.commit": ("repro.server.stream:StreamSession", "_commit"),
    "qep.parse": ("repro.core.optimatch", "parse_plan"),
    "qep.write": ("repro.qep.writer", "write_plan"),
    "transform": ("repro.core.optimatch", "transform_plan"),
    "wal.append": ("repro.store.wal:WalWriter", "append"),
    "wal.sync": ("repro.store.wal:WalWriter", "sync"),
    "checkpoint": ("repro.core.optimatch:OptImatch", "checkpoint"),
    "snapshot.encode": ("repro.rdf.snapshot", "encode_graph"),
    "recovery": ("repro.core.optimatch:OptImatch", "recover"),
    "sparqlgen": ("repro.core.engine", "pattern_to_sparql"),
    "sparql.prepare": ("repro.core.engine", "prepare_query"),
    "kb.run": ("repro.kb.knowledge_base:KnowledgeBase", "find_recommendations"),
    "kb.render": ("repro.kb.recommendation:Recommendation", "render"),
    "kb.rank": ("repro.kb.knowledge_base", "confidence_score"),
    "encode": ("repro.server.common", "encode_json"),
    "encode.stream": ("repro.server.stream", "encode_ndjson"),
}

#: Span name -> layer (module) for the reconciliation table.
LAYER_OF = {
    "qep.parse": "qep.parser", "qep.write": "qep.writer",
    "transform": "core.transform", "wal.append": "store.wal",
    "wal.sync": "store.wal", "checkpoint": "store.durable", "recovery": "store.durable",
    "snapshot.encode": "rdf.snapshot", "ingest-stream": "server.stream",
    "search": "core.engine", "plan": "core.engine", "compile": "core.engine",
    "sparqlgen": "core.sparqlgen", "sparql.prepare": "sparql.parser",
    "bgp-join": "sparql.evaluator", "closure-bfs": "sparql.evaluator",
    "closure-plan": "sparql.evaluator", "tag-rebind": "core.matcher",
    "kb.run": "kb", "kb.render": "kb", "kb.rank": "kb",
    "encode": "server.encode", "encode.stream": "server.encode",
}


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Recorder:
    """The tracer behind a traced pass, and the layer wrappers."""

    def __init__(self):
        from repro.obs.tracing import Tracer

        self.tracer = Tracer(enabled=True, max_spans=1_000_000)

    def take(self) -> list:
        spans = self.tracer.spans()
        self.tracer.clear()
        return spans

    @contextmanager
    def instrumented(self):
        """Wrap every function in :data:`LAYER_SPANS` for the ``with`` body."""
        restore = []
        for name, (path, attr) in LAYER_SPANS.items():
            owner = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            restore.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if name == "wal.append":
                    span.set_attr("bytes", result)
                elif name.startswith("encode"):
                    span.set_attr("bytes", len(result))
            return result

        return wrapper


def self_times(spans) -> Dict[str, float]:
    """Span name -> summed self time (seconds) over *spans*."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration - child_time[span.span_id]
    return out


def durations(spans, name: str) -> List[float]:
    return [s.duration for s in spans if s.name == name]


def mean_ms(values: List[float]) -> float:
    return statistics.fmean(values) * 1000.0 if values else 0.0


class InProcessServer:
    """The asyncio front in this process, durable, on an ephemeral port."""

    def __init__(self, data_dir: str, recorder: "Recorder | None"):
        from repro.server import AsyncOptImatchServer

        self.server = AsyncOptImatchServer(port=0, data_dir=data_dir, fsync_mode="batch")
        if recorder is not None:
            self.server.state.tool.engine.tracer = recorder.tracer
        self.server.start()
        self.port = self.server.address[1]
        deadline = time.perf_counter() + 120
        while wire.get_json(self.port, "/health")["status"] != "ok":
            if time.perf_counter() > deadline:
                raise RuntimeError("in-process server never became healthy")
            time.sleep(0.005)

    @property
    def tool(self):
        return self.server.state.tool

    def stop(self) -> None:
        self.server.stop()


# ----------------------------------------------------------------------
# Operation sequences (identical for the traced and untraced pass)
# ----------------------------------------------------------------------
class Session:
    """One pass: a server plus the ops sent to it."""

    def __init__(self, data_dir: str, recorder: "Recorder | None"):
        self.recorder = recorder
        self.server = InProcessServer(data_dir, recorder)
        self.conn = wire.Connection(self.server.port)
        #: (latency seconds, spans of that operation) per primary op.
        self.ops: List[Tuple[float, list]] = []
        #: What each primary op answered, to compare traced vs untraced.
        self.replies: list = []
        #: Spans per builtin probe request (query layers on every workload).
        self.probes: List[list] = []
        self.other_spans: list = []
        self.settle()  # start-up spans (recovery of the empty data dir)

    def _spans(self) -> list:
        return self.recorder.take() if self.recorder else []

    def settle(self) -> None:
        self.other_spans.extend(self._spans())

    def op_done(self, latency: float, reply) -> None:
        self.ops.append((latency, self._spans()))
        self.replies.append(reply)

    def preload(self, plans: List[inputs.PlanInput]) -> None:
        e2e.stream_preload(self.server.port, plans)
        self.settle()

    def ingest(self, plans: List[inputs.PlanInput], query: str, primary: bool) -> None:
        stream = wire.IngestStream(self.server.port, query)
        for plan in plans:
            # Timed from the first byte sent: the server starts its
            # commit as soon as the line is complete, which can be
            # before the client's send returns.
            started = time.perf_counter()
            ids, _ = stream.send_batch([wire.stream_record(plan.plan_id, plan.text)])
            latency = time.perf_counter() - started
            if ids != [plan.plan_id]:
                raise RuntimeError(f"ack for {ids}, sent {plan.plan_id}")
            if primary:
                self.op_done(latency, ids)
        stream.finish()
        self.settle()

    def search(self, pattern: dict, primary: bool) -> None:
        payload, latency = self.conn.request(
            "POST", "/search", json.dumps(pattern).encode("utf-8"))
        self._query_done(latency, e2e.search_reply_key(payload), primary)

    def kb_run(self, primary: bool) -> None:
        payload, latency = self.conn.request("POST", "/kb/run")
        self._query_done(latency, e2e.kb_reply_key(payload), primary)

    def _query_done(self, latency: float, reply, primary: bool) -> None:
        if primary:
            self.op_done(latency, reply)
        else:
            self.probes.append(self._spans())

    def close(self) -> None:
        self.conn.close()
        self.server.stop()
        self.settle()


def _probe_queries(session: Session) -> None:
    """Builtin A-D searches and one KB run: every query layer is called
    on every workload."""
    from repro.kb.builtin import make_pattern

    for letter in "ABCD":
        session.search(make_pattern(letter).to_json_object(), primary=False)
    session.kb_run(primary=False)


def _plans(workload: str, seed: int, seconds: int, scale: e2e.Scale):
    if workload == "ingest_durable":
        return inputs.make_plans(scale.ingest_plans_per_second * seconds, seed, "ing")
    return inputs.make_plans(scale.preload_plans, seed, "qep")


def _run_sequence(workload: str, seed: int, plans: List[inputs.PlanInput],
                  scale: e2e.Scale, data_dir: str,
                  recorder: "Recorder | None") -> Tuple[Session, dict]:
    """Drive one pass; returns the closed session and workload facts."""
    session = Session(data_dir, recorder)
    facts: Dict[str, object] = {"plans": plans}
    try:
        if workload == "ingest_durable":
            stats0 = session.server.tool.stats()
            session.ingest(plans, "ack=sync&batch=1", primary=True)
            facts["queries"] = []
        else:
            session.preload(plans)
            stats0 = session.server.tool.stats()
            if workload == "search_adhoc":
                variants = inputs.pattern_variants(seed)
                queries = [next(variants)[1] for _ in range(scale.searches)]
                for pattern in queries:
                    session.search(pattern, primary=True)
                facts["queries"] = queries[:8]
            else:
                variants = (plans, inputs.make_revisions(plans, seed))
                for round_no in range(scale.triage_rounds):
                    slot, variant = e2e.revision(len(plans), round_no)
                    session.ingest([variants[variant][slot]], "ack=sync&batch=1&replace=1",
                                   primary=False)
                    session.kb_run(primary=True)
                facts["queries"] = []
        facts["engine"] = (stats0, session.server.tool.stats())
        if recorder is not None:
            _probe_queries(session)
            tool = session.server.tool
            facts["explain"] = _explain(tool, facts["queries"], plans[:scale.explain_plans])
            facts["triples_per_plan"] = statistics.fmean(
                len(tool.plan(p.plan_id).graph) for p in plans)
    finally:
        session.close()
    return session, facts


def _explain(tool, queries: List[dict], plans: List[inputs.PlanInput]) -> dict:
    """EXPLAIN the workload's queries (builtin A-D when it has none)."""
    from repro.core import ProblemPattern
    from repro.kb.builtin import make_pattern

    patterns = ([ProblemPattern.from_json_object(q) for q in queries]
                or [make_pattern(letter) for letter in "ABCD"])
    ticks = 0
    q_errors: List[float] = []
    for pattern in patterns:
        for plan in plans:
            report = tool.explain(pattern, plan.plan_id)
            ticks += report.budget_ticks
            for profile in report.patterns:
                if profile.estimated is not None:
                    est, act = max(profile.estimated, 1.0), max(profile.outputs, 1)
                    q_errors.append(max(est / act, act / est))
    return {"ticks_per_query": ticks / len(patterns),
            "q_error": statistics.median(q_errors) if q_errors else 1.0}


def _recover(data_dir: str, recorder: Recorder) -> float:
    """Restart on the pass's data dir; returns the ``recovery`` span ms."""
    server = InProcessServer(data_dir, recorder)
    server.stop()
    return mean_ms(durations(recorder.take(), "recovery"))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _metrics(workload: str, traced: Session, untraced: Session, facts: dict,
             recovery_ms: float, data_dir: str) -> Tuple[dict, list]:
    op_spans = [spans for _, spans in traced.ops]
    all_spans = [s for spans in op_spans + traced.probes for s in spans] + traced.other_spans
    # Query-layer work per query request: the primary ops, or the probes
    # on ingest_durable, whose primary ops run no query.
    query_ops = traced.probes if workload == "ingest_durable" else op_spans
    query_spans = [s for spans in query_ops for s in spans]
    latencies = [latency for latency, _ in traced.ops]
    n_ops = len(traced.ops)
    plans = facts["plans"]
    input_bytes = sum(p.nbytes for p in plans)

    # Reconciliation: latency = front + layer self times + residual.
    layer_ms: Dict[str, float] = defaultdict(float)
    front = []
    for latency, spans in traced.ops:
        roots = [s for s in spans if s.name in ROOT_SPANS and s.parent_id is None]
        front.append(latency - sum(s.duration for s in roots))
        for name, seconds in self_times(spans).items():
            if name not in ROOT_SPANS:
                layer_ms[LAYER_OF.get(name, name)] += seconds * 1000.0 / n_ops
    op_ms = statistics.fmean(latencies) * 1000.0
    front_ms = statistics.fmean(front) * 1000.0
    residual_ms = op_ms - front_ms - sum(layer_ms.values())
    table = [("front (HTTP, framing)", front_ms)] + sorted(
        layer_ms.items(), key=lambda kv: -kv[1]) + [("residual", residual_ms), ("= op latency", op_ms)]

    encodes = [s for spans in op_spans + traced.probes for s in spans
               if s.name.startswith("encode")]
    stats0, stats1 = facts["engine"]
    hits = stats1["matchCache"]["hits"] - stats0["matchCache"]["hits"]
    misses = stats1["matchCache"]["misses"] - stats0["matchCache"]["misses"]

    bgp_rows = sum(s.attrs.get("rows", 0) for s in query_spans if s.name == "bgp-join")
    occurrences = sum(s.attrs.get("occurrences", 0)
                      for s in query_spans if s.name == "tag-rebind")
    closures = [s for s in query_spans
                if s.name == "closure-bfs" and not s.attrs.get("cached")]
    frontier = sum(sum(s.attrs.get("frontierSizes", [])[1:]) for s in closures)
    kb_runs = [s for s in all_spans if s.name == "kb.run"]
    kb_self = self_times(all_spans)
    checkpoints = durations(all_spans, "checkpoint")
    ckpt_files = [f for f in os.listdir(data_dir) if f.startswith("ckpt-")]
    traced_med = statistics.median(latencies)
    untraced_med = statistics.median([latency for latency, _ in untraced.ops])
    explain = facts["explain"]

    metrics = {
        "qep.parse_ms_per_plan": mean_ms(durations(all_spans, "qep.parse")),
        "qep.write_ms_per_plan": mean_ms(durations(all_spans, "qep.write")),
        "transform.ms_per_plan": mean_ms(durations(all_spans, "transform")),
        "transform.triples_per_plan": facts["triples_per_plan"],
        "wal.append_ms_per_batch": mean_ms(durations(all_spans, "wal.append")),
        "wal.sync_ms": mean_ms(durations(all_spans, "wal.sync")),
        "wal.bytes_per_input_byte": sum(
            s.attrs["bytes"] for s in all_spans if s.name == "wal.append") / input_bytes,
        "checkpoint.ms": mean_ms(checkpoints),
        "checkpoint.count": float(len(checkpoints)),
        "checkpoint.bytes": float(max(os.path.getsize(os.path.join(data_dir, f))
                                      for f in ckpt_files)),
        "snapshot.encode_ms_per_plan": mean_ms(durations(all_spans, "snapshot.encode")),
        "recovery.replay_ms": recovery_ms,
        "sparqlgen.compile_ms": mean_ms(durations(all_spans, "sparqlgen")),
        "sparql.prepare_ms": mean_ms(durations(all_spans, "sparql.prepare")),
        "planner.q_error": explain["q_error"],
        "evaluator.bgp_join_ms": statistics.fmean(
            self_times(spans).get("bgp-join", 0.0) for spans in query_ops) * 1000.0,
        "evaluator.closure_bfs_count": len(closures) / len(query_ops),
        "evaluator.closure_frontier_nodes": frontier / len(query_ops),
        "evaluator.visited_bindings": explain["ticks_per_query"],
        "evaluator.rows_per_occurrence": bgp_rows / max(1, occurrences),
        "matcher.tag_rebind_ms": statistics.fmean(
            self_times(spans).get("tag-rebind", 0.0) for spans in query_ops) * 1000.0,
        "engine.search_ms": mean_ms(durations(all_spans, "search")),
        "engine.match_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.plans_evaluated": float(
            stats1["plansEvaluated"] - stats0["plansEvaluated"]),
        "kb.render_ms": mean_ms(durations(all_spans, "kb.render")),
        "kb.rank_ms": mean_ms(durations(all_spans, "kb.rank")),
        "kb.overhead_ms": kb_self.get("kb.run", 0.0) * 1000.0 / max(1, len(kb_runs)),
        "front.overhead_ms": front_ms,
        "encode.ms_per_reply": mean_ms([s.duration for s in encodes]),
        "encode.bytes_per_reply": statistics.fmean(s.attrs["bytes"] for s in encodes),
        "op.latency_ms": op_ms,
        "residual_ms": residual_ms,
        "trace.overhead_frac": traced_med / untraced_med - 1.0,
    }
    return metrics, table


def run(workload: str, seed: int, seconds: int, work_dir: str,
        scale: e2e.Scale) -> e2e.Outcome:
    recorder = Recorder()
    traced_dir = os.path.join(work_dir, "traced")
    plans = _plans(workload, seed, seconds, scale)
    with recorder.instrumented():
        traced, facts = _run_sequence(workload, seed, plans, scale, traced_dir, recorder)
        recovery_ms = _recover(traced_dir, recorder)
    untraced, _ = _run_sequence(workload, seed, plans, scale,
                                os.path.join(work_dir, "plain"), None)
    metrics, table = _metrics(workload, traced, untraced, facts, recovery_ms, traced_dir)
    print(f"per-operation split over {len(traced.ops)} traced ops (ms):")
    for name, value in table:
        print(f"  {name:28s} {value:10.3f}")
    # Output check: tracing must not change a single reply.
    differing = sum(1 for a, b in zip(traced.replies, untraced.replies) if a != b)
    correct = not differing and len(traced.replies) == len(untraced.replies)
    return e2e.Outcome(
        metrics, attempted=len(traced.ops) + len(untraced.ops), failed=0, correct=correct,
        notes={"plans": len(plans), "input_bytes": sum(p.nbytes for p in plans),
               "split": dict(table),
               "problem": "" if correct else "traced replies differ from untraced ones"},
    )


WORKLOADS = {name: functools.partial(run, name) for name in e2e.WORKLOADS}
