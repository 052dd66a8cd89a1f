"""Cached workload matching engine.

The paper's headline evaluation (Figures 9-11) matches expert patterns
against a 1000-QEP customer workload.  :func:`repro.core.matcher.
find_matches` evaluates the compiled SPARQL serially over every plan
graph and recompiles / re-evaluates from scratch on every call; this
module wraps that per-plan primitive in an engine that makes the
workload-scale path fast:

* a **prepared-query cache** (LRU): pattern / SPARQL text -> parsed AST,
  so repeated searches and knowledge-base runs parse each query once;
* **per-plan match results** in each plan graph's per-version memo
  (kind ``"matches"``, keyed on the query text): re-running a search
  over an unchanged workload is near-free, and a mutated, replaced or
  removed plan takes only its own results with it.

Instrumentation (per-stage timings, cache hit/miss counters, worker
tasks, snapshot builds) lives in one place: the engine's
:class:`repro.obs.metrics.MetricsRegistry`, exported by the server's
``GET /metrics``.  Each search commits its counters once, inside the
engine lock, and :meth:`MatchingEngine.stats` reads them back under the
same lock, so its snapshots are always internally consistent (e.g.
``matchCache.hits == plansFromCache`` between searches) even while
other threads search the same engine; see ``tests/core/test_engine.py``
for the torn-read regression test.  Pass an enabled
:class:`repro.obs.tracing.Tracer` to get hierarchical spans
(``search → plan → compile → bgp-join → closure-bfs → tag-rebind``).

Execution: serial or processes
------------------------------
``workers`` is the one execution setting.  Per-plan evaluation is pure
Python, so on a standard (GIL) CPython build threads cannot run it in
parallel (a thread pool measured flat on the Fig-9 workload).  With
``workers`` of ``None`` or 1 the engine therefore evaluates every
uncached plan on the calling thread; it is still safe to share between
threads (the HTTP front runs several searches at once).

More than one worker selects the process tier, which actually uses the
cores: the workload's dictionary-encoded graphs are serialized once into
a shared-memory segment (:mod:`repro.core.shm`) and a persistent
spawn-context process pool evaluates chunks against zero-copy
:class:`repro.rdf.snapshot.GraphView` attachments
(:mod:`repro.core.mpexec`).  Results are marshalled back as compact
term-ID rows and replayed through the same de-transform/dedup code as
the in-process path, so output is bit-identical (values *and* order —
see ``tests/core/test_mp_engine.py``).  Budget deadlines are re-armed
in-worker from the remaining milliseconds at dispatch; a worker crash
surfaces as a ``PlanError(kind="crash")`` under ``search_isolated`` and
the pool respawns on the next search, while a task that merely raises
fails only its own chunk.  When shared memory is unavailable
(sandboxes) the engine degrades to the serial path and records why in
:attr:`MatchingEngine.mode_fallback`.  ``docs/scale-out.md`` covers the
segment layout and the attach lifecycle.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core import limits, mpexec
from repro.core.limits import Budget, BudgetExceeded, EvaluationTimeout, LimitError
from repro.core.matcher import PlanMatches, RowCollector, search_plan
from repro.core.pattern import ProblemPattern
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import TransformedPlan
from repro.obs.instrument import probing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, TracingProbe
from repro.rdf.graph import Graph
from repro.sparql import prepare_query
from repro.testing import chaos

#: Bound on distinct prepared queries kept in memory.
PREPARED_CACHE_SIZE = 128
#: Bound on match results per graph version, one per query text: above
#: the paper's largest KB (250 entries, Figure 11).
MAX_MATCHES_PER_GRAPH = 256


@dataclass
class PlanError:
    """Structured record of one plan's failed evaluation.

    Produced by :meth:`MatchingEngine.search_isolated` instead of
    letting the exception poison the whole batch.  ``kind`` is one of
    ``"timeout"`` (deadline), ``"budget"`` (row/binding cap),
    ``"crash"`` (a pool worker process died mid-evaluation; process
    mode only) or ``"error"`` (any other exception).
    """

    plan_id: str
    kind: str
    message: str
    elapsed_seconds: float = 0.0

    def to_json_object(self) -> dict:
        return {
            "planId": self.plan_id,
            "kind": self.kind,
            "message": self.message,
            "elapsedSeconds": round(self.elapsed_seconds, 6),
        }


@dataclass
class SearchResult:
    """Matches plus per-plan error records from one isolated search.

    Iterating yields the successful :class:`PlanMatches` (workload
    order), so consumers written against the plain-list API keep
    working; ``errors`` carries one :class:`PlanError` per failed plan
    and ``degraded`` flags a partial result set.
    """

    matches: List[PlanMatches] = field(default_factory=list)
    errors: List["PlanError"] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.errors)

    def __iter__(self):
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)


class LRUCache:
    """A small thread-compatible LRU map (callers hold the engine lock)."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("LRU cache size must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


def _chunked(items: Sequence, size: int) -> Iterable[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def default_worker_count() -> int:
    """Process-pool size for ``workers=0``: one worker per CPU.

    Pool workers are separate interpreters, so the GIL is irrelevant
    and every core helps.  (On a 1-CPU host that is 1, which makes the
    engine degrade gracefully to the serial path — processes cannot
    beat serial there.)
    """
    return os.cpu_count() or 1


class MatchingEngine:
    """Workload-scale pattern matching with caching.

    Parameters
    ----------
    workers:
        The execution setting.  ``None`` or 1 evaluates serially on the
        calling thread; more than one fans the per-plan evaluations out
        over a spawn-context process pool of that size, attached to
        shared-memory graph snapshots (see the module docstring); ``0``
        means one worker per CPU (:func:`default_worker_count`).  When
        ``0`` resolves to one worker, or shared memory is unavailable,
        the engine runs serially and records the reason in
        :attr:`mode_fallback`.  Searches whose query has no stable text
        key (pre-parsed ASTs) and plans whose graphs are not
        snapshot-capable use the in-process path per search.
        :attr:`mode` reports the tier in effect (``"serial"`` or
        ``"process"``).
    cache:
        Enable the prepared-query cache and the per-graph match results
        (shared by every caching engine searching the same graphs; each
        counts its own hits).  With ``False`` every search re-parses and
        re-evaluates, exactly like the bare
        :func:`repro.core.matcher.find_matches`.
    registry:
        Where the engine's counters live.  Omitted, the engine builds a
        private :class:`MetricsRegistry`.  Metrics are get-or-create, so
        a registry handed to several components (the server shares one
        between engine, knowledge base and store) holds one set of
        series; two engines given one registry therefore report the
        sum of their work in :meth:`stats`.
    tracer:
        A :class:`repro.obs.tracing.Tracer`; disabled by default.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        count = default_worker_count() if workers == 0 else (workers or 1)
        self.mode = "serial"
        self.mode_fallback: Optional[str] = None
        if count > 1 and mpexec.available():
            self.mode = "process"
        elif count > 1:
            self.mode_fallback = "shared memory unavailable; using serial path"
        elif workers == 0:
            self.mode_fallback = "single worker (1 CPU?); using serial path"
        self.workers = count if self.mode == "process" else 1
        self.cache_enabled = bool(cache)
        self._prepared = LRUCache(PREPARED_CACHE_SIZE)
        self._lock = threading.Lock()
        #: The one per-engine figure without a registry series: a label
        #: per plan id would make the series set unbounded.
        self._matches_per_plan: Dict[str, int] = {}
        self._mp_pool: Optional[ProcessPoolExecutor] = None
        self._snapshot = None  # repro.core.shm.WorkloadSnapshot
        # One snapshot build at a time; searches pin the snapshot their
        # tasks read so a rebuild never unlinks it under them.
        self._snapshot_lock = threading.Lock()
        self._pins: Dict[object, int] = {}
        # Worker pids mapped to "p0"/"p1"... slots in first-seen order:
        # pids are not acceptable metric label values (unbounded, differ
        # every run), and tests need deterministic workerTasks keys.
        self._worker_slots: Dict[int, str] = {}
        # Metric children are pre-bound here so the per-search cost is
        # plain counter increments; the tracer defaults to disabled (a
        # no-op span per stage).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._m_searches = self.registry.counter(
            "optimatch_engine_searches_total", "Workload searches executed"
        )
        plans = self.registry.counter(
            "optimatch_engine_plans_total",
            "Plans processed, by outcome",
            ("outcome",),
        )
        self._m_plans_evaluated = plans.labels("evaluated")
        self._m_plans_cached = plans.labels("cached")
        self._m_plans_error = plans.labels("error")
        lookups = self.registry.counter(
            "optimatch_engine_cache_lookups_total",
            "Cache lookups, by cache level and result",
            ("cache", "result"),
        )
        self._m_prepared_hit = lookups.labels("prepared", "hit")
        self._m_prepared_miss = lookups.labels("prepared", "miss")
        self._m_match_hit = lookups.labels("match", "hit")
        self._m_match_miss = lookups.labels("match", "miss")
        self._m_match_seeded = lookups.labels("match", "seeded")
        stage = self.registry.histogram(
            "optimatch_engine_stage_seconds",
            "Wall-clock seconds per engine stage, per search",
            ("stage",),
        )
        self._m_stage_prepare = stage.labels("prepare")
        self._m_stage_evaluate = stage.labels("evaluate")
        self._m_stage_total = stage.labels("total")
        self._m_matches = self.registry.counter(
            "optimatch_engine_matches_total", "Pattern occurrences found"
        )
        self._m_worker_tasks = self.registry.counter(
            "optimatch_engine_worker_tasks_total",
            "Chunk tasks executed, by execution mode and worker",
            ("mode", "worker"),
        )
        # One observation per build and per worker attach.
        snap = self.registry.histogram(
            "optimatch_engine_snapshot_seconds",
            "Shared-memory snapshot build/attach seconds",
            ("stage",),
        )
        self._m_snap_build = snap.labels("build")
        self._m_snap_attach = snap.labels("attach")
        mode_info = self.registry.gauge(
            "optimatch_engine_mode_info",
            "Active execution mode of the matching engine (1 = active)",
            ("mode",),
        )
        for known_mode in ("serial", "process"):
            mode_info.labels(known_mode).set(
                1.0 if known_mode == self.mode else 0.0
            )

    # ------------------------------------------------------------------
    # Query preparation (cache level 1)
    # ------------------------------------------------------------------
    def prepare(
        self, sparql_or_pattern: Union[str, ProblemPattern, object]
    ) -> Tuple[Optional[str], object]:
        """Resolve the input to ``(query_key, prepared AST)``.

        The key is the SPARQL text (patterns compile deterministically,
        so equal patterns share a key).  An already-prepared AST has no
        stable key and bypasses both caches.
        """
        started = time.perf_counter()
        hits = misses = 0
        try:
            with self.tracer.span("compile"):
                if isinstance(sparql_or_pattern, ProblemPattern):
                    text = pattern_to_sparql(sparql_or_pattern)
                elif isinstance(sparql_or_pattern, str):
                    text = sparql_or_pattern
                else:
                    return None, sparql_or_pattern
                if not self.cache_enabled:
                    misses = 1
                    return text, prepare_query(text)
                with self._lock:
                    ast = self._prepared.get(text)
                    if ast is not None:
                        hits = 1
                        return text, ast
                misses = 1
                ast = prepare_query(text)  # parse outside the lock
                with self._lock:
                    self._prepared.put(text, ast)
                return text, ast
        finally:
            # Single atomic commit: a concurrent stats() never sees the
            # hit/miss counters and the timing out of step.
            elapsed = time.perf_counter() - started
            with self._lock:
                if hits:
                    self._m_prepared_hit.inc()
                elif misses:
                    self._m_prepared_miss.inc()
                self._m_stage_prepare.observe(elapsed)

    # ------------------------------------------------------------------
    # Search (cache level 2: each plan graph's memo)
    # ------------------------------------------------------------------
    def search(
        self,
        sparql_or_pattern: Union[str, ProblemPattern, object],
        workload: Iterable[TransformedPlan],
        keep_empty: bool = False,
    ) -> List[PlanMatches]:
        """Match a pattern against every plan, in workload order.

        Mirrors :func:`repro.core.matcher.find_matches`: plans without
        occurrences are dropped unless *keep_empty* is set (one
        :class:`PlanMatches` per plan then).  An exception anywhere
        aborts the whole search; for per-plan fault containment and
        resource budgets use :meth:`search_isolated`.
        """
        matches, _ = self._search(
            sparql_or_pattern, workload, keep_empty, budget=None, isolate=False
        )
        return matches

    def search_isolated(
        self,
        sparql_or_pattern: Union[str, ProblemPattern, object],
        workload: Iterable[TransformedPlan],
        keep_empty: bool = False,
        budget: Optional[Budget] = None,
    ) -> SearchResult:
        """Fault-isolated search: one bad plan cannot poison the batch.

        Every plan is evaluated under *budget* (deadline / row / visited
        -binding caps; shared across the whole batch).  A plan that
        times out, exhausts the budget or raises produces a structured
        :class:`PlanError` in :attr:`SearchResult.errors` while the
        remaining plans still return their matches; once the deadline
        has passed, not-yet-evaluated plans short-circuit to ``timeout``
        errors without doing any work.  Errored plans are never cached.
        """
        matches, errors = self._search(
            sparql_or_pattern, workload, keep_empty, budget=budget, isolate=True
        )
        return SearchResult(matches=matches, errors=errors)

    def _search(
        self,
        sparql_or_pattern: Union[str, ProblemPattern, object],
        workload: Iterable[TransformedPlan],
        keep_empty: bool,
        budget: Optional[Budget],
        isolate: bool,
    ) -> Tuple[List[PlanMatches], List[PlanError]]:
        started = time.perf_counter()
        with self.tracer.span("search") as search_span:
            key, ast = self.prepare(sparql_or_pattern)
            plans = list(workload)
            results: List[Optional[Union[PlanMatches, PlanError]]] = [None] * len(plans)
            pending: List[Tuple[int, TransformedPlan]] = []

            # Cache-lookup phase: counts hits/misses into LOCALS only.
            # Committing them here and the derived counters (plans_from
            # _cache etc.) later is the torn-read bug this replaced — a
            # stats() between the two sections saw match_hits already
            # bumped with plansFromCache still stale.  Each result goes
            # into the memo fetched here, so if the graph mutates
            # meanwhile it lands in the superseded memo, which no later
            # search reads.  It holds only the occurrences: a PlanMatches
            # refers back to the graph, a cycle only full GC would free.
            match_hits = match_misses = 0
            use_cache = self.cache_enabled and key is not None
            memos: List[dict] = []
            if use_cache:
                for index, transformed in enumerate(plans):
                    memo = transformed.graph.memo("matches")
                    memos.append(memo)
                    occurrences = memo.get(key)
                    if occurrences is not None:
                        match_hits += 1
                        results[index] = PlanMatches(
                            transformed, list(occurrences)
                        )
                    else:
                        match_misses += 1
                        pending.append((index, transformed))
            else:
                pending = list(enumerate(plans))

            evaluate_started = time.perf_counter()
            evaluated = self._evaluate(
                ast, pending, budget=budget, isolate=isolate, key=key
            )
            evaluate_seconds = time.perf_counter() - evaluate_started
            error_count = 0
            match_count = 0
            for index, transformed, result in evaluated:
                results[index] = result
                if isinstance(result, PlanError):
                    error_count += 1
                    continue  # never cache failures — they may be transient
                if use_cache:
                    transformed.graph.memo_insert(
                        memos[index],
                        key,
                        tuple(result.occurrences),
                        MAX_MATCHES_PER_GRAPH,
                    )
            with self._lock:
                per_plan = self._matches_per_plan
                for result in results:
                    if isinstance(result, PlanMatches) and result.count:
                        match_count += result.count
                        per_plan[result.plan_id] = (
                            per_plan.get(result.plan_id, 0) + result.count
                        )
                # The one atomic commit for this search: every counter a
                # stats() invariant relates (match hits vs cached plans,
                # plans seen vs evaluated+cached) moves in the same
                # critical section that stats() reads under.
                self._m_searches.inc()
                self._m_match_hit.inc(match_hits)
                self._m_match_miss.inc(match_misses)
                self._m_plans_evaluated.inc(len(evaluated) - error_count)
                self._m_plans_cached.inc(len(plans) - len(evaluated))
                self._m_plans_error.inc(error_count)
                self._m_matches.inc(match_count)
                self._m_stage_evaluate.observe(evaluate_seconds)
                self._m_stage_total.observe(time.perf_counter() - started)
            search_span.set_attr("plans", len(plans))
            search_span.set_attr("evaluated", len(evaluated))
            search_span.set_attr("cached", len(plans) - len(evaluated))
            matches = [
                r
                for r in results
                if isinstance(r, PlanMatches) and (keep_empty or r)
            ]
            errors = [r for r in results if isinstance(r, PlanError)]
            return matches, errors

    def matching_plan_ids(
        self,
        sparql_or_pattern: Union[str, ProblemPattern, object],
        workload: Iterable[TransformedPlan],
    ) -> List[str]:
        return [m.plan_id for m in self.search(sparql_or_pattern, workload)]

    def _evaluate(
        self,
        ast: object,
        pending: Sequence[Tuple[int, TransformedPlan]],
        budget: Optional[Budget] = None,
        isolate: bool = False,
        key: Optional[str] = None,
    ) -> List[Tuple[int, TransformedPlan, Union[PlanMatches, "PlanError"]]]:
        """Evaluate the uncached plans: over the process pool in process
        mode, otherwise one after another on the calling thread.

        With *isolate*, per-plan failures become :class:`PlanError`
        entries instead of propagating; *budget* is installed as the
        active evaluation budget around each plan.  Each path records
        its own worker tasks (and snapshot builds/attaches) in the
        registry as they happen.
        """
        if not pending:
            return []
        if self.mode == "process" and key is not None and len(pending) > 1:
            out = self._evaluate_process(key, pending, budget, isolate)
            if out is not None:
                return out
        tracing = self.tracer.enabled
        tracer = self.tracer if tracing else None

        def eval_one(index, transformed):
            if budget is not None and budget.expired():
                # Deadline already blown: fail the remaining plans fast
                # instead of burning more wall-clock on a lost cause.
                return (
                    index,
                    transformed,
                    PlanError(
                        plan_id=transformed.plan_id,
                        kind="timeout",
                        message="deadline expired before evaluation started",
                        elapsed_seconds=0.0,
                    ),
                )
            plan_started = time.perf_counter()
            span_ctx = (
                self.tracer.span("plan", planId=transformed.plan_id)
                if tracing
                else nullcontext()
            )
            # The closure-bfs probe is installed only while tracing —
            # the disabled path must not pay for (or shadow) a probe.
            probe_ctx = (
                probing(TracingProbe(self.tracer)) if tracing else nullcontext()
            )
            try:
                with span_ctx, probe_ctx, limits.activate(budget):
                    return (
                        index,
                        transformed,
                        search_plan(ast, transformed, tracer=tracer),
                    )
            except LimitError as exc:
                if not isolate:
                    raise
                kind = exc.kind
                message = str(exc)
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                if not isolate:
                    raise
                kind = "error"
                message = f"{type(exc).__name__}: {exc}"
            return (
                index,
                transformed,
                PlanError(
                    plan_id=transformed.plan_id,
                    kind=kind,
                    message=message,
                    elapsed_seconds=time.perf_counter() - plan_started,
                ),
            )

        out = [eval_one(index, transformed) for index, transformed in pending]
        with self._lock:
            self._m_worker_tasks.labels(self.mode, "serial").inc()
        return out

    # ------------------------------------------------------------------
    # Process-mode dispatch
    # ------------------------------------------------------------------
    def _pin_snapshot(self, plans: Sequence[TransformedPlan]):
        """The shared-memory snapshot holding *plans*, pinned until
        :meth:`_unpin_snapshot`, and each plan's ``(offset, length)``
        in it.

        The current snapshot serves when every plan's graph memo names
        it (:meth:`repro.core.shm.WorkloadSnapshot.locate`); otherwise
        one is built, one build at a time.  A rebuild retires the old
        segment only once no search still has it pinned — their tasks
        may not have attached it yet.  The returned locations are what
        the tasks read, so a graph mutated after the pin is still
        evaluated against the image it was pinned with.
        """
        from repro.core.shm import WorkloadSnapshot

        retired = None
        with self._snapshot_lock:
            snapshot = self._snapshot
            locations = None if snapshot is None else snapshot.locate(plans)
            if locations is None:
                started = time.perf_counter()
                snapshot = WorkloadSnapshot(plans)
                locations = snapshot.locations
                build_seconds = time.perf_counter() - started
                if self.tracer.enabled:
                    self.tracer.event(
                        "snapshot-build",
                        segment=snapshot.name,
                        plans=len(plans),
                        bytes=snapshot.total_bytes,
                        seconds=round(build_seconds, 6),
                    )
                with self._lock:
                    self._m_snap_build.observe(build_seconds)
                    retired, self._snapshot = self._snapshot, snapshot
                    if retired in self._pins:
                        retired = None  # its last unpin closes it
            with self._lock:
                self._pins[snapshot] = self._pins.get(snapshot, 0) + 1
        if retired is not None:
            retired.close()
        return snapshot, locations

    def _unpin_snapshot(self, snapshot) -> None:
        with self._lock:
            left = self._pins.pop(snapshot) - 1
            if left:
                self._pins[snapshot] = left
            retired = not left and snapshot is not self._snapshot
        if retired:
            snapshot.close()

    def _evaluate_process(
        self,
        key: str,
        pending: Sequence[Tuple[int, TransformedPlan]],
        budget: Optional[Budget],
        isolate: bool,
    ) -> Optional[List[Tuple[int, TransformedPlan, Union[PlanMatches, "PlanError"]]]]:
        """Fan the pending plans out over the process pool.

        Returns ``None`` when this search cannot use the pool (a plan
        graph that cannot be snapshotted, or the snapshot build failed —
        e.g. ``/dev/shm`` exhausted); the caller then degrades to the
        in-process path for this search.
        """
        if not all(isinstance(t.graph, Graph) for _, t in pending):
            return None
        try:
            snapshot, locations = self._pin_snapshot([t for _, t in pending])
        except Exception:  # noqa: BLE001 — degrade, never fail the search
            return None
        try:
            return self._run_chunks(
                snapshot.name, locations, key, pending, budget, isolate
            )
        finally:
            self._unpin_snapshot(snapshot)

    def _run_chunks(
        self,
        segment: str,
        locations: Sequence[Tuple[int, int]],
        key: str,
        pending: Sequence[Tuple[int, TransformedPlan]],
        budget: Optional[Budget],
        isolate: bool,
    ) -> List[Tuple[int, TransformedPlan, Union[PlanMatches, "PlanError"]]]:
        chaos_spec = chaos.export_spec() if chaos.active else None
        budget_spec = None
        if budget is not None:
            budget_spec = (
                budget.remaining_ms(), budget.max_rows, budget.max_bindings,
            )
        size = max(1, len(pending) // (self.workers * 4))
        pool = self._mp_executor()
        submissions = []
        for chunk, where in zip(
            _chunked(list(pending), size), _chunked(locations, size)
        ):
            task = {
                "segment": segment,
                "chunk": [
                    (t.plan_id,) + location
                    for (_, t), location in zip(chunk, where)
                ],
                "query": key,
                "budget": budget_spec,
                "chaos": chaos_spec,
            }
            submissions.append((chunk, pool.submit(mpexec.worker_run_chunk, task)))
        tracing = self.tracer.enabled
        out: List[Tuple[int, TransformedPlan, Union[PlanMatches, PlanError]]] = []
        crashed = False
        for chunk, future in submissions:
            try:
                payload = future.result()
            except BrokenProcessPool as exc:
                # A worker process died: the pool is unusable, so every
                # chunk still on it fails and the pool is replaced.
                crashed = True
                if not isolate:
                    self._discard_mp_pool(pool)
                    raise RuntimeError(
                        f"matching worker process died: {exc}"
                    ) from exc
                kind, message = "crash", f"worker process died: {exc}"
            except Exception as exc:  # noqa: BLE001 — the task raised
                # The worker survives; only this chunk fails.
                if not isolate:
                    raise
                kind, message = "error", f"{type(exc).__name__}: {exc}"
            else:
                out.extend(self._replay(chunk, payload, tracing, isolate))
                continue
            out.extend(
                (
                    index,
                    transformed,
                    PlanError(
                        plan_id=transformed.plan_id, kind=kind, message=message
                    ),
                )
                for index, transformed in chunk
            )
        if crashed:
            # Drop the broken executor so the next search spawns a fresh
            # pool (the snapshot segment is still valid).
            self._discard_mp_pool(pool)
        return out

    def _replay(
        self, chunk, payload: dict, tracing: bool, isolate: bool
    ) -> List[Tuple[int, TransformedPlan, Union[PlanMatches, "PlanError"]]]:
        """Record one finished task and decode its per-plan outcomes."""
        with self._lock:
            worker = self._worker_slot(payload["pid"])
            self._m_worker_tasks.labels(self.mode, worker).inc()
            if payload["attachSeconds"]:
                self._m_snap_attach.observe(payload["attachSeconds"])
        if tracing and payload["attachSeconds"]:
            self.tracer.event(
                "snapshot-attach",
                worker=worker,
                seconds=round(payload["attachSeconds"], 6),
            )
        out = []
        for (index, transformed), outcome in zip(chunk, payload["outcomes"]):
            if outcome[0] == "ok":
                _, rows, eval_seconds = outcome
                collector = RowCollector(transformed)
                graph = transformed.graph
                decode = mpexec.decode_term
                for row in rows:
                    collector.add(
                        (name, decode(graph, value)) for name, value in row
                    )
                if tracing:
                    self.tracer.event(
                        "mp-plan",
                        planId=transformed.plan_id,
                        worker=worker,
                        evalSeconds=round(eval_seconds, 6),
                    )
                out.append((index, transformed, collector.result))
                continue
            _, kind, message, eval_seconds = outcome
            if not isolate:
                if kind == "timeout":
                    raise EvaluationTimeout(message)
                if kind == "budget":
                    raise BudgetExceeded(message)
                raise RuntimeError(message)
            out.append(
                (
                    index,
                    transformed,
                    PlanError(
                        plan_id=transformed.plan_id,
                        kind=kind,
                        message=message,
                        elapsed_seconds=eval_seconds,
                    ),
                )
            )
        return out

    def _worker_slot(self, pid: int) -> str:
        """The ``p<n>`` slot for a worker pid (caller holds the lock)."""
        slot = self._worker_slots.get(pid)
        if slot is None:
            slot = f"p{len(self._worker_slots)}"
            self._worker_slots[pid] = slot
        return slot

    def _mp_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._mp_pool is None:
                self._mp_pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=mpexec.worker_init,
                )
            return self._mp_pool

    def _discard_mp_pool(self, pool: ProcessPoolExecutor) -> None:
        """Shut a broken *pool* down; the next search spawns a new one.

        Only *pool* is dropped: when several searches see the same
        crash, a later discard must not take down a replacement pool
        another search has already started on.
        """
        with self._lock:
            if self._mp_pool is pool:
                self._mp_pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Instrumentation / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters, timings and cache occupancy, read from the registry.

        Read under the engine lock that every search commits under, so
        a snapshot never shows a half-committed search.  Reading creates
        no series.  With a registry shared by several engines the
        counters are their sum (``matchesPerPlan`` stays per engine).
        """
        with self._lock:
            evaluated = int(self._m_plans_evaluated.value)
            cached = int(self._m_plans_cached.value)
            errors = int(self._m_plans_error.value)
            hits = int(self._m_match_hit.value)
            misses = int(self._m_match_miss.value)
            lookups = hits + misses
            worker_tasks: Dict[str, int] = {}
            for sample in self._m_worker_tasks.snapshot().samples:
                worker = dict(sample.labels)["worker"]
                worker_tasks[worker] = worker_tasks.get(worker, 0) + int(
                    sample.value
                )
            return {
                "searches": int(self._m_searches.value),
                "plansSeen": evaluated + errors + cached,
                "plansEvaluated": evaluated + errors,
                "plansFromCache": cached,
                "planErrors": errors,
                "preparedCache": {
                    "hits": int(self._m_prepared_hit.value),
                    "misses": int(self._m_prepared_miss.value),
                    "size": len(self._prepared),
                },
                "matchCache": {
                    "hits": hits,
                    "misses": misses,
                    "seeded": int(self._m_match_seeded.value),
                    "hitRate": round(hits / lookups if lookups else 0.0, 4),
                },
                "timings": {
                    "prepareSeconds": round(self._m_stage_prepare.sum, 6),
                    "evaluateSeconds": round(self._m_stage_evaluate.sum, 6),
                    "totalSeconds": round(self._m_stage_total.sum, 6),
                },
                "matchesPerPlan": dict(self._matches_per_plan),
                "mode": self.mode,
                "workerTasks": worker_tasks,
                "snapshot": {
                    "builds": self._m_snap_build.count,
                    "buildSeconds": round(self._m_snap_build.sum, 6),
                    "attaches": self._m_snap_attach.count,
                    "attachSeconds": round(self._m_snap_attach.sum, 6),
                },
                "workers": self.workers,
                "cacheEnabled": self.cache_enabled,
                "modeFallback": self.mode_fallback,
            }

    def seed_match_cache(self, query: str, matches: PlanMatches) -> bool:
        """Pre-load one recovered result for *query* into its plan
        graph's memo; False when caching is off.

        Seeded entries are counted separately from hits/misses (``
        stats()["matchCache"]["seeded"]``), so recovery tests can assert
        exactly which plans were re-armed versus re-matched.
        """
        if not self.cache_enabled:
            return False
        graph = matches.transformed.graph
        graph.memo_insert(
            graph.memo("matches"),
            query,
            tuple(matches.occurrences),
            MAX_MATCHES_PER_GRAPH,
        )
        with self._lock:
            self._m_match_seeded.inc()
        return True

    def close(self) -> None:
        """Shut the process pool down and release the shared-memory snapshot.

        Idempotent.  After this returns no ``/dev/shm`` segment created
        by this engine survives (the snapshot also has a
        ``weakref.finalize`` and a module ``atexit`` hook as backstops
        for engines that are never closed explicitly).
        """
        with self._lock:
            mp_pool, self._mp_pool = self._mp_pool, None
            snapshot, self._snapshot = self._snapshot, None
        if mp_pool is not None:
            mp_pool.shutdown(wait=True)
        if snapshot is not None:
            snapshot.close()

    def __enter__(self) -> "MatchingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
