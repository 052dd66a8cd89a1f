"""The OptImatch facade: workload loading, pattern search, KB runs.

This is the top-level entry point a downstream user interacts with::

    from repro import OptImatch
    tool = OptImatch()                        # cached matching engine
    tool.load_workload_dir("explains/")       # or add_plan / load files
    matches = tool.search(pattern)            # ad-hoc pattern search
    report = tool.run_knowledge_base(kb)      # routinized plan checks
    print(tool.stats())                       # cache hits, timings

Plans are transformed to RDF once and cached; every subsequent search or
knowledge-base run reuses the cached graphs, mirroring the architecture
of Figure 4 (transformation engine feeding the matching engine).  All
searches go through a :class:`repro.core.engine.MatchingEngine`, which
adds a prepared-query cache, match results memoized on each plan's
graph, and — with ``workers`` above one — a shared-memory process
pool (``OptImatch(workers=4)``; see docs/scale-out.md).

Workload loads are atomic: every add and replace, one plan or a batch,
stages the whole batch (parsing, transforming and checking for
duplicate ids) before committing anything, so a failure mid-directory
leaves the workload exactly as it was.

With a *data_dir* the facade becomes durable: every workload mutation is
journaled through :class:`repro.store.DurableStore` before it is
applied, periodic checkpoints bound recovery time, and a restart with
the same directory recovers the workload — and re-arms the cached
match results of every plan whose graph is unchanged.  See
docs/durability.md.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.engine import MatchingEngine, SearchResult
from repro.core.limits import Budget
from repro.core.matcher import PlanMatches, PlanNode, RowCollector
from repro.core.pattern import ProblemPattern
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import TransformedPlan, transform_plan
from repro.qep.model import PlanGraph, PlanOperator
from repro.qep.parser import parse_plan
from repro.store import (
    DEFAULT_CHECKPOINT_EVERY,
    DurabilityError,
    DurableStore,
    RecoveryInfo,
    compose_version,
)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _node_key(node: PlanNode) -> Union[int, str]:
    """How a checkpointed cache row names a plan node: an operator by
    its number, a base object by its qualified name."""
    if isinstance(node, PlanOperator):
        return node.number
    return node.qualified_name


def _node_resource(transformed: TransformedPlan, key: Union[int, str]):
    """The resource of the plan node :func:`_node_key` named *key*."""
    if isinstance(key, int):
        return transformed.pop_resources.get(key)
    return transformed.object_resources.get(key)


class OptImatch:
    """Query performance problem determination over a QEP workload.

    *workers*, *cache*, *registry* and *tracer* configure the matching
    engine: more than one worker evaluates on a shared-memory pool of
    that many processes, ``0`` on one per CPU, and anything else
    serially (see ``docs/scale-out.md``); caching is on by default.

    *data_dir* turns on durability (``docs/durability.md``): mutations
    are journaled with the given *fsync* policy (``fsync`` / ``batch`` /
    ``async``) and checkpointed every *checkpoint_every* journal
    records.  Recovery runs in the constructor unless *defer_recovery*
    is set, in which case every mutation raises
    :class:`repro.store.DurabilityError` until :meth:`recover` is called
    (the server uses this to come up in a ``recovering`` state and
    replay in the background).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: bool = True,
        registry=None,
        tracer=None,
        data_dir: Optional[str] = None,
        fsync: str = "batch",
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        defer_recovery: bool = False,
    ):
        self._workload: List[TransformedPlan] = []
        self._by_id: Dict[str, TransformedPlan] = {}
        #: Monotonic per-plan-id revisions, so a replaced or re-added
        #: plan never reuses a graph version: the process tier's snapshot
        #: ``covers`` and recovery's seeding both compare versions.
        self._revisions: Dict[str, int] = {}
        self._recovered_kb: List[dict] = []
        self._engine = MatchingEngine(
            workers=workers, cache=cache, registry=registry, tracer=tracer
        )
        self._store: Optional[DurableStore] = None
        self._recovery_pending = False
        if data_dir is not None:
            self._store = DurableStore(
                data_dir,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
                registry=self._engine.registry,
            )
            self._recovery_pending = True
            if not defer_recovery:
                self.recover()

    def close(self) -> None:
        """Release engine resources: with more than one worker, the
        process pool and the shared-memory snapshot segment.  With durability on, flushes
        the journal and writes a final checkpoint first (unless recovery
        never completed — closing a still-``recovering`` store must not
        checkpoint an empty workload over real data).  Idempotent."""
        if self._store is not None:
            if (
                not self._recovery_pending
                and self._store.state == "ready"
                and self._store.records_since_checkpoint > 0
            ):
                try:
                    self.checkpoint()
                except DurabilityError:
                    pass  # close() must not raise; journal is intact
            self._store.close()
        self._engine.close()

    def __enter__(self) -> "OptImatch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Workload management
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._recovery_pending:
            raise DurabilityError(
                "recovery pending: call recover() before mutating the workload"
            )

    @staticmethod
    def _stamp(transformed: TransformedPlan, revision: int) -> None:
        """Compose the plan revision into the graph version (see
        :func:`repro.store.compose_version`): distinct across replaces,
        deterministic across recovery."""
        transformed.graph.stamp_version(
            compose_version(revision, transformed.graph.version)
        )

    @staticmethod
    def _journal_source(
        transformed: TransformedPlan, text: Optional[str]
    ) -> str:
        """The explain source recovery re-parses: the *text* the plan
        was parsed from, byte for byte, or — for a plan handed in as a
        :class:`PlanGraph` — the writer's serialization of it."""
        if text is not None:
            return text
        from repro.qep.writer import write_plan

        return write_plan(transformed.plan)

    def _maybe_checkpoint(self) -> None:
        if self._store is not None and self._store.should_checkpoint:
            try:
                self.checkpoint()
            except DurabilityError:
                # The mutation that triggered this checkpoint is already
                # journaled AND applied — it must be acked as a success,
                # or the client would retry a durably-committed write
                # (duplicate ingestion).  The failed checkpoint has
                # latched the store read-only (metric + health reason),
                # so the *next* mutation surfaces the 503.
                pass

    def add_plan(self, plan: PlanGraph) -> TransformedPlan:
        """Transform *plan* and add it to the workload."""
        return self._commit([(transform_plan(plan), None)])[0]

    def replace_plan(self, plan: PlanGraph) -> TransformedPlan:
        """Replace the workload plan with the same id (add when absent).

        The replacement gets a fresh revision, so its stamped graph
        version differs from the old plan's even when both graphs have
        the same triple count.
        """
        return self._commit([(transform_plan(plan), None)], replace=True)[0]

    def replace_explain_text(
        self, text: str, plan_id: Optional[str] = None
    ) -> TransformedPlan:
        """Parse explain *text* and replace the same-id plan (add when
        absent), journaling *text* itself — the ``?replace=1`` ingest
        routes.  Accepts the same inputs as :meth:`load_explain_text`."""
        return self.load_explain_batch([text], [plan_id], replace=True)[0]

    def remove_plan(self, plan_id: str) -> None:
        """Remove one plan from the workload (KeyError when absent)."""
        if plan_id not in self._by_id:
            raise KeyError(plan_id)
        self._check_writable()
        if self._store is not None:
            self._store.record_remove(plan_id)
        transformed = self._by_id.pop(plan_id)
        self._workload.remove(transformed)
        self._maybe_checkpoint()

    def add_plans(self, plans: Iterable[PlanGraph]) -> None:
        """Transform and add a batch of plans, atomically.

        The whole batch is staged first (duplicate ids — against the
        current workload *and* within the batch — and transform errors
        surface before anything is added), then committed; on error the
        workload is unchanged.
        """
        self._commit((transform_plan(plan), None) for plan in plans)

    def _commit(
        self,
        staged: Iterable[Tuple[TransformedPlan, Optional[str]]],
        replace: bool = False,
    ) -> List[TransformedPlan]:
        """Commit a staged batch of ``(transformed plan, source text)``
        pairs (see :meth:`_journal_source` for the text) — the one path
        every add and replace takes.  Returns the committed plans in
        input order.

        Without *replace*, a plan id already in the workload or repeated
        within the batch raises :class:`ValueError` before anything
        changes.  With it, each plan upserts in place, keeping its
        workload position; an id repeated in the batch takes successive
        revisions and its last copy wins.

        With durability on the whole batch is journaled as ONE record,
        so it is atomic across a crash too: either every plan in the
        batch recovers or none does.  A journal failure
        (:class:`DurabilityError`) leaves workload and revisions as
        they were.
        """
        self._check_writable()
        batch: List[Tuple[TransformedPlan, Optional[str], int]] = []
        revisions: Dict[str, int] = {}  # this batch's allocations
        for transformed, text in staged:
            plan_id = transformed.plan_id
            duplicate = plan_id in self._by_id or plan_id in revisions
            if duplicate and not replace:
                raise ValueError(f"duplicate plan id {plan_id!r} in workload")
            revision = 1 + revisions.get(
                plan_id, self._revisions.get(plan_id, 0)
            )
            revisions[plan_id] = revision
            self._stamp(transformed, revision)
            batch.append((transformed, text, revision))
        if self._store is not None and batch:
            self._store.record_plans(
                [
                    (t.plan_id, revision, self._journal_source(t, text))
                    for t, text, revision in batch
                ]
            )
        self._revisions.update(revisions)
        for transformed, _, _ in batch:
            existing = self._by_id.get(transformed.plan_id)
            if existing is not None:
                self._workload[self._workload.index(existing)] = transformed
            else:
                self._workload.append(transformed)
            self._by_id[transformed.plan_id] = transformed
        self._maybe_checkpoint()
        return [transformed for transformed, _, _ in batch]

    @staticmethod
    def _parse_explain(text: str, plan_id: Optional[str] = None) -> PlanGraph:
        """Parse explain *text*: full explain files (Plan Details
        section) or bare ASCII tree snippets like the paper's Figure 1."""
        if "Plan Details:" in text:
            return parse_plan(text, plan_id)
        from repro.qep.tree_parser import parse_tree

        return parse_tree(text, plan_id or "tree-snippet")

    def load_explain_text(self, text: str, plan_id: Optional[str] = None) -> TransformedPlan:
        """Parse explain *text* and add the plan to the workload.

        Accepts both full explain files (Plan Details section) and bare
        ASCII tree snippets like the paper's Figure 1.  With durability
        on, *text* itself is journaled, so recovery re-parses the same
        bytes with the same parser.
        """
        return self.load_explain_batch([text], [plan_id])[0]

    def load_explain_batch(
        self,
        texts: Iterable[str],
        plan_ids: Optional[Iterable[Optional[str]]] = None,
        replace: bool = False,
    ) -> List[TransformedPlan]:
        """Parse and add a batch of explain texts, atomically; returns
        the committed plans in input order.

        Like :meth:`add_plans`, the batch is all-or-nothing — including
        across a crash when durability is on (one journal record).
        *plan_ids*, when given, pairs an explicit id with each text
        (``None`` entries keep the parsed/default id) — the streaming
        ingest route uses this so tree snippets, whose default id is
        shared, can be batched.  A *plan_ids* of another length than
        *texts* raises :class:`ValueError` before anything is parsed.
        Explicit ids survive recovery: the journal records
        ``(plan_id, text)`` and replay re-parses the text with the
        recorded id.  *replace* upserts each plan by id (the
        ``?replace=1`` ingest routes; see :meth:`_commit`).
        """
        texts = list(texts)
        ids = [None] * len(texts) if plan_ids is None else list(plan_ids)
        if len(ids) != len(texts):
            raise ValueError(
                f"{len(ids)} plan ids for {len(texts)} explain texts"
            )
        plans = [
            self._parse_explain(text, plan_id)
            for text, plan_id in zip(texts, ids)
        ]
        staged = (
            (transform_plan(plan), text) for plan, text in zip(plans, texts)
        )
        return self._commit(staged, replace)

    def load_explain_file(self, path: str) -> TransformedPlan:
        """Load one explain file (full explain or tree snippet), like
        :meth:`load_explain_text` over its contents."""
        return self.load_explain_text(_read_text(path))

    def load_workload_dir(self, directory: str, suffix: str = ".exfmt") -> int:
        """Load every ``*.exfmt`` explain file under *directory*.

        Returns the number of plans loaded.  The load is atomic: a parse
        failure or duplicate plan id anywhere in the directory raises
        without mutating the workload.  (Persisting the workload is the
        *data_dir*'s job: see docs/durability.md.)
        """
        return len(
            self.load_explain_batch(
                _read_text(os.path.join(directory, name))
                for name in sorted(os.listdir(directory))
                if name.endswith(suffix)
            )
        )

    @property
    def workload(self) -> List[TransformedPlan]:
        return list(self._workload)

    @property
    def plan_count(self) -> int:
        return len(self._workload)

    def plan(self, plan_id: str) -> TransformedPlan:
        return self._by_id[plan_id]

    def clear(self) -> None:
        """Empty the workload (journaled when durability is on).

        Plan revisions survive on purpose: re-adding a plan after a
        clear gets a *higher* revision, so no version check can take the
        old graph's snapshot or checkpointed results for the new one."""
        self._check_writable()
        if self._store is not None:
            self._store.record_clear()
        self._workload.clear()
        self._by_id.clear()
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    # Durability (docs/durability.md)
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        return self._store is not None

    @property
    def recovered_kb_entries(self) -> List[dict]:
        """KB entries (JSON objects) recovered from the journal, for the
        owner of the knowledge base to re-apply after :meth:`recover`."""
        return list(self._recovered_kb)

    def durability_status(self) -> dict:
        """JSON-ready durability state (``disabled`` without a data_dir)."""
        if self._store is None:
            return {"state": "disabled"}
        return self._store.status()

    def sync_journal(self) -> None:
        """Force journaled mutations to the device (the ``ack=sync``
        ingest mode).  No-op without durability."""
        if self._store is not None:
            self._store.sync()

    def record_kb_entry(self, entry: dict) -> None:
        """Journal one knowledge-base entry (its ``to_json_object``
        form) so runtime-added entries survive a restart."""
        self._check_writable()
        if self._store is not None:
            self._store.record_kb_entry(entry)

    def checkpoint(self) -> int:
        """Write a checkpoint now: the journaled workload state plus the
        match results memoized on its graphs.  Returns the sequence."""
        if self._store is None:
            raise DurabilityError("durability is disabled (no data_dir)")
        self._check_writable()
        return self._store.checkpoint(self._export_cache_entries())

    def _export_cache_entries(self) -> List[dict]:
        """Wire-form match results for the checkpoint manifest: those
        memoized on the live workload's graphs, plan by plan.

        Each occurrence row keeps the engine's binding insertion order,
        with every bound plan node named by its operator number or its
        base object's qualified name — replaying the rows through
        :class:`repro.core.matcher.RowCollector` on recovery rebuilds
        bit-identical :class:`PlanMatches`.  Entries for graphs changed
        since the checkpoint are dropped on recovery.
        """
        entries: List[dict] = []
        for transformed in self._workload:
            plan_id, version = transformed.plan_id, transformed.graph.version
            for query, occurrences in transformed.graph.memo_items("matches"):
                rows = [
                    [[name, _node_key(node)] for name, node in occ.bindings.items()]
                    for occ in occurrences
                ]
                entries.append(
                    {"plan": plan_id, "version": version, "query": query, "rows": rows}
                )
        return entries

    def recover(self) -> RecoveryInfo:
        """Replay the journal and rebuild the workload (once).

        Plans are re-parsed and re-transformed from their journaled
        explain source — the transform is deterministic, so recovered
        graphs (and therefore search results) are bit-identical to the
        pre-crash ones.  Checkpointed match results whose graph version
        still matches are seeded back into their plans' memos; entries
        for plans that changed are dropped, so only those plans pay the
        re-match cost.
        """
        if self._store is None:
            raise DurabilityError("durability is disabled (no data_dir)")
        if not self._recovery_pending:
            raise DurabilityError("recover() may only run once")
        info = self._store.recover()
        workload: List[TransformedPlan] = []
        by_id: Dict[str, TransformedPlan] = {}
        for plan_id, revision, source in info.plans:
            transformed = transform_plan(self._parse_explain(source, plan_id))
            self._stamp(transformed, revision)
            workload.append(transformed)
            by_id[plan_id] = transformed
        self._workload = workload
        self._by_id = by_id
        self._revisions = self._store.revisions
        self._recovered_kb = list(info.kb_entries)
        seeded = self._seed_cache(info)
        if self._store.last_recovery is not None:
            self._store.last_recovery["cacheSeeded"] = seeded
        self._recovery_pending = False
        return info

    def _seed_cache(self, info: RecoveryInfo) -> int:
        """Re-arm match results from checkpointed entries whose version
        equals the recovered graph's (the journal tail may replace one)."""
        seeded = 0
        for entry in info.cache_entries:
            transformed = self._by_id.get(entry.plan_id)
            if transformed is None or transformed.graph.version != entry.version:
                continue  # plan changed since the checkpoint: re-match
            collector = RowCollector(transformed)
            for row in entry.rows:
                items = [
                    (name, _node_resource(transformed, key)) for name, key in row
                ]
                if any(resource is None for _, resource in items):
                    break  # names no node of this plan: never serve it
                collector.add(items)
            else:
                if self._engine.seed_match_cache(
                    entry.query, collector.result
                ):
                    seeded += 1
        return seeded

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @property
    def engine(self) -> MatchingEngine:
        """The matching engine behind :meth:`search` (stats, caches)."""
        return self._engine

    def stats(self) -> dict:
        """Engine instrumentation: cache hit/miss counters and timings.

        The engine's :meth:`~repro.core.engine.MatchingEngine.stats`, a
        read of the counters it exports through :attr:`registry` (see
        ``docs/observability.md``).  With durability on, a
        ``durability`` section carries the store's
        :meth:`durability_status`.
        """
        stats = self._engine.stats()
        if self._store is not None:
            stats["durability"] = self.durability_status()
        return stats

    @property
    def registry(self):
        """The engine's :class:`repro.obs.metrics.MetricsRegistry`."""
        return self._engine.registry

    @property
    def tracer(self):
        """The engine's :class:`repro.obs.tracing.Tracer`."""
        return self._engine.tracer

    def explain(
        self,
        pattern: Union[ProblemPattern, str],
        plan: Union[str, TransformedPlan, None] = None,
    ):
        """EXPLAIN-style profile of matching *pattern* against one plan.

        *plan* is a plan id, a :class:`TransformedPlan`, or ``None`` for
        the first plan in the workload.  Returns a
        :class:`repro.obs.profiler.ExplainReport` with per-triple-pattern
        input/output cardinalities, index choices, the planned join
        order with estimated cardinalities, closure-direction decisions,
        closure BFS frontier sizes and budget ticks consumed.
        Profiling never changes results — it runs the same
        :func:`repro.core.matcher.search_plan` with a probe installed.
        """
        from repro.obs.profiler import explain as _explain

        if plan is None:
            if not self._workload:
                raise ValueError("explain() needs a loaded workload or a plan")
            transformed = self._workload[0]
        elif isinstance(plan, str):
            transformed = self._by_id[plan]
        else:
            transformed = plan
        return _explain(pattern, transformed)

    def compile(self, pattern: ProblemPattern) -> str:
        """Compile a pattern to its SPARQL text (for inspection/storage)."""
        return pattern_to_sparql(pattern)

    def search(
        self, pattern: Union[ProblemPattern, str]
    ) -> List[PlanMatches]:
        """Search the whole workload for *pattern* (Algorithm 3)."""
        return self._engine.search(pattern, self._workload)

    def search_isolated(
        self,
        pattern: Union[ProblemPattern, str],
        budget: Optional[Budget] = None,
    ) -> SearchResult:
        """Fault-isolated search: per-plan errors are contained.

        A plan that times out against *budget* or raises produces a
        structured :class:`repro.core.engine.PlanError` in the result's
        ``errors`` list instead of aborting the batch; see
        :meth:`repro.core.engine.MatchingEngine.search_isolated`.
        """
        return self._engine.search_isolated(
            pattern, self._workload, budget=budget
        )

    def matching_plan_ids(self, pattern: Union[ProblemPattern, str]) -> List[str]:
        """Plan IDs that contain at least one occurrence of *pattern*."""
        return [m.plan_id for m in self.search(pattern)]

    # ------------------------------------------------------------------
    # Knowledge base
    # ------------------------------------------------------------------
    def run_knowledge_base(
        self,
        knowledge_base,
        budget: Optional[Budget] = None,
        isolate: bool = False,
    ) -> "object":
        """Run every KB entry against the workload (Algorithm 5).

        Delegates to :meth:`repro.kb.KnowledgeBase.find_recommendations`
        with this facade's matching engine, so entry queries are parsed
        once, fanned out over the process pool when the engine has one,
        and match-cached across runs; accepting the KB as a parameter keeps the core free of a
        kb dependency.  *budget* and *isolate* turn on resource limits
        and per-entry/per-plan fault containment (errors surface in
        ``report.errors`` instead of aborting the run).
        """
        return knowledge_base.find_recommendations(
            self._workload, engine=self._engine, budget=budget, isolate=isolate
        )
