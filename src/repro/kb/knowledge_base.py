"""The knowledge base proper (Algorithms 4 and 5).

An entry stores the problem pattern in two forms — the pattern object
(JSON-serializable, Figure 5 shape) and the compiled executable SPARQL —
plus its recommendations and optional exemplar profile for ranking, just
as the paper describes ("the problem pattern is preserved in the
knowledge base in two forms: an executable SPARQL query ... and as an
RDF structure describing this pattern").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.engine import MatchingEngine, PlanError
from repro.core.limits import Budget
from repro.core.matcher import Match
from repro.core.pattern import ProblemPattern
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import TransformedPlan
from repro.kb.ranking import confidence_score
from repro.kb.recommendation import Recommendation, RenderedRecommendation
from repro.sparql import prepare_query
from repro.testing import chaos

#: Sentinel text from Algorithm 5, line 6.
NO_RECOMMENDATION = "There is currently no recommendation in knowledge base"


@dataclass
class KBEntry:
    """One stored pattern with its recommendations."""

    name: str
    pattern: ProblemPattern
    recommendations: List[Recommendation]
    sparql: str = ""
    exemplar_profile: Optional[List[float]] = None
    description: str = ""

    def __post_init__(self):
        if not self.sparql:
            self.sparql = pattern_to_sparql(self.pattern)
        prepare_query(self.sparql)  # a bad query fails here, not mid-run
        self._validate_recommendations()

    def _validate_recommendations(self) -> None:
        """Fail fast on broken entries: every ``@alias`` a recommendation
        uses must be produced by the pattern's result handlers.  Without
        this check a bad template only explodes at match time, deep in a
        workload run."""
        produced = set(self.pattern.aliases().values())
        for recommendation in self.recommendations:
            for alias in recommendation.aliases_used():
                if alias not in produced:
                    raise ValueError(
                        f"KB entry {self.name!r}: recommendation tag "
                        f"@{alias} does not match any result-handler alias "
                        f"of its pattern (available: {sorted(produced)})"
                    )

    def pattern_rdf(self):
        """The pattern's RDF form (Section 2.3: patterns are stored both
        as executable SPARQL and as an RDF structure)."""
        from repro.core.pattern_rdf import pattern_to_rdf

        return pattern_to_rdf(self.pattern)

    def to_json_object(self) -> dict:
        data = {
            "name": self.name,
            "description": self.description,
            "pattern": self.pattern.to_json_object(),
            "sparql": self.sparql,
            "recommendations": [
                r.to_json_object() for r in self.recommendations
            ],
        }
        if self.exemplar_profile is not None:
            data["exemplarProfile"] = list(self.exemplar_profile)
        return data

    @classmethod
    def from_json_object(cls, data: dict) -> "KBEntry":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            pattern=ProblemPattern.from_json_object(data["pattern"]),
            sparql=data.get("sparql", ""),
            recommendations=[
                Recommendation.from_json_object(r)
                for r in data.get("recommendations", [])
            ],
            exemplar_profile=data.get("exemplarProfile"),
        )


@dataclass
class RecommendationResult:
    """All output of one KB entry for one plan, with its confidence."""

    entry_name: str
    confidence: float
    occurrence_count: int
    rendered: List[RenderedRecommendation]

    def texts(self) -> List[str]:
        return [str(r) for r in self.rendered]


@dataclass
class PlanRecommendations:
    """Ranked recommendation results for one plan (Algorithm 5)."""

    plan_id: str
    results: List[RecommendationResult] = field(default_factory=list)

    @property
    def has_recommendations(self) -> bool:
        return bool(self.results)

    def summary(self) -> str:
        if not self.results:
            return f"[{self.plan_id}] {NO_RECOMMENDATION}"
        lines = [f"[{self.plan_id}]"]
        for result in self.results:
            lines.append(
                f"  ({result.confidence:.2f}) {result.entry_name} "
                f"x{result.occurrence_count}"
            )
            for text in result.texts():
                lines.append(f"      - {text}")
        return "\n".join(lines)


@dataclass
class KBEntryError:
    """One contained failure during a knowledge-base run.

    ``plan_id`` is set when the failure was confined to one plan
    (timeout / budget / evaluation error) and ``None`` when the entry
    itself is broken and was skipped for the whole run.
    """

    entry_name: str
    kind: str  # "timeout" | "budget" | "error"
    message: str
    plan_id: Optional[str] = None

    def to_json_object(self) -> dict:
        data = {
            "entry": self.entry_name,
            "kind": self.kind,
            "message": self.message,
        }
        if self.plan_id is not None:
            data["planId"] = self.plan_id
        return data


@dataclass
class KBReport:
    """The full output of a knowledge-base run over a workload."""

    plans: List[PlanRecommendations] = field(default_factory=list)
    errors: List[KBEntryError] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any entry or plan evaluation was skipped/contained."""
        return bool(self.errors)

    def for_plan(self, plan_id: str) -> Optional[PlanRecommendations]:
        for plan in self.plans:
            if plan.plan_id == plan_id:
                return plan
        return None

    def plans_with_recommendations(self) -> List[PlanRecommendations]:
        return [p for p in self.plans if p.has_recommendations]

    def entry_hit_counts(self) -> Dict[str, int]:
        """How many plans each KB entry matched."""
        counts: Dict[str, int] = {}
        for plan in self.plans:
            for result in plan.results:
                counts[result.entry_name] = counts.get(result.entry_name, 0) + 1
        return counts

    def summary(self) -> str:
        return "\n".join(plan.summary() for plan in self.plans)


class KnowledgeBase:
    """A library of expert patterns and recommendations.

    Run instrumentation goes to *registry* (a
    :class:`repro.obs.metrics.MetricsRegistry`; a private one when
    omitted): run counts/durations, per-(entry, plan) evaluation
    outcomes and rendered-recommendation counts.
    """

    def __init__(self, registry=None):
        self._entries: Dict[str, KBEntry] = {}
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._m_runs = registry.counter(
            "optimatch_kb_runs_total", "Knowledge-base runs executed"
        )
        evaluations = registry.counter(
            "optimatch_kb_entry_evaluations_total",
            "(entry, plan) evaluations, by outcome",
            ("outcome",),
        )
        self._m_eval_hit = evaluations.labels("hit")
        self._m_eval_miss = evaluations.labels("miss")
        self._m_eval_error = evaluations.labels("error")
        self._m_recommendations = registry.counter(
            "optimatch_kb_recommendations_total",
            "Recommendations rendered across all runs",
        )
        self._m_run_seconds = registry.histogram(
            "optimatch_kb_run_seconds", "Wall-clock seconds per KB run"
        )

    # ------------------------------------------------------------------
    # Algorithm 4: SavingRecommendationsKB
    # ------------------------------------------------------------------
    def add_entry(
        self,
        name: str,
        pattern: ProblemPattern,
        recommendations: Sequence[Recommendation],
        exemplar_profile: Optional[Sequence[float]] = None,
        description: str = "",
    ) -> KBEntry:
        """Compile *pattern* to SPARQL and store it with its
        recommendations (Algorithm 4)."""
        if name in self._entries:
            raise ValueError(f"knowledge base already has an entry {name!r}")
        entry = KBEntry(
            name=name,
            pattern=pattern,
            recommendations=list(recommendations),
            exemplar_profile=list(exemplar_profile) if exemplar_profile else None,
            description=description,
        )
        self._entries[name] = entry
        return entry

    def add(self, entry: KBEntry) -> KBEntry:
        if entry.name in self._entries:
            raise ValueError(f"knowledge base already has an entry {entry.name!r}")
        self._entries[entry.name] = entry
        return entry

    def remove(self, name: str) -> None:
        del self._entries[name]

    def entry(self, name: str) -> KBEntry:
        return self._entries[name]

    @property
    def entries(self) -> List[KBEntry]:
        return [self._entries[name] for name in sorted(self._entries)]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------
    # Algorithm 5: FindingRecommendationsKB
    # ------------------------------------------------------------------
    def find_recommendations(
        self,
        workload: Iterable[TransformedPlan],
        engine=None,
        budget: Optional[Budget] = None,
        isolate: bool = False,
    ) -> KBReport:
        """Match every entry against every plan; rank by confidence.

        Each entry's SPARQL text is searched over the whole workload in
        one call to a :class:`repro.core.engine.MatchingEngine`.  With
        *engine* the evaluation runs on that engine's tier (serial, or
        the shared-memory process pool when it has more than one
        worker) and repeated KB runs over an unchanged workload hit its
        match cache; without one, the run builds a private uncached
        serial engine.

        Fault containment: with *isolate*, a broken entry (bad SPARQL,
        exploding template, any unexpected exception) is skipped and
        reported in :attr:`KBReport.errors` instead of aborting the
        whole run, and per-plan evaluation failures are contained the
        same way.  A *budget* (deadline / row / binding caps, shared by
        the whole run) turns over-limit evaluations into ``timeout`` /
        ``budget`` error records while the in-limit portion of the
        report is still produced.

        Counting: each (entry, plan) pair the run evaluates counts once
        in ``optimatch_kb_entry_evaluations_total``, as a hit, a miss or
        an error, and ``error`` grows by one per :class:`KBEntryError`
        in the report.  An entry that fails as a whole, or whose
        recommendations fail to render for a plan, counts one error and
        is skipped for the rest of the run.
        """
        run_started = time.perf_counter()
        workload = list(workload)
        if engine is None:
            engine = MatchingEngine(cache=False)
        report = KBReport()
        # entry name -> plan id -> its matches or its PlanError; an entry
        # that failed as a whole (or later failed to render) is absent.
        outcomes: Dict[str, Dict[str, object]] = {}
        for entry in self.entries:
            try:
                if chaos.active:
                    chaos.trip("kb.entry", entry.name)
                if isolate or budget is not None:
                    result = engine.search_isolated(
                        entry.sparql, workload, budget=budget
                    )
                    matches, plan_errors = result.matches, result.errors
                else:
                    matches = engine.search(entry.sparql, workload)
                    plan_errors = []
            except Exception as exc:  # noqa: BLE001 — entry isolation
                if not isolate:
                    raise
                report.errors.append(
                    KBEntryError(
                        entry_name=entry.name,
                        kind="error",
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            by_plan: Dict[str, object] = {m.plan_id: m for m in matches}
            for plan_error in plan_errors:
                report.errors.append(
                    KBEntryError(
                        entry_name=entry.name,
                        kind=plan_error.kind,
                        message=plan_error.message,
                        plan_id=plan_error.plan_id,
                    )
                )
                by_plan[plan_error.plan_id] = plan_error
            outcomes[entry.name] = by_plan
        hits = misses = rendered_count = 0
        for transformed in workload:
            plan_result = PlanRecommendations(plan_id=transformed.plan_id)
            for entry in self.entries:
                by_plan = outcomes.get(entry.name)
                if by_plan is None:
                    continue
                matches = by_plan.get(transformed.plan_id)
                if isinstance(matches, PlanError):
                    continue  # counted with its report record
                if not matches:
                    misses += 1
                    continue
                try:
                    occurrences: List[Match] = matches.occurrences
                    confidence = max(
                        confidence_score(
                            occurrence,
                            transformed.plan.total_cost,
                            entry.exemplar_profile,
                        )
                        for occurrence in occurrences
                    )
                    rendered: List[RenderedRecommendation] = []
                    for recommendation in entry.recommendations:
                        rendered.extend(recommendation.render(occurrences))
                except Exception as exc:  # noqa: BLE001 — entry isolation
                    if not isolate:
                        raise
                    # The entry itself is broken: report it once and
                    # skip it for the rest of the run rather than
                    # repeating the error per plan.
                    report.errors.append(
                        KBEntryError(
                            entry_name=entry.name,
                            kind="error",
                            message=f"{type(exc).__name__}: {exc}",
                            plan_id=transformed.plan_id,
                        )
                    )
                    del outcomes[entry.name]
                    continue
                hits += 1
                rendered_count += len(rendered)
                plan_result.results.append(
                    RecommendationResult(
                        entry_name=entry.name,
                        confidence=confidence,
                        occurrence_count=len(occurrences),
                        rendered=rendered,
                    )
                )
            plan_result.results.sort(
                key=lambda r: (-r.confidence, r.entry_name)
            )
            report.plans.append(plan_result)
        elapsed = time.perf_counter() - run_started
        self._m_runs.inc()
        if hits:
            self._m_eval_hit.inc(hits)
        if misses:
            self._m_eval_miss.inc(misses)
        if report.errors:
            self._m_eval_error.inc(len(report.errors))
        if rendered_count:
            self._m_recommendations.inc(rendered_count)
        self._m_run_seconds.observe(elapsed)
        return report

    # ------------------------------------------------------------------
    # Pattern-library introspection
    # ------------------------------------------------------------------
    def pattern_library_graph(self):
        """One RDF graph holding every stored pattern's RDF form.

        Queryable with SPARQL / :func:`repro.core.pattern_rdf.
        patterns_mentioning_type` — how a large pattern library stays
        discoverable.
        """
        from repro.core.pattern_rdf import pattern_to_rdf
        from repro.rdf import Graph

        graph = Graph("kb-pattern-library")
        for entry in self.entries:
            pattern_to_rdf(entry.pattern, graph)
        return graph

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {"entries": [e.to_json_object() for e in self.entries]},
            indent=indent,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "KnowledgeBase":
        data = json.loads(text)
        kb = cls()
        for entry_data in data.get("entries", []):
            kb.add(KBEntry.from_json_object(entry_data))
        return kb

    @classmethod
    def load(cls, path: str) -> "KnowledgeBase":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
