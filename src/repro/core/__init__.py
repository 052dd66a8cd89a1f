"""OptImatch core: QEP→RDF transform, pattern builder, SPARQL generation
and match de-transformation (paper Sections 2.1 and 2.2)."""

from repro.core.vocabulary import PRED, POP, STREAM, OBJ, PLAN
from repro.core.transform import TransformedPlan, transform_plan, transform_workload
from repro.core.pattern import (
    PatternBuilder,
    PopSpec,
    ProblemPattern,
    PropertyConstraint,
    Relationship,
)
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.pattern_rdf import pattern_from_rdf, pattern_to_rdf
from repro.core.matcher import Match, PlanMatches, find_matches, search_plan
from repro.core.limits import (
    Budget,
    BudgetExceeded,
    EvaluationTimeout,
    LimitError,
)
from repro.core.engine import MatchingEngine, PlanError, SearchResult
from repro.core.optimatch import OptImatch

__all__ = [
    "Budget",
    "BudgetExceeded",
    "EvaluationTimeout",
    "LimitError",
    "PlanError",
    "SearchResult",
    "Match",
    "MatchingEngine",
    "OBJ",
    "OptImatch",
    "PLAN",
    "POP",
    "PRED",
    "PatternBuilder",
    "PlanMatches",
    "PopSpec",
    "ProblemPattern",
    "PropertyConstraint",
    "Relationship",
    "STREAM",
    "TransformedPlan",
    "find_matches",
    "pattern_from_rdf",
    "pattern_to_rdf",
    "pattern_to_sparql",
    "search_plan",
    "transform_plan",
    "transform_workload",
]
