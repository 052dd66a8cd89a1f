"""Property-based tests over the pattern model.

Random valid patterns must round-trip through both serialized forms
(Figure 5 JSON and the RDF structure) and always compile to parseable
SPARQL — pinning the three representations to each other.  The
compiled SPARQL must also match the naive reference evaluator
(``tests/sparql/oracle.py``) on small plans with Patterns A-D planted,
under every evaluator policy setting: these patterns carry every FILTER
shape sparqlgen emits, so they drive both the join's ID-level numeric
test and its fallback to expression evaluation.
"""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.pattern import (
    CrossPopConstraint,
    PatternError,
    PopSpec,
    ProblemPattern,
    PropertyConstraint,
    Relationship,
)
from repro.core.pattern_rdf import pattern_from_rdf, pattern_to_rdf
from repro.core.sparqlgen import pattern_to_sparql
from repro.core.transform import transform_plan
from repro.experiments.workloads import controlled_config
from repro.sparql import parse_query, prepare_query
from repro.workload.generator import WorkloadGenerator

from tests.sparql import oracle
from tests.sparql.test_oracle_differential import POLICIES, engine_rows, policy

_TYPES = ["ANY", "JOIN", "SCAN", "NLJOIN", "HSJOIN", "TBSCAN", "SORT",
          "GRPBY", "TEMP", "FETCH"]
_NUMERIC_PROPS = ["hasEstimateCardinality", "hasTotalCost", "hasIOCost",
                  "hasTotalCostIncrease", "hasPlanTotalCost"]
_STRING_PROPS = ["hasPopType", "hasJoinSemantics", "hasBaseObjectName"]
_NUMERIC_SIGNS = [">", "<", ">=", "<=", "=", "!="]
_STRING_SIGNS = ["=", "contains", "regex"]
_REL_KINDS = ["hasInputStream", "hasOuterInputStream", "hasInnerInputStream"]


@st.composite
def patterns(draw) -> ProblemPattern:
    n_pops = draw(st.integers(1, 6))
    pattern = ProblemPattern(name=f"prop-{draw(st.integers(0, 9999))}")
    for pop_id in range(1, n_pops + 1):
        # The pop id as a suffix keeps aliases unique: no two pops may
        # share one, and no alias can match another pop's default name.
        alias = draw(
            st.one_of(
                st.none(),
                st.from_regex(r"[A-Z][A-Z0-9]{0,6}", fullmatch=True),
            )
        )
        spec = PopSpec(
            id=pop_id,
            type=draw(st.sampled_from(_TYPES)),
            alias=None if alias is None else f"{alias}{pop_id}",
        )
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                spec.constraints.append(
                    PropertyConstraint(
                        draw(st.sampled_from(_NUMERIC_PROPS)),
                        draw(st.sampled_from(_NUMERIC_SIGNS)),
                        draw(
                            st.one_of(
                                st.integers(-1000, 10**9),
                                st.floats(
                                    allow_nan=False,
                                    allow_infinity=False,
                                    width=32,
                                ),
                            )
                        ),
                    )
                )
            else:
                spec.constraints.append(
                    PropertyConstraint(
                        draw(st.sampled_from(_STRING_PROPS)),
                        draw(st.sampled_from(_STRING_SIGNS)),
                        draw(
                            st.from_regex(
                                r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True
                            )
                        ),
                    )
                )
        pattern.pops[pop_id] = spec
    # Tree-shaped relationships: each pop (except 1) hangs off a lower id.
    for pop_id in range(2, n_pops + 1):
        parent_id = draw(st.integers(1, pop_id - 1))
        pattern.pops[parent_id].relationships.append(
            Relationship(
                kind=draw(st.sampled_from(_REL_KINDS)),
                target_id=pop_id,
                descendant=draw(st.booleans()),
            )
        )
    if n_pops >= 2 and draw(st.booleans()):
        left = draw(st.integers(1, n_pops))
        right = draw(st.integers(1, n_pops))
        pattern.cross_constraints.append(
            CrossPopConstraint(
                left_id=left,
                left_property=draw(st.sampled_from(_NUMERIC_PROPS)),
                sign=draw(st.sampled_from(_NUMERIC_SIGNS)),
                right_id=right,
                right_property=draw(st.sampled_from(_NUMERIC_PROPS)),
                factor=draw(
                    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
                ),
            )
        )
    if draw(st.booleans()):
        pattern.plan_details["hasOperatorCount"] = [
            draw(st.sampled_from([">", "<", "="])),
            draw(st.integers(1, 600)),
        ]
    pattern.validate()
    return pattern


def _canonical(pattern: ProblemPattern):
    return (
        sorted(
            (
                spec.id,
                spec.type,
                spec.alias,
                tuple(spec.constraints),
                tuple(spec.relationships),
            )
            for spec in pattern.pops.values()
        ),
        tuple(pattern.cross_constraints),
        sorted(
            # "x" and ("=", x) are the same constraint; normalize.
            (key, tuple(v) if isinstance(v, list) else ("=", v))
            for key, v in pattern.plan_details.items()
        ),
    )


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_json_round_trip(pattern):
    clone = ProblemPattern.from_json(pattern.to_json())
    assert _canonical(clone) == _canonical(pattern)


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_rdf_round_trip(pattern):
    restored = pattern_from_rdf(pattern_to_rdf(pattern), pattern.name)
    assert _canonical(restored) == _canonical(pattern)


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_compiles_to_parseable_sparql(pattern):
    parse_query(pattern_to_sparql(pattern))


@settings(max_examples=30, deadline=None)
@given(patterns())
def test_compiled_sparql_runs_on_a_real_plan(pattern):
    from repro.core import transform_plan
    from repro.core.matcher import search_plan
    from tests.conftest import build_figure1_plan

    transformed = transform_plan(build_figure1_plan())
    search_plan(pattern, transformed)  # must not raise


@lru_cache(maxsize=None)
def planted_graphs():
    """Two small generated plans, each with Patterns A-D planted."""
    return tuple(
        transform_plan(
            WorkloadGenerator(seed, config=controlled_config())
            .generate_plan_in_range(f"fuzz-{seed}", 30, 60, plant=list("ABCD"))
        ).graph
        for seed in (1, 2)
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(patterns())
def test_compiled_sparql_matches_the_oracle(pattern):
    parsed = prepare_query(pattern_to_sparql(pattern))
    for graph in planted_graphs():
        try:
            expected = Counter(oracle.select(parsed, graph)[1])
        except NotImplementedError:
            assume(False)
        for reordering, caching in POLICIES:
            with policy(reordering, caching):
                got = Counter(engine_rows(graph, parsed))
            assert got == expected, (reordering, caching)


def test_shared_alias_is_rejected():
    """The fuzzer's first counterexample: two pops aliased ``A`` compiled
    to ``SELECT ?pop1 AS ?A ?pop2 AS ?A``, and the engine's result rows,
    keyed by name, kept only one of the two columns the oracle returns."""
    pattern = ProblemPattern(name="prop-0")
    pattern.pops[1] = PopSpec(
        id=1, type="ANY", alias="A",
        relationships=[Relationship("hasInputStream", 2, descendant=False)],
    )
    pattern.pops[2] = PopSpec(id=2, type="ANY", alias="A")
    with pytest.raises(PatternError, match="share the result alias 'A'"):
        pattern.validate()
