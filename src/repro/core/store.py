"""Persistence of transformed workloads (the DB2 RDF Store role).

The paper's deployment persists transformed plans in the DB2 RDF Store
("DB2 supports RDF file format and SPARQL querying ... the DB2 RDF
Store is optimized for graph pattern matching").  This module provides
the same capability on files: each plan's RDF graph is written as
N-Triples next to its explain file, and reloading *rebuilds* the
resource↔node mapping from the URI naming scheme instead of re-running
the transform.

Honesty note (measured in ``bench_transform.py``): with this in-memory
store, re-transforming a parsed plan is actually *faster* than parsing
the N-Triples sidecar back, so the sidecars buy durability and
inspectability (grep the triples, load them into any RDF tool, share
them without the explain file), not load-time speed.  A backend with a
binary/native format — like the real DB2 RDF Store — is where the
skip-the-transform architecture pays off.
"""

from __future__ import annotations

import logging
import os
from typing import List

from repro.core import vocabulary as voc
from repro.core.transform import TransformedPlan, transform_plan
from repro.qep.model import PlanGraph
from repro.qep.parser import parse_plan_file
from repro.rdf import Graph
from repro.rdf.parser import read_ntriples
from repro.rdf.serializer import write_ntriples

logger = logging.getLogger(__name__)


def rdf_cache_path(explain_path: str) -> str:
    """The sidecar N-Triples path for an explain file."""
    base, _ = os.path.splitext(explain_path)
    return base + ".nt"


def rebuild_transformed(plan: PlanGraph, graph: Graph) -> TransformedPlan:
    """Reattach a persisted RDF graph to its (re-parsed) plan.

    The transform names resources deterministically
    (``pop:{plan}/{number}``, ``obj:{plan}/{schema.name}``), so the
    de-transformation mapping is reconstructible without replaying the
    transform.  Raises :class:`ValueError` when the graph does not match
    the plan (wrong file, stale cache).
    """
    transformed = TransformedPlan(plan=plan, graph=graph)
    for op in plan.iter_operators():
        resource = voc.POP.term(f"{plan.plan_id}/{op.number}")
        if graph.value(resource, voc.HAS_POP_TYPE) is None:
            raise ValueError(
                f"RDF cache mismatch: no resource for operator "
                f"#{op.number} of plan {plan.plan_id!r}"
            )
        transformed.pop_resources[op.number] = resource
        transformed.resource_to_node[resource] = op
    for name, obj in plan.base_objects().items():
        resource = voc.OBJ.term(f"{plan.plan_id}/{name}")
        if graph.value(resource, voc.IS_A_BASE_OBJ) is None:
            raise ValueError(
                f"RDF cache mismatch: no resource for base object "
                f"{name!r} of plan {plan.plan_id!r}"
            )
        transformed.object_resources[name] = resource
        transformed.resource_to_node[resource] = obj
    return transformed


def load_transformed(explain_path: str, refresh: bool = False) -> TransformedPlan:
    """Load one explain file, using/maintaining its RDF sidecar.

    With an up-to-date sidecar the transform is skipped and the graph is
    read back; otherwise the plan is transformed and the sidecar
    (re)written.  *refresh* forces re-transformation.
    """
    return transform_cached(explain_path, parse_plan_file(explain_path), refresh)


def transform_cached(
    explain_path: str, plan: PlanGraph, refresh: bool = False
) -> TransformedPlan:
    """:func:`load_transformed` for a *plan* the caller already parsed
    from *explain_path* (the facade parses the text it journals)."""
    cache = rdf_cache_path(explain_path)
    if not refresh and os.path.exists(cache) and (
        os.path.getmtime(cache) >= os.path.getmtime(explain_path)
    ):
        # A corrupt/truncated sidecar must never abort the workload
        # load: parse errors (NTriplesSyntaxError is a ValueError),
        # invalid triples (TypeError), undecodable bytes and read races
        # all fall through to regeneration, like a stale cache does.
        try:
            graph = read_ntriples(cache, identifier=plan.plan_id)
            return rebuild_transformed(plan, graph)
        except (ValueError, TypeError, OSError, UnicodeDecodeError) as exc:
            logger.warning(
                "RDF sidecar %s is stale or corrupt (%s); regenerating",
                cache,
                exc,
            )
    transformed = transform_plan(plan)
    write_ntriples(transformed.graph, cache)
    return transformed


def load_workload_cached(
    directory: str, suffix: str = ".exfmt", refresh: bool = False
) -> List[TransformedPlan]:
    """Load every explain file in *directory* through the RDF cache."""
    out: List[TransformedPlan] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffix):
            out.append(
                load_transformed(os.path.join(directory, name), refresh)
            )
    return out
