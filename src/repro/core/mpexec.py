"""Spawn-safe multiprocess execution tier for the matching engine.

The parent (a ``MatchingEngine`` with more than one worker) packs the
workload's plan graphs into one shared-memory segment
(:class:`repro.core.shm.WorkloadSnapshot`) and submits chunk tasks to a
persistent spawn-context :class:`~concurrent.futures.ProcessPoolExecutor`.
Each task names the segment, the plans' ``(offset, length)`` entries,
the SPARQL text and an optional budget; the worker attaches the segment
once (cached across tasks, keyed on the segment name — which changes
whenever any ``graph.version`` does), evaluates each plan against a
zero-copy :class:`repro.rdf.snapshot.GraphView`, and marshals rows back
as compact term-ID tuples.

Wire contract
-------------
Workers never pickle :class:`~repro.rdf.term.Term` objects or match
structures.  A result row is a list of ``(variable_name, value)`` pairs
where ``value`` is either a dictionary ID (valid in the parent graph's
dictionary — the snapshot was built from it, so IDs coincide) or a
small tuple for the rare term that is not a dictionary representative
(non-canonical literal spellings).  The parent decodes through its own
graph and replays the shared de-transform/dedup logic
(:class:`repro.core.matcher.RowCollector`) in row order, which makes
process-pool results bit-identical to the in-process path.

Budgets are re-armed in-worker: the parent ships the *remaining*
deadline milliseconds at dispatch time and the worker constructs a
fresh :class:`~repro.core.limits.Budget` per chunk.  Row/binding caps
therefore apply per chunk rather than shared across the whole batch —
a documented divergence (`docs/scale-out.md`).

Per-plan failures travel back as outcome tuples.  An exception that
escapes :func:`worker_run_chunk` itself (an attach that fails, say)
leaves the worker alive and fails only that chunk in the parent; only
a worker that dies breaks the pool, which the parent then replaces.

Everything in this module must stay importable and picklable under the
``spawn`` start method: top-level functions only, no closures.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import limits
from repro.core.limits import Budget, LimitError
from repro.rdf.snapshot import GraphView
from repro.rdf.term import BNode, Literal, Term, URIRef
from repro.sparql import prepare_query, query as run_query
from repro.testing import chaos


def available() -> bool:
    """Can the process tier run here (shared memory usable)?"""
    from repro.core.shm import shm_available

    return shm_available()


# ----------------------------------------------------------------------
# Worker-side state (one copy per pool process)
# ----------------------------------------------------------------------
#: Attached segments by name.  Old segments are dropped once the parent
#: moves to a new one; bounded to keep unmapped-but-referenced memory low.
_segments: "Dict[str, Any]" = {}
#: Graph views by (segment name, offset).  A long-lived view accumulates
#: the evaluator's closure memo and the planner's plan memo, so a
#: persistent pool amortizes warm-up across searches.
_views: Dict[Tuple[str, int], GraphView] = {}
#: Prepared ASTs by SPARQL text.
_asts: Dict[str, object] = {}

_MAX_SEGMENTS = 4
_MAX_ASTS = 64


def worker_init() -> None:
    """Pool initializer (spawn-safe, runs once per worker process)."""
    # Nothing to do eagerly: segments and ASTs attach lazily per task so
    # a worker spawned mid-workload needs no coordination.  The function
    # exists so pool creation fails fast if this module cannot import in
    # a fresh interpreter (the spawn contract the tests pin down).


def _drop_segment(name: str) -> None:
    segment = _segments.pop(name, None)
    for key in [k for k in _views if k[0] == name]:
        del _views[key]
    if segment is not None:
        try:
            segment.close()
        except BufferError:  # a view still holds buffer exports; the
            pass  # mapping is freed when the worker exits — no shm leak,
            # the parent already unlinked the name.


def _get_segment(name: str) -> Tuple[Any, float]:
    """Attach (or reuse) a segment; returns it plus the attach seconds."""
    segment = _segments.get(name)
    if segment is not None:
        return segment, 0.0
    from repro.core.shm import attach_untracked

    started = time.perf_counter()
    segment = attach_untracked(name)
    attach_seconds = time.perf_counter() - started
    while len(_segments) >= _MAX_SEGMENTS:
        _drop_segment(next(iter(_segments)))
    _segments[name] = segment
    return segment, attach_seconds


def _get_view(name: str, segment: Any, offset: int, length: int) -> GraphView:
    key = (name, offset)
    view = _views.get(key)
    if view is None:
        view = GraphView(segment.buf, offset=offset, length=length)
        _views[key] = view
    return view


def _get_ast(text: str) -> object:
    ast = _asts.get(text)
    if ast is None:
        if len(_asts) >= _MAX_ASTS:
            _asts.clear()
        ast = prepare_query(text)
        _asts[text] = ast
    return ast


def _encode_term(view: GraphView, term: Term):
    """Wire-encode one row value: a dictionary ID when the term *is* the
    dictionary representative, else a small self-contained tuple."""
    tid = view.term_id(term)
    if tid is not None and view.id_term(tid) is term:
        return tid
    if isinstance(term, URIRef):
        return ("U", term.value)
    if isinstance(term, BNode):
        return ("B", term.label)
    if isinstance(term, Literal):
        return ("L", term.lexical, term.datatype)
    raise TypeError(f"cannot marshal term of type {type(term).__name__}")


def decode_term(graph, value) -> Term:
    """Parent-side inverse of :func:`_encode_term` (decodes through the
    parent graph's own dictionary, yielding its interned term objects)."""
    if isinstance(value, int):
        return graph.id_term(value)
    kind = value[0]
    if kind == "U":
        return URIRef(value[1])
    if kind == "B":
        return BNode(value[1])
    if kind == "L":
        return Literal(value[1], datatype=value[2])
    raise ValueError(f"unknown wire term kind {kind!r}")


def _eval_plan(
    name: str,
    segment: Any,
    plan_id: str,
    offset: int,
    length: int,
    ast: object,
    budget: Optional[Budget],
    expired: bool,
) -> tuple:
    """Evaluate one plan; returns an ``("ok", rows, secs)`` or
    ``("err", kind, message, secs)`` outcome tuple."""
    if expired or (budget is not None and budget.expired()):
        return ("err", "timeout", "deadline expired before evaluation started", 0.0)
    started = time.perf_counter()
    try:
        if chaos.active:
            chaos.trip("mpexec.worker_plan", plan_id)
        view = _get_view(name, segment, offset, length)
        rows: List[list] = []
        with limits.activate(budget):
            for row in run_query(view, ast):
                encoded = []
                for var_name, term in row.items():
                    if term is None:
                        continue
                    encoded.append((var_name, _encode_term(view, term)))
                rows.append(encoded)
        return ("ok", rows, time.perf_counter() - started)
    except LimitError as exc:
        return ("err", exc.kind, str(exc), time.perf_counter() - started)
    except Exception as exc:  # noqa: BLE001 — marshalled to the parent
        message = f"{type(exc).__name__}: {exc}"
        return ("err", "error", message, time.perf_counter() - started)


def worker_run_chunk(task: dict) -> dict:
    """Top-level pool entry point: evaluate one chunk of plans.

    ``task`` keys: ``segment`` (shm name), ``chunk`` (list of
    ``(plan_id, offset, length)``), ``query`` (SPARQL text), ``budget``
    (``(remaining_ms, max_rows, max_bindings)`` or ``None``) and
    ``chaos`` (an :func:`repro.testing.chaos.export_spec` payload).
    """
    chaos.install_spec(task.get("chaos"))
    segment, attach_seconds = _get_segment(task["segment"])
    ast = _get_ast(task["query"])
    budget = None
    expired = False
    budget_spec = task.get("budget")
    if budget_spec is not None:
        remaining_ms, max_rows, max_bindings = budget_spec
        if remaining_ms is not None and remaining_ms <= 0:
            expired = True
        elif remaining_ms is not None or max_rows is not None or max_bindings is not None:
            budget = Budget(
                timeout_ms=remaining_ms,
                max_rows=max_rows,
                max_bindings=max_bindings,
            )
    started = time.perf_counter()
    outcomes = [
        _eval_plan(
            task["segment"], segment, plan_id, offset, length, ast, budget, expired
        )
        for plan_id, offset, length in task["chunk"]
    ]
    return {
        "pid": os.getpid(),
        "attachSeconds": attach_seconds,
        "chunkSeconds": time.perf_counter() - started,
        "outcomes": outcomes,
    }
