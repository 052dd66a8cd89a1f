"""Ahead-of-time cost-based planning for BGP joins and path closures.

This module plans a whole basic graph pattern **once per (pattern set,
pushed FILTERs, bound-variable set, graph version)** from the store's
exact :meth:`~repro.rdf.graph.Graph.estimate_ids` cardinalities, in the
spirit of *Towards Query Optimization for SPARQL Property Paths*
(Yakovets et al.): selectivity estimates drive both the join order and
the direction property-path closures are explored in.

Three planning products:

* :func:`plan_bgp` — a :class:`BGPPlan` fixing the join order for a
  compiled BGP and the step after which each FILTER the evaluator
  pushed into the join runs.  One greedy search orders every BGP of two
  or more patterns: among the patterns connected to what is already
  bound, take the one that carries the fewest rows into the next step,
  counting the FILTERs it completes at their exact selectivity (see
  :func:`filter_selectivity`).  The plan also fixes the store index
  (SPO/POS/OSP) each pattern will resolve through, given the boundness
  its prefix implies.  The search reads one per-call estimate table
  keyed by the bound subset of each pattern's own variables, so a
  pattern is estimated at most ``2^|vars|`` times per call.
* :func:`plan_closure` — a :class:`ClosurePlan` for a both-ends-free
  transitive closure (``?x path+ ?y``): instead of seeding a BFS from
  *every* graph node, seed only from nodes that can actually start
  (forward) or end (reverse) a non-empty application of the inner path,
  whichever candidate set is smaller.
* the per-graph **plan memo**: plans attach to the graph object under a
  version-stamped attribute (the closure-cache idiom) so re-evaluating
  a prepared query against an unchanged graph reuses the plan.  It is
  bounded: past :data:`MAX_PLANS_PER_GRAPH` entries the oldest is
  evicted, releasing the query objects it pins.  On estimate ties the
  pattern written first wins, following the memoize-and-prefer-simpler
  idiom of CozySynthesizer's cost model (see SNIPPETS.md): when two
  plans are equally cheap, keep the one closest to the written query.

This module is imported by :mod:`repro.sparql.evaluator` (never the
reverse), so it owns the compiled-pattern position-spec kinds and the
FILTER shapes both modules read (:func:`numeric_comparison`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.rdf.graph import Graph
from repro.rdf.term import Literal, Variable
from repro.sparql import ast

__all__ = [
    "ABSENT",
    "BGPPlan",
    "ClosurePlan",
    "GROUND",
    "PATH",
    "UNMATCHABLE",
    "VAR",
    "can_be_zero",
    "filter_selectivity",
    "invalidate",
    "numeric_comparison",
    "order_bgp",
    "place_filters",
    "plan_bgp",
    "plan_closure",
]

#: Position-spec kinds for compiled triple patterns (see the evaluator's
#: ``_compile_bgp``).  A compiled position is a ``(kind, payload)`` pair.
GROUND = 0  # pre-encoded dictionary ID
VAR = 1     # a Variable, resolved against the ID bindings at runtime
ABSENT = 2  # ground term not in the graph dictionary (payload: the term)
PATH = 3    # predicate position only: a property-path expression

#: Sentinel ID for a term the graph dictionary does not hold (real IDs
#: are >= 0): every store lookup on it finds nothing.
UNMATCHABLE = -1

#: Assumed per-solution result sizes for property-path patterns by
#: number of bound endpoints (0, 1, 2).  A path with a bound endpoint
#: explores one BFS closure, which on plan graphs is far cheaper than
#: enumerating a large unbound candidate set first.
PATH_ESTIMATES = (float(1 << 30), 64.0, 2.0)

#: Cap on memoized BGP plans, and separately on closure plans, per graph
#: (a runaway workload of distinct ad-hoc queries must not grow the
#: graph attribute without bound): past it the oldest entry is evicted.
MAX_PLANS_PER_GRAPH = 512


# ----------------------------------------------------------------------
# Plan records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BGPPlan:
    """A fixed join order for one compiled BGP under one bound-var set.

    ``order[i]`` is the position (into the compiled/pattern list) of the
    i-th pattern to join; ``estimates[i]`` the expected number of
    extensions join step i produces, before any FILTER placed at that
    step (what EXPLAIN's ``out`` column counts); ``indexes[i]`` the
    store index the pattern resolves through given its prefix; ``cost``
    the sum of the estimates, i.e. the expected visited bindings.
    ``filters[j]`` is ``(after, selectivity)`` for the j-th pushed
    FILTER: it runs after join step ``after`` (1-based; 0 is before the
    join) and passes that share of the extensions.
    """

    order: Tuple[int, ...]
    estimates: Tuple[float, ...]
    indexes: Tuple[str, ...]
    cost: float
    method: str  # "greedy" | "single"
    filters: Tuple[Tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ClosurePlan:
    """How to evaluate a both-ends-free transitive closure.

    ``direction`` is the BFS orientation; ``seeds`` the candidate start
    (forward) or end (reverse) node IDs in ascending order, or ``None``
    when no safe restriction exists (the inner path can match
    zero-length, so every node qualifies) and the evaluator must fall
    back to the full node scan.  ``forward_count`` / ``reverse_count``
    record both candidate-set sizes for EXPLAIN (``None`` = unknown).
    """

    direction: str  # "forward" | "reverse"
    seeds: Optional[Tuple[int, ...]]
    forward_count: Optional[int]
    reverse_count: Optional[int]


# ----------------------------------------------------------------------
# Per-graph plan memo (version-stamped attribute, like the closure cache)
# ----------------------------------------------------------------------
_PLAN_ATTR = "_sparql_plan_cache"
_PLAN_LOCK = threading.Lock()


def _plan_state(graph: Graph) -> dict:
    """The version-checked plan memo for *graph* (attach under a lock)."""
    state = getattr(graph, _PLAN_ATTR, None)
    version = graph.version
    if state is None or state["version"] != version:
        with _PLAN_LOCK:
            state = getattr(graph, _PLAN_ATTR, None)
            if state is None or state["version"] != version:
                state = {"version": version, "plans": {}, "closures": {}}
                setattr(graph, _PLAN_ATTR, state)
    return state


def memo_insert(memo: dict, key, entry: tuple, cap: int, lock) -> tuple:
    """Store *entry* under *key* in a bounded per-graph memo.

    An existing entry wins and is returned.  Beyond *cap* entries the
    oldest (dict insertion order) are evicted.  Each entry carries the
    objects its key names by identity, so evicting it releases them and
    their ids can only be recycled once no entry refers to them.  The
    insert and the eviction run under *lock*, so engine workers sharing
    a graph never evict from a dict another worker is iterating.
    """
    with lock:
        kept = memo.setdefault(key, entry)
        while len(memo) > cap:
            del memo[next(iter(memo))]
    return kept


def invalidate(graph: Graph) -> None:
    """Drop any memoized plans for *graph* (benchmarks force cold cache)."""
    with _PLAN_LOCK:
        try:
            delattr(graph, _PLAN_ATTR)
        except AttributeError:
            pass


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def _index_for_bounds(
    s_bound: bool, p_bound: bool, o_bound: bool, is_path: bool
) -> str:
    """Store index a lookup with this boundness walks.

    Mirrors the branch order of :meth:`Graph.triples_ids`: a bound
    subject routes through SPO unless only the object joins it (then the
    OSP cell); otherwise a bound predicate uses POS, a bound object OSP,
    and nothing bound is a full SPO scan.  Property paths do per-step
    lookups of their own and are reported as closure work instead.  The
    profiler reports the same answer from observed bindings at run time.
    """
    if is_path:
        return "path"
    if s_bound:
        if not p_bound and o_bound:
            return "OSP"
        return "SPO"
    if p_bound:
        return "POS"
    if o_bound:
        return "OSP"
    return "SPO-scan"


class _EstimateTable:
    """Selectivity estimates for one planning call, keyed by bitmask.

    Every variable of the BGP gets one bit, so a bound-variable set is
    an int.  A pattern's estimate reads only whether each of its own
    s/p/o positions is bound, so it is memoized under ``bound &
    own[i]`` — the bound subset of pattern *i*'s variables.  The
    greedy and the replay both read this one table, so each pattern is
    estimated at most ``2^|vars|`` times per call.

    An estimate is the expected number of extensions one input solution
    produces:

    * ground positions go straight into the exact ``estimate_ids``;
    * a position bound by a *join variable* (value unknown at plan
      time) divides the ground estimate by the predicate's distinct
      subject/object count — the classic uniform-distribution estimate;
    * a ground predicate with *both* ends join-bound closes a cycle and
      matches at most one triple per input, so it estimates
      ``min(1, total / subjects, total / objects)`` instead of the
      independence estimate ``total / (subjects * objects)``, which made
      sparqlgen's back-edge checks (``?b hasOutputStream ?pop1`` after
      ``?pop1 hasInputStream ?b``) look almost free;
    * property paths use the coarse bound-endpoint heuristic
      :data:`PATH_ESTIMATES`;
    * any ``ABSENT`` position makes the pattern unmatchable (0.0).
    """

    __slots__ = ("own", "memo", "_bits", "_compiled", "_graph", "_positions",
                 "_nodes")

    def __init__(self, compiled: Sequence, graph: Graph) -> None:
        bits: Dict = {}
        own: List[int] = []
        positions: List[Tuple[int, int, int, bool]] = []
        for cp in compiled:
            mine = 0
            for var in cp[3]:
                bit = bits.get(var)
                if bit is None:
                    bit = bits[var] = 1 << len(bits)
                mine |= bit
            own.append(mine)
            s_spec, p_spec, o_spec = cp[0], cp[1], cp[2]
            positions.append((
                bits[s_spec[1]] if s_spec[0] == VAR else 0,
                bits[p_spec[1]] if p_spec[0] == VAR else 0,
                bits[o_spec[1]] if o_spec[0] == VAR else 0,
                p_spec[0] == PATH,
            ))
        self.own = own
        self.memo: List[Dict[int, float]] = [{} for _ in compiled]
        self._bits = bits
        self._compiled = compiled
        self._graph = graph
        self._positions = positions
        self._nodes: Optional[float] = None

    def bits_of(self, variables) -> int:
        """Bitmask of those *variables* that occur in the BGP."""
        mask = 0
        for var in variables:
            mask |= self._bits.get(var, 0)
        return mask

    def boundness(self, i: int, bound: int) -> Tuple[bool, bool, bool, bool]:
        """``(s_bound, p_bound, o_bound, is_path)`` of pattern *i*."""
        s_bit, p_bit, o_bit, is_path = self._positions[i]
        return (
            not s_bit or bool(bound & s_bit),
            not is_path and (not p_bit or bool(bound & p_bit)),
            not o_bit or bool(bound & o_bit),
            is_path,
        )

    def estimate(self, i: int, bound: int) -> float:
        """Estimate for pattern *i* under the bound-variable mask *bound*."""
        key = bound & self.own[i]
        memo = self.memo[i]
        est = memo.get(key)
        if est is None:
            est = memo[key] = self._estimate(i, key)
        return est

    def _estimate(self, i: int, bound: int) -> float:
        s_bound, p_bound, o_bound, is_path = self.boundness(i, bound)
        if is_path:
            return PATH_ESTIMATES[int(s_bound) + int(o_bound)]
        s_spec, p_spec, o_spec = self._compiled[i][:3]
        s_kind, p_kind, o_kind = s_spec[0], p_spec[0], o_spec[0]
        if ABSENT in (s_kind, p_kind, o_kind):
            return 0.0
        graph = self._graph
        sid = s_spec[1] if s_kind == GROUND else None
        pid = p_spec[1] if p_kind == GROUND else None
        oid = o_spec[1] if o_kind == GROUND else None
        base = float(graph.estimate_ids(sid, pid, oid))
        if base == 0.0:
            return 0.0
        if s_bound and o_bound and sid is None and oid is None and pid is not None:
            _, subjects, objects = graph.predicate_stats(pid)
            return min(1.0, base / subjects, base / objects)
        if s_bound and sid is None:
            if pid is not None:
                _, subjects, _ = graph.predicate_stats(pid)
                base /= float(subjects) if subjects else 1.0
            else:
                base /= self._distinct_nodes()
        if o_bound and oid is None:
            if pid is not None:
                _, _, objects = graph.predicate_stats(pid)
                base /= float(objects) if objects else 1.0
            else:
                base /= self._distinct_nodes()
        if p_bound and pid is None:
            base /= float(max(1, graph.distinct_predicates()))
        return base

    def _distinct_nodes(self) -> float:
        if self._nodes is None:
            self._nodes = float(max(1, len(self._graph.node_ids())))
        return self._nodes


# ----------------------------------------------------------------------
# Pushed FILTERs
# ----------------------------------------------------------------------
#: The orderings a FILTER comparison is costed and tested on IDs for,
#: each with its mirror image (``c < ?v`` is ``?v > c``).
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _comparison_side(expr: ast.Expr):
    """A Variable, a float for a numeric literal, or None."""
    if isinstance(expr, ast.TermExpr):
        term = expr.term
        if isinstance(term, Variable):
            return term
        if isinstance(term, Literal):
            return term.as_number()
    return None


def numeric_comparison(expr: ast.Expr) -> Optional[Tuple[str, Variable, object]]:
    """``(op, var, other)`` when *expr* is ``?v op number``, ``number op
    ?v`` or ``?v op ?w`` with ``op`` one of ``< <= > >=``, else None.

    *other* is a float or a Variable.  ``number op ?v`` comes back
    mirrored as ``?v op' number``.
    """
    if not isinstance(expr, ast.BinaryExpr) or expr.op not in _MIRRORED:
        return None
    left = _comparison_side(expr.left)
    right = _comparison_side(expr.right)
    if isinstance(left, Variable) and right is not None:
        return expr.op, left, right
    if isinstance(right, Variable) and left is not None:
        return _MIRRORED[expr.op], right, left
    return None


def filter_selectivity(flt: ast.Filter, compiled: Sequence, graph: Graph) -> float:
    """Share of extensions a pushed FILTER passes (exact where known).

    ``?v op number`` where ``?v`` is the object of a ground-predicate
    pattern gets the share of that predicate's triples whose object
    passes the test, counted with :func:`bisect` on the predicate's
    sorted numeric object values (``Graph.numeric_objects``, built once
    per graph version).  Every other FILTER gets 1.0.
    """
    shape = numeric_comparison(flt.expr)
    if shape is None or isinstance(shape[2], Variable):
        return 1.0
    op, var, number = shape
    for cp in compiled:
        if cp[1][0] == GROUND and cp[2] == (VAR, var):
            total = graph.predicate_stats(cp[1][1])[0]
            if not total:
                return 0.0
            values = graph.numeric_objects(cp[1][1])
            if op == "<":
                passing = bisect_left(values, number)
            elif op == "<=":
                passing = bisect_right(values, number)
            elif op == ">":
                passing = len(values) - bisect_right(values, number)
            else:
                passing = len(values) - bisect_left(values, number)
            return passing / total
    return 1.0


def place_filters(
    compiled: Sequence,
    order: Sequence[int],
    bound: FrozenSet,
    filter_vars: Sequence[FrozenSet],
) -> Tuple[int, ...]:
    """The join step after which each FILTER runs.

    A FILTER runs right after the first step of *order* that leaves all
    its variables bound (1-based), or before the join (0) when *bound*
    already holds them.  Every variable must occur in the BGP.
    """
    placement = []
    for variables in filter_vars:
        known = set(bound)
        step = 0
        while not variables <= known:
            known.update(compiled[order[step]][3])
            step += 1
        placement.append(step)
    return tuple(placement)


# ----------------------------------------------------------------------
# Join-order search
# ----------------------------------------------------------------------
def order_bgp(
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
    filters: Sequence[ast.Filter] = (),
) -> BGPPlan:
    """Compute a :class:`BGPPlan` (no memoization; see :func:`plan_bgp`).

    *bound* is the set of pattern variables already bound when the BGP
    starts; *filters* are the FILTERs pushed into the join, each of whose
    variables occurs in the BGP.
    """
    table = _EstimateTable(compiled, graph)
    bound0 = table.bits_of(bound)
    filter_vars = [frozenset(ast.expression_variables(f.expr)) for f in filters]
    selectivities = [filter_selectivity(f, compiled, graph) for f in filters]
    if len(compiled) == 1:
        order, method = [0], "single"
    else:
        pending = [
            (table.bits_of(variables), sel)
            for variables, sel in zip(filter_vars, selectivities)
        ]
        order, method = _greedy_order(table, bound0, pending), "greedy"
    placement = place_filters(compiled, order, bound, filter_vars)
    factors = [1.0] * (len(order) + 1)
    for after, sel in zip(placement, selectivities):
        factors[after] *= sel
    estimates, indexes, cost = _replay(table, bound0, order, factors)
    return BGPPlan(
        tuple(order), estimates, indexes, cost, method,
        tuple(zip(placement, selectivities)),
    )


def _replay(
    table: _EstimateTable, bound: int, order: Sequence[int], factors: List[float]
) -> Tuple[Tuple[float, ...], Tuple[str, ...], float]:
    """Walk *order* accumulating per-step estimates, indexes and cost.

    A step visits rows-in x estimate extensions; it carries that many
    times ``factors[step]``, the selectivity of the FILTERs placed after
    it, into the next step (``factors[0]`` applies before the join).
    """
    rows = factors[0]
    cost = 0.0
    estimates: List[float] = []
    indexes: List[str] = []
    for step, position in enumerate(order, 1):
        indexes.append(_index_for_bounds(*table.boundness(position, bound)))
        produced = rows * table.estimate(position, bound)
        cost += produced
        estimates.append(produced)
        rows = produced * factors[step]
        bound |= table.own[position]
    return tuple(estimates), tuple(indexes), cost


def _greedy_order(
    table: _EstimateTable, bound: int, pending: List[Tuple[int, float]]
) -> List[int]:
    """Fewest-rows-carried next connected pattern, written order on ties.

    *pending* holds ``(variable mask, selectivity)`` per pushed FILTER; a
    candidate's rows are its estimate times the selectivity of every
    FILTER it would complete.
    """
    own = table.own
    estimate = table.estimate
    pending = [f for f in pending if f[0] & ~bound]
    remaining = list(range(len(own)))
    order: List[int] = []
    while remaining:
        best = None
        best_key: Optional[Tuple[int, float, int]] = None
        for i in remaining:
            # A pattern is "connected" when it shares a variable with
            # what is already bound (or has nothing left to bind); the
            # first pick and fully-static patterns always qualify.
            connected = not order or not own[i] or bool(own[i] & bound)
            rows = estimate(i, bound)
            if pending:
                after = bound | own[i]
                for mask, sel in pending:
                    if not mask & ~after:
                        rows *= sel
            key = (0 if connected else 1, rows, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        remaining.remove(best)
        order.append(best)
        bound |= own[best]
        pending = [f for f in pending if f[0] & ~bound]
    return order


def plan_bgp(
    patterns: Sequence,
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
    filters: Sequence[ast.Filter] = (),
) -> BGPPlan:
    """Memoized :func:`order_bgp` keyed on (pattern and FILTER identities,
    bound set).

    *bound* must already be restricted to variables occurring in the
    BGP (solutions differing only in unrelated variables share a plan).
    Pattern and FILTER objects of a prepared query are id-stable across
    evaluations, so the identity key makes repeat evaluation against an
    unchanged graph a dictionary hit; each entry pins its pattern and
    FILTER tuples so ids cannot be recycled while it lives.  An existing
    entry always wins — combined with the in-search tie-break this is
    the memoize-and-prefer-simpler discipline (the first, simplest
    equal-cost plan is kept).  Past :data:`MAX_PLANS_PER_GRAPH` entries
    the oldest is evicted.
    """
    plans: Dict = _plan_state(graph)["plans"]
    key = (tuple(map(id, patterns)), tuple(map(id, filters)), bound)
    hit = plans.get(key)
    if hit is not None:
        return hit[1]
    entry = (
        (tuple(patterns), tuple(filters)),
        order_bgp(compiled, graph, bound, filters),
    )
    return memo_insert(plans, key, entry, MAX_PLANS_PER_GRAPH, _PLAN_LOCK)[1]


# ----------------------------------------------------------------------
# Closure-direction planning
# ----------------------------------------------------------------------
def can_be_zero(path: ast.Path) -> bool:
    """True when *path* can match a zero-length walk (node to itself)."""
    if isinstance(path, ast.PathMod):
        return path.modifier in ("*", "?") or can_be_zero(path.path)
    if isinstance(path, ast.PathInverse):
        return can_be_zero(path.path)
    if isinstance(path, ast.PathSequence):
        return all(can_be_zero(part) for part in path.parts)
    if isinstance(path, ast.PathAlternative):
        return any(can_be_zero(part) for part in path.parts)
    return False  # PathLink


def _endpoint_ids(
    path: ast.Path, graph: Graph, forward: bool
) -> Optional[Set[int]]:
    """Superset of node IDs that can start (*forward*) / end a non-empty
    application of *path*, or ``None`` when no safe restriction exists.

    The contract the evaluator relies on: every node whose closure under
    *path* is non-empty appears in the returned set.  Whenever that
    cannot be guaranteed cheaply (zero-length-capable sub-paths), the
    function answers ``None`` and the caller scans all nodes.
    """
    if isinstance(path, ast.PathLink):
        pid = graph.term_id(path.iri)
        if pid is None:
            return set()
        ids = graph.subject_ids_for(pid) if forward else graph.object_ids_for(pid)
        return set(ids)
    if isinstance(path, ast.PathInverse):
        return _endpoint_ids(path.path, graph, not forward)
    if isinstance(path, ast.PathAlternative):
        union: Set[int] = set()
        for part in path.parts:
            ends = _endpoint_ids(part, graph, forward)
            if ends is None:
                return None
            union |= ends
        return union
    if isinstance(path, ast.PathSequence):
        # A sequence starts wherever its first non-zero-capable prefix
        # part can start: accumulate part endpoints until a part that
        # cannot match zero-length seals the set.
        parts = path.parts if forward else tuple(reversed(path.parts))
        union = set()
        for part in parts:
            ends = _endpoint_ids(part, graph, forward)
            if ends is None:
                return None
            union |= ends
            if not can_be_zero(part):
                return union
        return None  # every part zero-capable: the whole sequence is too
    if isinstance(path, ast.PathMod):
        if path.modifier == "+" and not can_be_zero(path.path):
            return _endpoint_ids(path.path, graph, forward)
        return None  # * / ? match zero-length from any node
    return None


def plan_closure(inner: ast.Path, graph: Graph) -> ClosurePlan:
    """Plan a both-ends-free closure over *inner* (memoized per version).

    Picks the direction whose candidate endpoint set is smaller; ties
    keep forward (the legacy orientation, so the common symmetric case
    preserves historical result order).  When neither endpoint set can
    be restricted safely, the plan degrades to an unrestricted forward
    scan — exactly the legacy behavior.
    """
    closures: Dict = _plan_state(graph)["closures"]
    key = id(inner)
    hit = closures.get(key)
    if hit is not None:
        return hit[1]
    forward = _endpoint_ids(inner, graph, True)
    reverse = _endpoint_ids(inner, graph, False)
    forward_count = None if forward is None else len(forward)
    reverse_count = None if reverse is None else len(reverse)
    if forward is not None and (reverse is None or len(forward) <= len(reverse)):
        plan = ClosurePlan(
            "forward", tuple(sorted(forward)), forward_count, reverse_count
        )
    elif reverse is not None:
        plan = ClosurePlan(
            "reverse", tuple(sorted(reverse)), forward_count, reverse_count
        )
    else:
        plan = ClosurePlan("forward", None, None, None)
    entry = (inner, plan)
    return memo_insert(closures, key, entry, MAX_PLANS_PER_GRAPH, _PLAN_LOCK)[1]
