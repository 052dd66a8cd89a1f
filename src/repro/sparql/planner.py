"""Ahead-of-time cost-based planning for BGP joins and path closures.

This module plans a whole basic graph pattern **once per (pattern set,
bound-variable set, graph version)** from the store's exact
:meth:`~repro.rdf.graph.Graph.estimate_ids` cardinalities, in the
spirit of *Towards Query Optimization for SPARQL Property Paths*
(Yakovets et al.): selectivity estimates drive both the join order and
the direction property-path closures are explored in.

Three planning products:

* :func:`plan_bgp` — a :class:`BGPPlan` fixing the join order for a
  compiled BGP.  Small BGPs (``<= DP_MAX_PATTERNS`` patterns) get an
  exact dynamic program over join orders (minimum total intermediate
  rows); larger ones fall back to greedy cheapest-next-connected-
  pattern.  The plan also fixes the store index (SPO/POS/OSP) each
  pattern will resolve through, given the boundness its prefix implies.
  Both searches run over integer bitmasks (one bit per BGP variable,
  one per pattern) and read one per-call estimate table keyed by the
  bound subset of each pattern's own variables, so a pattern is
  estimated at most ``2^|vars|`` times however many subsets the DP
  walks.
* :func:`plan_closure` — a :class:`ClosurePlan` for a both-ends-free
  transitive closure (``?x path+ ?y``): instead of seeding a BFS from
  *every* graph node, seed only from nodes that can actually start
  (forward) or end (reverse) a non-empty application of the inner path,
  whichever candidate set is smaller.
* the per-graph **plan memo**: plans attach to the graph object under a
  version-stamped attribute (the closure-cache idiom) so re-evaluating
  a prepared query against an unchanged graph reuses the plan.  It is
  bounded: past :data:`MAX_PLANS_PER_GRAPH` entries the oldest is
  evicted, releasing the query objects it pins.  On cost ties the
  lexicographically-smallest order — i.e. the one closest to the
  written query — wins, following the memoize-and-prefer-simpler idiom
  of CozySynthesizer's cost model (see SNIPPETS.md): when two plans are
  equally cheap, keep the simpler one.

This module is imported by :mod:`repro.sparql.evaluator` (never the
reverse), so it owns the compiled-pattern position-spec kinds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.rdf.graph import Graph
from repro.sparql import ast

__all__ = [
    "ABSENT",
    "BGPPlan",
    "ClosurePlan",
    "DP_MAX_PATTERNS",
    "GROUND",
    "PATH",
    "UNMATCHABLE",
    "VAR",
    "can_be_zero",
    "invalidate",
    "order_bgp",
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

#: BGPs up to this many patterns are planned with an exact DP over join
#: orders (``O(2^n * n)`` states); larger ones use the greedy heuristic.
DP_MAX_PATTERNS = 8

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
    intermediate solutions *after* that join step; ``indexes[i]`` the
    store index the pattern resolves through given its prefix; ``cost``
    the sum of expected intermediate sizes (the DP/greedy objective).
    """

    order: Tuple[int, ...]
    estimates: Tuple[float, ...]
    indexes: Tuple[str, ...]
    cost: float
    method: str  # "dp" | "greedy" | "single"


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
    own[i]`` — the bound subset of pattern *i*'s variables.  The DP, the
    greedy and the replay all read this one table, so each pattern is
    estimated at most ``2^|vars|`` times per call however many subsets
    the search walks.

    An estimate is the expected number of extensions one input solution
    produces:

    * ground positions go straight into the exact ``estimate_ids``;
    * a position bound by a *join variable* (value unknown at plan
      time) divides the ground estimate by the predicate's distinct
      subject/object count — the classic uniform-distribution estimate;
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
# Join-order search
# ----------------------------------------------------------------------
def order_bgp(
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
    force: Optional[str] = None,
) -> BGPPlan:
    """Compute a :class:`BGPPlan` (no memoization; see :func:`plan_bgp`).

    *bound* is the set of pattern variables already bound when the BGP
    starts.  *force* pins the search method for tests ("dp"/"greedy").
    """
    n = len(compiled)
    table = _EstimateTable(compiled, graph)
    bound0 = table.bits_of(bound)
    if n == 1:
        est = table.estimate(0, bound0)
        index = _index_for_bounds(*table.boundness(0, bound0))
        return BGPPlan((0,), (est,), (index,), est, "single")
    if force == "dp" or (force is None and n <= DP_MAX_PATTERNS):
        order, method = _dp_order(table, bound0), "dp"
    else:
        order, method = _greedy_order(table, bound0), "greedy"
    estimates, indexes, cost = _replay(table, bound0, order)
    return BGPPlan(tuple(order), estimates, indexes, cost, method)


def _replay(
    table: _EstimateTable, bound: int, order: Sequence[int]
) -> Tuple[Tuple[float, ...], Tuple[str, ...], float]:
    """Walk *order* accumulating per-step estimates, indexes and cost."""
    rows = 1.0
    cost = 0.0
    estimates: List[float] = []
    indexes: List[str] = []
    for position in order:
        indexes.append(_index_for_bounds(*table.boundness(position, bound)))
        rows *= table.estimate(position, bound)
        cost += rows
        estimates.append(rows)
        bound |= table.own[position]
    return tuple(estimates), tuple(indexes), cost


def _greedy_order(table: _EstimateTable, bound: int) -> List[int]:
    """Cheapest-next-connected-pattern, written order on exact ties."""
    own = table.own
    estimate = table.estimate
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
            key = (0 if connected else 1, estimate(i, bound), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        remaining.remove(best)
        order.append(best)
        bound |= own[best]
    return order


def _dp_order(table: _EstimateTable, bound0: int) -> Tuple[int, ...]:
    """Exact minimum-total-intermediate-rows order (Selinger-style DP).

    Pattern subsets are bitmasks.  For each subset ``mask`` the DP keeps
    the cheapest way to join it (``costs``, ``rows``, ``orders``) and
    ``bound[mask]``, the variable bits bound once it is joined, built
    off its lowest set bit.  Each mask walks only its set bits.  Ties on
    cost prefer the lexicographically smaller order tuple — the plan
    closest to the written query (the memoize-and-prefer-simpler
    tie-break) — so a candidate's order tuple is built only when its
    cost is at most the best so far.
    """
    own = table.own
    memo = table.memo
    estimate = table.estimate
    size = 1 << len(own)
    bound = [bound0] * size
    costs = [0.0] * size
    rows = [1.0] * size
    orders: List[Tuple[int, ...]] = [()] * size
    for mask in range(1, size):
        low = mask & -mask
        bound[mask] = bound[mask ^ low] | own[low.bit_length() - 1]
        best_cost = best_rows = best_order = None
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            last = bit.bit_length() - 1
            prev = mask ^ bit
            est = memo[last].get(bound[prev] & own[last])
            if est is None:
                est = estimate(last, bound[prev])
            cand_rows = rows[prev] * est
            cost = costs[prev] + cand_rows
            if best_order is None or cost < best_cost:
                best_cost, best_rows = cost, cand_rows
                best_order = orders[prev] + (last,)
            elif cost == best_cost:
                order = orders[prev] + (last,)
                if order < best_order:
                    best_cost, best_rows, best_order = cost, cand_rows, order
        costs[mask] = best_cost
        rows[mask] = best_rows
        orders[mask] = best_order
    return orders[size - 1]


def plan_bgp(
    patterns: Sequence,
    compiled: Sequence,
    graph: Graph,
    bound: FrozenSet,
) -> BGPPlan:
    """Memoized :func:`order_bgp` keyed on (pattern identities, bound set).

    *bound* must already be restricted to variables occurring in the
    BGP (solutions differing only in unrelated variables share a plan).
    Pattern objects of a prepared query are id-stable across
    evaluations, so the identity key makes repeat evaluation against an
    unchanged graph a dictionary hit; each entry pins its pattern tuple
    so ids cannot be recycled while it lives.  An existing entry always
    wins — combined with the in-search tie-break this is the
    memoize-and-prefer-simpler discipline (the first, simplest
    equal-cost plan is kept).  Past :data:`MAX_PLANS_PER_GRAPH` entries
    the oldest is evicted.
    """
    plans: Dict = _plan_state(graph)["plans"]
    key = (tuple(map(id, patterns)), bound)
    hit = plans.get(key)
    if hit is not None:
        return hit[1]
    entry = (tuple(patterns), order_bgp(compiled, graph, bound))
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
