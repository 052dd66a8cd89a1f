"""Indexed, dictionary-encoded in-memory triple store.

The store interns every term into a per-graph :class:`~repro.rdf.
dictionary.TermDictionary` and maintains three permutation indexes
(SPO, POS, OSP) *keyed on the integer IDs*, so that any triple pattern
with at least one ground position resolves to an int-keyed hash lookup
rather than a scan.  This is the property the paper relies on when it
says SPARQL "performs graph traversal and pattern matching efficiently"
over QEP graphs: basic-graph-pattern evaluation issues point lookups per
bound position — and with dictionary encoding those lookups hash and
compare machine ints instead of heavyweight term objects.

Two API levels:

* the **term-level API** (``add``, ``triples``, ``value``, ``objects``,
  ``estimate``, iteration, …) is unchanged from the seed — terms are
  encoded/decoded at the call boundary;
* the **ID-level API** (``term_id``, ``id_term``, ``triples_ids``,
  ``estimate_ids``, ``node_ids``) exposes the raw int space to the
  SPARQL evaluator's join core, which carries bindings as ints and
  decodes only at projection/FILTER boundaries.

A :class:`Graph` stores only ground terms; variables belong to queries.
See ``docs/store-internals.md`` for the full layout and invariants.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.dictionary import TermDictionary
from repro.rdf.term import Literal, Term, URIRef, is_ground

#: A ground RDF triple (subject, predicate, object).
Triple = Tuple[Term, Term, Term]

#: One permutation index, ``{a: {b: {c: None}}}``.  Each leaf is an
#: insertion-ordered dict used as an ordered set of int IDs, for two
#: reasons: lookups under a bound prefix enumerate in insertion
#: (transform) order, and CPython's cycle collector never tracks a dict
#: holding only ints and ``None`` (it tracks every ``set``), so the
#: leaves, most of a plan graph's containers, cost full collections
#: nothing.
_Index = Dict[int, Dict[int, Dict[int, None]]]


def _index_add(index: _Index, a: int, b: int, c: int) -> bool:
    """Insert ``(a, b, c)``; False when it was already present."""
    second = index.get(a)
    if second is None:
        index[a] = {b: {c: None}}
        return True
    third = second.get(b)
    if third is None:
        second[b] = {c: None}
        return True
    if c in third:
        return False
    third[c] = None
    return True


def _index_remove(index: _Index, a: int, b: int, c: int) -> None:
    try:
        second = index[a]
        third = second[b]
        third.pop(c, None)
        if not third:
            del second[b]
        if not second:
            del index[a]
    except KeyError:
        pass


class Graph:
    """A set of RDF triples with int-keyed SPO / POS / OSP indexes."""

    #: Capability flag: this store exposes the full ID-level API
    #: (``term_id`` / ``triples_ids`` / ``estimate_ids`` / planner
    #: statistics).  The SPARQL evaluator and cost planner key on this
    #: attribute rather than ``isinstance(graph, Graph)`` so read-only
    #: stand-ins — notably :class:`repro.rdf.snapshot.GraphView` over a
    #: shared-memory snapshot — take the same compiled ID-space paths.
    supports_id_api = True

    def __init__(self, identifier: Optional[str] = None):
        self.identifier = identifier
        self._dict = TermDictionary()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._version = 0  # bumped on mutation; lets caches detect staleness
        self._pred_total: Dict[int, int] = {}  # triples per predicate ID
        # Sparse spelling side-table: numeric literals that are *equal*
        # ("100" == "1e2") share one dictionary ID, but the seed store
        # kept each triple's own lexical form.  When an added object's
        # spelling differs from its dictionary representative, the exact
        # term is recorded here under the triple's ID key so term-level
        # reads surface the spelling that was actually stored.  Empty
        # for graphs without mixed-spelling numeric literals (the
        # common case), so the lookup is skipped entirely.
        self._spell: Dict[Tuple[int, int, int], Term] = {}
        # Lazily computed per-predicate statistics for the cost-based
        # planner (repro/sparql/planner.py): predicate ID -> (total,
        # distinct subjects, distinct objects), plus the sorted subject
        # and object ID tuples that seed both-free path closures.
        # Version-stamped; rebuilt on demand after any mutation.
        self._pstats: Dict[int, Tuple[int, int, int]] = {}
        self._pseeds: Dict[Tuple[int, bool], Tuple[int, ...]] = {}
        self._pstats_version = -1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        """Insert *triple*; duplicates are ignored (set semantics)."""
        s, p, o = triple
        self._validate(s, p, o)
        encode = self._dict.encode
        si, pi, oi = encode(s), encode(p), encode(o)
        if not _index_add(self._spo, si, pi, oi):
            return  # duplicate
        _index_add(self._pos, pi, oi, si)
        _index_add(self._osp, oi, si, pi)
        self._size += 1
        self._version += 1
        self._pred_total[pi] = self._pred_total.get(pi, 0) + 1
        rep = self._dict.decode(oi)
        if rep is not o and isinstance(o, Literal):
            # Same value, different spelling (e.g. "1e2" after "100"):
            # remember this triple's own lexical form.
            if rep.lexical != o.lexical or rep.datatype != o.datatype:
                self._spell[(si, pi, oi)] = o

    def add_all(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.add(triple)

    def remove(self, triple: Triple) -> None:
        """Remove *triple* if present; removing a missing triple is a no-op."""
        ids = self._triple_ids(triple)
        if ids is None:
            return
        si, pi, oi = ids
        if oi not in self._spo.get(si, {}).get(pi, ()):
            return
        _index_remove(self._spo, si, pi, oi)
        _index_remove(self._pos, pi, oi, si)
        _index_remove(self._osp, oi, si, pi)
        self._spell.pop((si, pi, oi), None)
        self._size -= 1
        self._version += 1
        remaining = self._pred_total.get(pi, 0) - 1
        if remaining > 0:
            self._pred_total[pi] = remaining
        else:
            self._pred_total.pop(pi, None)

    @staticmethod
    def _validate(s: Term, p: Term, o: Term) -> None:
        if not (is_ground(s) and is_ground(p) and is_ground(o)):
            raise TypeError("graphs hold only ground terms (no variables)")
        if isinstance(s, Literal):
            raise TypeError("literal cannot be a triple subject")
        if not isinstance(p, URIRef):
            raise TypeError("triple predicate must be a URIRef")

    # ------------------------------------------------------------------
    # Dictionary (ID-level API)
    # ------------------------------------------------------------------
    def term_id(self, term: Term) -> Optional[int]:
        """Dictionary ID of *term*, or ``None`` when not in this graph.

        A ``None`` is a proof of absence: no triple of this graph
        mentions the term, so any pattern binding it matches nothing.
        """
        return self._dict.lookup(term)

    def id_term(self, tid: int) -> Term:
        """Decode a dictionary ID back to its term."""
        return self._dict.decode(tid)

    @property
    def dictionary(self) -> TermDictionary:
        """The graph's term dictionary (treat as read-only)."""
        return self._dict

    def triples_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """ID-space twin of :meth:`triples`; ``None`` is a wildcard.

        Yields ``(s_id, p_id, o_id)`` in index insertion order: every
        level of the SPO/POS/OSP indexes is an insertion-ordered dict,
        so the triples under a bound prefix come out in the order they
        were added.  The term-level API iterates the same indexes, so
        the two APIs enumerate matches identically.
        """
        s, p, o = subject, predicate, obj
        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return
            if p is not None:
                objs = by_pred.get(p)
                if not objs:
                    return
                if o is not None:
                    if o in objs:
                        yield (s, p, o)
                    return
                for obj_ in list(objs):
                    yield (s, p, obj_)
                return
            if o is not None:
                preds = self._osp.get(o, {}).get(s)
                if not preds:
                    return
                for p_ in list(preds):
                    yield (s, p_, o)
                return
            for p_, objs in list(by_pred.items()):
                for obj_ in list(objs):
                    yield (s, p_, obj_)
            return
        if p is not None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return
            if o is not None:
                subs = by_obj.get(o)
                if not subs:
                    return
                for s_ in list(subs):
                    yield (s_, p, o)
                return
            for o_, subs in list(by_obj.items()):
                for s_ in list(subs):
                    yield (s_, p, o_)
            return
        if o is not None:
            by_sub = self._osp.get(o)
            if not by_sub:
                return
            for s_, preds in list(by_sub.items()):
                for p_ in list(preds):
                    yield (s_, p_, o)
            return
        for s_, by_pred in list(self._spo.items()):
            for p_, objs in list(by_pred.items()):
                for obj_ in list(objs):
                    yield (s_, p_, obj_)

    def estimate_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """ID-space twin of :meth:`estimate` (exact, never a scan)."""
        s, p, o = subject, predicate, obj
        if s is not None and p is not None:
            objs = self._spo.get(s, {}).get(p)
            if objs is None:
                return 0
            if o is not None:
                return 1 if o in objs else 0
            return len(objs)
        if p is not None and o is not None:
            subs = self._pos.get(p, {}).get(o)
            return len(subs) if subs else 0
        if s is not None and o is not None:
            preds = self._osp.get(o, {}).get(s)
            return len(preds) if preds else 0
        if s is not None:
            return sum(len(v) for v in self._spo.get(s, {}).values())
        if o is not None:
            return sum(len(v) for v in self._osp.get(o, {}).values())
        if p is not None:
            return self._pred_total.get(p, 0)
        return self._size

    def node_ids(self) -> List[int]:
        """IDs of every subject and object, in ascending (encode) order.

        The deterministic order matters: path fixpoints over both-free
        endpoints enumerate these nodes, and result order must not
        depend on set-iteration artifacts.
        """
        nodes: Set[int] = set(self._spo)
        nodes.update(self._osp)
        return sorted(nodes)

    def _stats_fresh(self) -> None:
        """Drop stale planner statistics after a mutation (lazy rebuild)."""
        if self._pstats_version != self._version:
            self._pstats = {}
            self._pseeds = {}
            self._pstats_version = self._version

    def distinct_predicates(self) -> int:
        """Number of distinct predicates with at least one triple."""
        return len(self._pos)

    def predicate_stats(self, predicate: int) -> Tuple[int, int, int]:
        """``(total, distinct subjects, distinct objects)`` for a predicate ID.

        Exact.  O(triples of the predicate) the first time per graph
        version, then a dictionary hit until the graph mutates.  The
        planner divides pattern cardinalities by the distinct counts to
        estimate the selectivity of join-bound variable positions.
        """
        self._stats_fresh()
        cached = self._pstats.get(predicate)
        if cached is not None:
            return cached
        by_obj = self._pos.get(predicate)
        if not by_obj:
            stats = (0, 0, 0)
        else:
            subjects: Set[int] = set()
            for subs in by_obj.values():
                subjects.update(subs)
            stats = (
                self._pred_total.get(predicate, 0),
                len(subjects),
                len(by_obj),
            )
        self._pstats[predicate] = stats
        return stats

    def subject_ids_for(self, predicate: int) -> Tuple[int, ...]:
        """Distinct subject IDs of a predicate, ascending (cached per version).

        Seeds forward both-free path closures: only these nodes can start
        a non-empty edge of the predicate.
        """
        self._stats_fresh()
        key = (predicate, True)
        cached = self._pseeds.get(key)
        if cached is None:
            by_obj = self._pos.get(predicate)
            if not by_obj:
                cached = ()
            else:
                subjects: Set[int] = set()
                for subs in by_obj.values():
                    subjects.update(subs)
                cached = tuple(sorted(subjects))
            self._pseeds[key] = cached
        return cached

    def object_ids_for(self, predicate: int) -> Tuple[int, ...]:
        """Distinct object IDs of a predicate, ascending (cached per version).

        Seeds reverse both-free path closures: only these nodes can end
        a non-empty edge of the predicate.
        """
        self._stats_fresh()
        key = (predicate, False)
        cached = self._pseeds.get(key)
        if cached is None:
            by_obj = self._pos.get(predicate)
            cached = tuple(sorted(by_obj)) if by_obj else ()
            self._pseeds[key] = cached
        return cached

    def is_literal_id(self, tid: int) -> bool:
        """True when *tid* decodes to a :class:`Literal`."""
        return isinstance(self._dict.decode(tid), Literal)

    @property
    def has_spellings(self) -> bool:
        """True when any triple stores a non-canonical literal spelling.

        Cheap guard for the evaluator: when False (the overwhelmingly
        common case), ID-space solutions decode straight through the
        dictionary with no per-triple spelling lookups.
        """
        return bool(self._spell)

    def spelling(self, si: int, pi: int, oi: int) -> Optional[Term]:
        """The triple's own object spelling when it differs from the
        dictionary representative; ``None`` otherwise."""
        return self._spell.get((si, pi, oi))

    def _triple_ids(self, triple: Triple) -> Optional[Tuple[int, int, int]]:
        """IDs for a ground triple, or ``None`` if any term is unknown."""
        lookup = self._dict.lookup
        si = lookup(triple[0])
        if si is None:
            return None
        pi = lookup(triple[1])
        if pi is None:
            return None
        oi = lookup(triple[2])
        if oi is None:
            return None
        return si, pi, oi

    # ------------------------------------------------------------------
    # Lookup (term-level API)
    # ------------------------------------------------------------------
    def contains(self, triple: Triple) -> bool:
        ids = self._triple_ids(triple)
        if ids is None:
            return False
        si, pi, oi = ids
        return oi in self._spo.get(si, {}).get(pi, ())

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the pattern; ``None`` is a wildcard.

        Bound terms are encoded once at the boundary (an unknown term
        short-circuits to empty), the matching happens in ID space, and
        every hit is decoded back to terms on the way out.
        """
        si = pi = oi = None
        lookup = self._dict.lookup
        if subject is not None:
            si = lookup(subject)
            if si is None:
                return
        if predicate is not None:
            pi = lookup(predicate)
            if pi is None:
                return
        if obj is not None:
            oi = lookup(obj)
            if oi is None:
                return
        decode = self._dict.decode
        spell = self._spell
        if spell:
            for s_, p_, o_ in self.triples_ids(si, pi, oi):
                own = spell.get((s_, p_, o_))
                yield (decode(s_), decode(p_), own if own is not None else decode(o_))
        else:
            for s_, p_, o_ in self.triples_ids(si, pi, oi):
                yield (decode(s_), decode(p_), decode(o_))

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern.

        Delegates to :meth:`estimate`, which is *exact* for this store
        for every pattern shape (the permutation indexes and the
        per-predicate totals are maintained precisely), so no binding
        pattern ever needs to iterate the matching triples.
        """
        return self.estimate(subject, predicate, obj)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def value(self, subject: Term, predicate: Term) -> Optional[Term]:
        """The unique object for (subject, predicate), or ``None``.

        Raises :class:`ValueError` when more than one object exists, to
        surface modelling bugs instead of returning an arbitrary one.
        """
        si = self._dict.lookup(subject)
        pi = self._dict.lookup(predicate) if si is not None else None
        if si is None or pi is None:
            return None
        objs = self._spo.get(si, {}).get(pi)
        if not objs:
            return None
        if len(objs) > 1:
            raise ValueError(
                f"multiple objects for ({subject!r}, {predicate!r}); use objects()"
            )
        oi = next(iter(objs))
        own = self._spell.get((si, pi, oi)) if self._spell else None
        return own if own is not None else self._dict.decode(oi)

    def objects(self, subject: Term, predicate: Term) -> Iterator[Term]:
        si = self._dict.lookup(subject)
        pi = self._dict.lookup(predicate) if si is not None else None
        if si is None or pi is None:
            return
        decode = self._dict.decode
        spell = self._spell
        for oi in self._spo.get(si, {}).get(pi, ()):
            own = spell.get((si, pi, oi)) if spell else None
            yield own if own is not None else decode(oi)

    def subjects(self, predicate: Term, obj: Term) -> Iterator[Term]:
        pi = self._dict.lookup(predicate)
        oi = self._dict.lookup(obj) if pi is not None else None
        if pi is None or oi is None:
            return
        decode = self._dict.decode
        for si in self._pos.get(pi, {}).get(oi, ()):
            yield decode(si)

    def predicates(self, subject: Term, obj: Term) -> Iterator[Term]:
        si = self._dict.lookup(subject)
        oi = self._dict.lookup(obj) if si is not None else None
        if si is None or oi is None:
            return
        decode = self._dict.decode
        for pi in self._osp.get(oi, {}).get(si, ()):
            yield decode(pi)

    def subject_set(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(si) for si in self._spo}

    def predicate_set(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(pi) for pi in self._pos}

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the triple set changes."""
        return self._version

    def stamp_version(self, version: int) -> None:
        """Overwrite the mutation counter with an assigned version.

        The durability layer stamps freshly transformed graphs with
        ``repro.store.compose_version(revision, natural)`` so the
        engine's ``(plan_id, graph.version, query_key)`` cache keys stay
        distinct across replace/remove/re-add cycles and deterministic
        across crash recovery.  Subsequent mutations keep incrementing
        from the stamped value, preserving the invalidation contract.
        """
        if version < 0:
            raise ValueError(f"graph version must be >= 0, not {version}")
        self._version = int(version)

    def estimate(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Cheap count of matching triples (exact for this store).

        Used by the SPARQL evaluator's greedy join ordering and by
        :meth:`count`.  Every case is O(1) or O(distinct predicates of
        one node) — never a scan — and, because the permutation indexes
        and per-predicate totals are exact, so is the result.
        """
        si = pi = oi = None
        lookup = self._dict.lookup
        if subject is not None:
            si = lookup(subject)
            if si is None:
                return 0
        if predicate is not None:
            pi = lookup(predicate)
            if pi is None:
                return 0
        if obj is not None:
            oi = lookup(obj)
            if oi is None:
                return 0
        return self.estimate_ids(si, pi, oi)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self._size > 0

    def snapshot_bytes(self) -> bytes:
        """Serialize this graph into a flat zero-copy snapshot buffer.

        The buffer round-trips through
        :class:`repro.rdf.snapshot.GraphView` with identical results
        *and enumeration order*; it is what :mod:`repro.core.shm`
        places into shared memory for the multiprocess matching pool.
        """
        from repro.rdf.snapshot import encode_graph

        return encode_graph(self)

    def copy(self) -> "Graph":
        """Independent clone: no index, dictionary or counter state is
        shared (term objects themselves are immutable and shared)."""
        clone = Graph(self.identifier)
        clone._dict = self._dict.copy()
        clone._spo = {a: {b: c.copy() for b, c in m.items()} for a, m in self._spo.items()}
        clone._pos = {a: {b: c.copy() for b, c in m.items()} for a, m in self._pos.items()}
        clone._osp = {a: {b: c.copy() for b, c in m.items()} for a, m in self._osp.items()}
        clone._pred_total = dict(self._pred_total)
        clone._spell = dict(self._spell)
        clone._size = self._size
        return clone

    def __eq__(self, other) -> bool:
        """Triple-set equality, label-stable across ID assignments.

        Comparison decodes through each graph's own dictionary, so two
        graphs holding the same triples are equal even when their
        (graph-local, insertion-ordered) IDs differ.  Blank nodes
        compare by label; graphs produced by the same deterministic
        transform are therefore comparable.  Full bnode isomorphism is
        intentionally out of scope.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(t in other for t in self)

    # Identity hash (mutable container): lets per-graph caches key on the
    # graph object (e.g. the evaluator's closure memo) while __eq__ stays
    # value-based.  The seed store defined __eq__ only, which implicitly
    # made graphs unhashable and silently disabled those caches.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        ident = f" id={self.identifier!r}" if self.identifier else ""
        return f"<Graph{ident} size={self._size}>"
