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
  encoded/decoded at the call boundary.  Its reads (``triples``,
  ``estimate``, ``count``, ``contains``, iteration) live once in
  :class:`TermReads`, built on the ID-level API, and the snapshot
  :class:`~repro.rdf.snapshot.GraphView` inherits the same ones;
* the **ID-level API** (``term_id``, ``id_term``, ``triples_ids``,
  ``estimate_ids``, ``node_ids``) exposes the raw int space to the
  SPARQL evaluator's join core, which carries bindings as ints and
  decodes only at projection/FILTER boundaries.

Everything derived from the triples and cached until they change lives
in one per-version memo per graph (:meth:`TermReads.memo`): the cost
planner's per-predicate statistics, which :class:`TermReads` computes
from each store's ``predicate_groups``, the node list, the plan,
closure and match-result memos of the planner, evaluator and engine,
and where the process tier packed the graph into shared memory.

A :class:`Graph` stores only ground terms; variables belong to queries.
See ``docs/store-internals.md`` for the full layout and invariants.
"""

from __future__ import annotations

import threading
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


def _sorted_numbers(objects: Iterable[Tuple[Term, int]]) -> Tuple[float, ...]:
    """Ascending numeric values of ``(object term, triple count)`` pairs,
    each repeated once per triple; non-numeric objects are skipped."""
    values: List[float] = []
    for term, count in objects:
        number = term.as_number() if isinstance(term, Literal) else None
        if number is not None:
            values.extend([number] * count)
    values.sort()
    return tuple(values)


#: Guards every graph's memo: replacing it when the version changes,
#: adding a kind to it, and each bounded insert.  Engine workers share
#: one graph; without it two threads racing a version bump could each
#: install a memo and split their writes across the two, or two
#: evictions could race on the same oldest entry.
_MEMO_LOCK = threading.Lock()


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


class TermReads:
    """Term-level reads, built once on the ID-level API.

    :class:`Graph` and :class:`repro.rdf.snapshot.GraphView` both
    inherit these methods and supply what they read: ``term_id``,
    ``id_term``, ``triples_ids``, ``estimate_ids``, ``predicate_groups``,
    ``has_spellings``, ``spelling``, ``version`` and ``_size``.  Bound
    terms are encoded once at the boundary (a term the graph never saw
    short-circuits to no match), matching happens in ID space, and hits
    are decoded on the way out, so term-level reads enumerate in the
    same order as ``triples_ids``.

    The class also holds the graph's one per-version memo and the
    planner statistics built on it.
    """

    #: ``(version, {kind: dict})`` once :meth:`memo` has run.
    _memo: Optional[Tuple[int, Dict[str, dict]]] = None

    # ------------------------------------------------------------------
    # Per-version memo
    # ------------------------------------------------------------------
    def memo(self, kind: str) -> dict:
        """The dict holding one *kind* of derived state at the current
        version.

        When ``version`` changes the whole memo is replaced.  A caller
        keeps the dict it was handed until its call ends: should the
        graph mutate meanwhile, its writes land in the superseded memo
        and are collected with it, so no reader after the mutation sees
        them.  The memo is one attribute on the graph, so it shares the
        graph's lifetime and is found without hashing the graph (a
        ``WeakKeyDictionary`` would fall back to the O(size) value-based
        ``Graph.__eq__`` on any bucket collision).
        """
        version = self.version
        state = self._memo
        if state is None or state[0] != version:
            with _MEMO_LOCK:
                state = self._memo
                if state is None or state[0] != version:
                    state = self._memo = (version, {})
        kinds = state[1]
        table = kinds.get(kind)
        if table is None:
            with _MEMO_LOCK:
                table = kinds.setdefault(kind, {})
        return table

    @staticmethod
    def memo_insert(table: dict, key, entry: tuple, cap: int) -> tuple:
        """Store *entry* under *key* in *table*, a bounded memo dict.

        An existing entry wins and is returned.  Beyond *cap* entries
        the oldest (dict insertion order) are evicted.  Each entry
        carries the objects its key names by identity, so evicting it
        releases them and their ids can only be recycled once no entry
        refers to them.  The insert and the eviction run under the memo
        lock, so workers sharing a graph never evict from a dict another
        worker is changing.
        """
        with _MEMO_LOCK:
            kept = table.setdefault(key, entry)
            while len(table) > cap:
                del table[next(iter(table))]
        return kept

    def memo_items(self, kind: str) -> List[tuple]:
        """A copy of one *kind*'s ``(key, entry)`` pairs at the current
        version, oldest first, taken under the memo lock."""
        with _MEMO_LOCK:
            state = self._memo
            if state is None or state[0] != self.version:
                return []
            return list(state[1].get(kind, {}).items())

    def drop_memos(self) -> None:
        """Forget everything memoized for this graph (tests force cold
        passes with it)."""
        with _MEMO_LOCK:
            vars(self).pop("_memo", None)

    # ------------------------------------------------------------------
    # Planner statistics (exact, built lazily per version)
    # ------------------------------------------------------------------
    def predicate_stats(self, predicate: int) -> Tuple[int, int, int]:
        """``(total, distinct subjects, distinct objects)`` for a predicate ID.

        Exact.  O(triples of the predicate) the first time per graph
        version, then a dictionary hit until the graph mutates.  The
        planner divides pattern cardinalities by the distinct counts to
        estimate the selectivity of join-bound variable positions.
        """
        table = self.memo("predicate_stats")
        stats = table.get(predicate)
        if stats is None:
            total = objects = 0
            subjects: Set[int] = set()
            for _, subs in self.predicate_groups(predicate):
                total += len(subs)
                objects += 1
                subjects.update(subs)
            stats = table[predicate] = (total, len(subjects), objects)
        return stats

    def numeric_objects(self, predicate: int) -> Tuple[float, ...]:
        """Numeric values of a predicate's objects, ascending, one per triple.

        Exact, and cached per graph version like :meth:`predicate_stats`.
        Objects that are not numeric literals are left out, so the share
        of the predicate's triples whose object passes ``value < c`` is
        ``bisect_left(values, c) / total``.  The planner costs FILTER
        comparisons with it.
        """
        table = self.memo("numeric_objects")
        values = table.get(predicate)
        if values is None:
            decode = self.id_term
            values = table[predicate] = _sorted_numbers(
                (decode(oid), len(subs))
                for oid, subs in self.predicate_groups(predicate)
            )
        return values

    def subject_ids_for(self, predicate: int) -> Tuple[int, ...]:
        """Distinct subject IDs of a predicate, ascending (cached per version).

        Seeds forward both-free path closures: only these nodes can start
        a non-empty edge of the predicate.
        """
        table = self.memo("subject_ids")
        ids = table.get(predicate)
        if ids is None:
            subjects: Set[int] = set()
            for _, subs in self.predicate_groups(predicate):
                subjects.update(subs)
            ids = table[predicate] = tuple(sorted(subjects))
        return ids

    def object_ids_for(self, predicate: int) -> Tuple[int, ...]:
        """Distinct object IDs of a predicate, ascending (cached per version).

        Seeds reverse both-free path closures: only these nodes can end
        a non-empty edge of the predicate.
        """
        table = self.memo("object_ids")
        ids = table.get(predicate)
        if ids is None:
            ids = table[predicate] = tuple(
                sorted(oid for oid, _ in self.predicate_groups(predicate))
            )
        return ids

    def is_literal_id(self, tid: int) -> bool:
        """True when *tid* decodes to a :class:`Literal`."""
        return isinstance(self.id_term(tid), Literal)

    # ------------------------------------------------------------------
    # Term-level reads
    # ------------------------------------------------------------------
    def _pattern_ids(
        self,
        subject: Optional[Term],
        predicate: Optional[Term],
        obj: Optional[Term],
    ) -> Optional[Tuple[Optional[int], Optional[int], Optional[int]]]:
        """IDs of a pattern (``None`` stays a wildcard), or ``None``
        when a bound term is absent from the graph."""
        si = pi = oi = None
        if subject is not None:
            si = self.term_id(subject)
            if si is None:
                return None
        if predicate is not None:
            pi = self.term_id(predicate)
            if pi is None:
                return None
        if obj is not None:
            oi = self.term_id(obj)
            if oi is None:
                return None
        return si, pi, oi

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the pattern; ``None`` is a wildcard.

        Each object comes back in the spelling its triple stored, which
        may differ from the dictionary representative (see
        :meth:`Graph.add`).
        """
        ids = self._pattern_ids(subject, predicate, obj)
        if ids is None:
            return
        decode = self.id_term
        if self.has_spellings:
            spelling = self.spelling
            for s_, p_, o_ in self.triples_ids(*ids):
                own = spelling(s_, p_, o_)
                yield (decode(s_), decode(p_), own if own is not None else decode(o_))
        else:
            for s_, p_, o_ in self.triples_ids(*ids):
                yield (decode(s_), decode(p_), decode(o_))

    def estimate(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern.

        Exact for every pattern shape and never a scan: ``estimate_ids``
        reads the permutation indexes and per-predicate totals, which
        are maintained precisely.
        """
        ids = self._pattern_ids(subject, predicate, obj)
        return 0 if ids is None else self.estimate_ids(*ids)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern (see :meth:`estimate`)."""
        return self.estimate(subject, predicate, obj)

    def contains(self, triple: Triple) -> bool:
        s, p, o = triple
        ids = (self.term_id(s), self.term_id(p), self.term_id(o))
        return None not in ids and self.estimate_ids(*ids) > 0

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self._size > 0


class Graph(TermReads):
    """A set of RDF triples with int-keyed SPO / POS / OSP indexes."""

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
        ids = self._pattern_ids(*triple)
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

        Cached per version.  The deterministic order matters: path
        fixpoints over both-free endpoints enumerate these nodes, and
        result order must not depend on set-iteration artifacts.
        """
        table = self.memo("node_ids")
        nodes = table.get(None)
        if nodes is None:
            merged: Set[int] = set(self._spo)
            merged.update(self._osp)
            nodes = table[None] = sorted(merged)
        return nodes

    def distinct_predicates(self) -> int:
        """Number of distinct predicates with at least one triple."""
        return len(self._pos)

    def predicate_groups(
        self, predicate: int
    ) -> Iterable[Tuple[int, Iterable[int]]]:
        """``(object ID, subject IDs)`` groups of a predicate ID, in POS
        order; the planner statistics are built on it."""
        return self._pos.get(predicate, {}).items()

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

    def predicate_set(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(pi) for pi in self._pos}

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the triple set changes."""
        return self._version

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
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

    # Identity hash (mutable container): __eq__ alone would make graphs
    # unhashable, and __eq__ stays value-based.  Derived state is never
    # keyed on a graph; it lives in the graph's own memo (TermReads.memo).
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        ident = f" id={self.identifier!r}" if self.identifier else ""
        return f"<Graph{ident} size={self._size}>"
