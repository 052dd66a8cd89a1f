"""Flat-buffer graph snapshots for zero-copy sharing across processes.

:func:`encode_graph` serializes a dictionary-encoded
:class:`~repro.rdf.graph.Graph` — the three int-keyed permutation
indexes, the term dictionary and the spelling side-table — into one
contiguous ``bytes`` buffer, and :class:`GraphView` exposes that buffer
through the same ID-level read API the SPARQL evaluator and the cost
planner consume (``triples_ids`` / ``estimate_ids`` / ``term_id`` /
``node_ids`` / ``predicate_stats`` / …).  The buffer can live anywhere —
a ``bytes`` object, an ``mmap``, or a ``multiprocessing.shared_memory``
segment (see :mod:`repro.core.shm`) — and attaching a view never copies
the triple data: the int sections are read through ``memoryview.cast``
and only small lookup tables are materialized lazily on first use.

Bit-identical enumeration
-------------------------
Result order in this system is deliberately deterministic: every level
of a graph's SPO/POS/OSP indexes is an insertion-ordered dict, down to
the leaves, which are ``{id: None}`` dicts rather than sets (an int-only
dict stays out of CPython's cycle collector, a set never does; see
docs/store-internals.md §3).  So ``triples_ids`` enumerates in the
order the triples were added — transform order for a plan graph.  The
snapshot **captures each index in that enumeration order** at encode
time and lays the groups out as flat arrays with prefix offsets.  A
:class:`GraphView` iterates those arrays directly, which makes every
``triples_ids`` call enumerate exactly as the source graph did — the
property the process-pool differential tests assert.

Binary layout (all ints are native-endian int64 words)::

    header        [16 words]   magic, format, version, size, counts…
    3 x index     per index (SPO, POS, OSP), in captured order:
        a_keys    [A]          first-position IDs
        a_counts  [A]          number of b-groups under each a
        a_starts  [A]          offset of each a's b-groups
        b_keys    [B]          second-position IDs, grouped by a
        b_counts  [B]          number of c-values under each (a, b)
        b_starts  [B]          offset of each group's c-values
        c_vals    [size]       third-position IDs, grouped by (a, b)
    pred_totals   [A_pos]      triples per predicate, aligned to POS a_keys
    term_offsets  [n_terms+1]  byte offsets into the term blob
    spell_keys    [3*n_spell]  (si, pi, oi) triples of the side-table
    spell_vals    [n_spell]    term-table index of each exact spelling
    term blob     [blob_len bytes]  kind byte + UTF-8 payload per term

The term table holds the dictionary terms first (IDs ``0..n_dict-1``,
preserving first-encode order so representative spellings round-trip),
then any side-table spellings that are not dictionary representatives.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.rdf.graph import Graph, TermReads, _sorted_numbers
from repro.rdf.term import BNode, Literal, Term, URIRef

#: First header word; guards against attaching a foreign buffer.
MAGIC = 0x4F50544D53484D31  # "OPTMSHM1"
#: Bump on any layout change; views refuse mismatched buffers.
FORMAT_VERSION = 1

_HEADER_WORDS = 16
_WORD = 8

# Header word indexes.
_H_MAGIC = 0
_H_FORMAT = 1
_H_GRAPH_VERSION = 2
_H_SIZE = 3
_H_N_TERMS = 4
_H_N_DICT = 5
_H_N_SPELL = 6
_H_SPO_A = 7
_H_SPO_B = 8
_H_POS_A = 9
_H_POS_B = 10
_H_OSP_A = 11
_H_OSP_B = 12
_H_INT_WORDS = 13
_H_BLOB_LEN = 14
_H_RESERVED = 15


class SnapshotFormatError(ValueError):
    """The buffer is not a snapshot this reader understands."""


def _encode_term(term: Term) -> bytes:
    """One term as ``kind byte + payload`` (see module docstring)."""
    if isinstance(term, URIRef):
        return b"U" + term.value.encode("utf-8")
    if isinstance(term, BNode):
        return b"B" + term.label.encode("utf-8")
    if isinstance(term, Literal):
        if term.datatype is None:
            return b"L" + term.lexical.encode("utf-8")
        lex = term.lexical.encode("utf-8")
        return (
            b"D"
            + len(lex).to_bytes(4, "little")
            + lex
            + term.datatype.encode("utf-8")
        )
    raise TypeError(f"cannot snapshot term of type {type(term).__name__}")


def _decode_term(payload: bytes) -> Term:
    kind = payload[:1]
    if kind == b"U":
        return URIRef(payload[1:].decode("utf-8"))
    if kind == b"B":
        return BNode(payload[1:].decode("utf-8"))
    if kind == b"L":
        return Literal(payload[1:].decode("utf-8"))
    if kind == b"D":
        lex_len = int.from_bytes(payload[1:5], "little")
        lex = payload[5:5 + lex_len].decode("utf-8")
        datatype = payload[5 + lex_len:].decode("utf-8")
        return Literal(lex, datatype=datatype)
    raise SnapshotFormatError(f"unknown term kind {kind!r}")


def _flatten_index(index) -> Tuple[List[int], ...]:
    """Capture one permutation index in its own enumeration order."""
    a_keys: List[int] = []
    a_counts: List[int] = []
    a_starts: List[int] = []
    b_keys: List[int] = []
    b_counts: List[int] = []
    b_starts: List[int] = []
    c_vals: List[int] = []
    for a, groups in index.items():
        a_keys.append(a)
        a_counts.append(len(groups))
        a_starts.append(len(b_keys))
        for b, cs in groups.items():
            b_keys.append(b)
            b_starts.append(len(c_vals))
            ordered = list(cs)  # the leaf's insertion order
            b_counts.append(len(ordered))
            c_vals.extend(ordered)
    return a_keys, a_counts, a_starts, b_keys, b_counts, b_starts, c_vals


def encode_graph(graph: Graph) -> bytes:
    """Serialize *graph* into one flat snapshot buffer."""
    import array

    spo = _flatten_index(graph._spo)
    pos = _flatten_index(graph._pos)
    osp = _flatten_index(graph._osp)

    dict_terms = graph._dict.decode_all()
    n_dict = len(dict_terms)
    terms: List[Term] = list(dict_terms)

    # Side-table spellings that are not dictionary representatives get
    # appended to the term table; the spell values reference them (or a
    # dictionary slot when the exact object happens to live there).
    spell_keys: List[int] = []
    spell_vals: List[int] = []
    extra_index: Dict[int, int] = {}  # id(term) -> term-table slot
    for (si, pi, oi), term in graph._spell.items():
        slot = extra_index.get(id(term))
        if slot is None:
            slot = len(terms)
            terms.append(term)
            extra_index[id(term)] = slot
        spell_keys.extend((si, pi, oi))
        spell_vals.append(slot)

    blob_parts: List[bytes] = []
    term_offsets: List[int] = [0]
    offset = 0
    for term in terms:
        payload = _encode_term(term)
        blob_parts.append(payload)
        offset += len(payload)
        term_offsets.append(offset)
    blob = b"".join(blob_parts)

    pred_totals = [graph._pred_total.get(p, 0) for p in pos[0]]

    ints = array.array("q")
    header = [0] * _HEADER_WORDS
    header[_H_MAGIC] = MAGIC
    header[_H_FORMAT] = FORMAT_VERSION
    header[_H_GRAPH_VERSION] = graph.version
    header[_H_SIZE] = len(graph)
    header[_H_N_TERMS] = len(terms)
    header[_H_N_DICT] = n_dict
    header[_H_N_SPELL] = len(spell_vals)
    header[_H_SPO_A] = len(spo[0])
    header[_H_SPO_B] = len(spo[3])
    header[_H_POS_A] = len(pos[0])
    header[_H_POS_B] = len(pos[3])
    header[_H_OSP_A] = len(osp[0])
    header[_H_OSP_B] = len(osp[3])
    ints.extend(header)
    for section in (spo, pos, osp):
        for arr in section:
            ints.extend(arr)
    ints.extend(pred_totals)
    ints.extend(term_offsets)
    ints.extend(spell_keys)
    ints.extend(spell_vals)
    ints[_H_INT_WORDS] = len(ints)
    ints[_H_BLOB_LEN] = len(blob)
    return ints.tobytes() + blob


class _IndexView:
    """Zero-copy reader over one flattened permutation index."""

    __slots__ = (
        "a_keys", "a_counts", "a_starts",
        "b_keys", "b_counts", "b_starts", "c_vals",
        "_a_map", "_b_maps",
    )

    def __init__(self, ints, start: int, n_a: int, n_b: int, n_c: int):
        pos = start
        self.a_keys = ints[pos:pos + n_a]; pos += n_a
        self.a_counts = ints[pos:pos + n_a]; pos += n_a
        self.a_starts = ints[pos:pos + n_a]; pos += n_a
        self.b_keys = ints[pos:pos + n_b]; pos += n_b
        self.b_counts = ints[pos:pos + n_b]; pos += n_b
        self.b_starts = ints[pos:pos + n_b]; pos += n_b
        self.c_vals = ints[pos:pos + n_c]
        self._a_map: Optional[Dict[int, int]] = None
        self._b_maps: Dict[int, Dict[int, int]] = {}

    def words(self) -> int:
        return 3 * len(self.a_keys) + 3 * len(self.b_keys) + len(self.c_vals)

    def a_index(self, a: int) -> Optional[int]:
        amap = self._a_map
        if amap is None:
            amap = {key: i for i, key in enumerate(self.a_keys)}
            self._a_map = amap
        return amap.get(a)

    def b_index(self, ai: int, b: int) -> Optional[int]:
        bmap = self._b_maps.get(ai)
        if bmap is None:
            start = self.a_starts[ai]
            end = start + self.a_counts[ai]
            bmap = {self.b_keys[i]: i for i in range(start, end)}
            self._b_maps[ai] = bmap
        return bmap.get(b)

    def c_group(self, bi: int):
        start = self.b_starts[bi]
        return self.c_vals[start:start + self.b_counts[bi]]

    def group_items(self, ai: int) -> Iterator[Tuple[int, object]]:
        """``(b_key, c_values)`` pairs of one a-group, in captured order."""
        start = self.a_starts[ai]
        for bi in range(start, start + self.a_counts[ai]):
            yield self.b_keys[bi], self.c_group(bi)

    def a_total(self, ai: int) -> int:
        """Total c-values under one a-key (sum of its group sizes)."""
        start = self.a_starts[ai]
        counts = self.b_counts
        return sum(counts[i] for i in range(start, start + self.a_counts[ai]))


class GraphView(TermReads):
    """Read-only graph over a snapshot buffer; evaluator/planner ready.

    Implements the full ID-level API of :class:`~repro.rdf.graph.Graph`,
    with identical semantics *and identical enumeration order*, and
    inherits the term-level reads (``triples`` / ``estimate`` /
    ``count`` / ``contains`` / iteration) from
    :class:`~repro.rdf.graph.TermReads`, the same code ``Graph`` runs.
    Mutation is not supported — the buffer is shared and immutable by
    contract.

    The class intentionally has a ``__dict__`` (no ``__slots__``): the
    evaluator's closure memo and the cost planner's plan memo attach
    version-stamped caches via ``setattr``, and a long-lived per-worker
    view accumulating those caches is exactly how the process pool
    amortizes warm-up across searches.
    """

    def __init__(self, buffer, offset: int = 0, length: Optional[int] = None):
        mv = memoryview(buffer)
        if length is not None:
            mv = mv[offset:offset + length]
        elif offset:
            mv = mv[offset:]
        header = mv[:_HEADER_WORDS * _WORD].cast("q")
        if len(header) < _HEADER_WORDS or header[_H_MAGIC] != MAGIC:
            raise SnapshotFormatError("buffer is not a graph snapshot")
        if header[_H_FORMAT] != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"snapshot format {header[_H_FORMAT]} != {FORMAT_VERSION}"
            )
        int_words = header[_H_INT_WORDS]
        blob_len = header[_H_BLOB_LEN]
        self._mv = mv
        ints = mv[:int_words * _WORD].cast("q")
        self._blob = mv[int_words * _WORD:int_words * _WORD + blob_len]
        self._version = header[_H_GRAPH_VERSION]
        self._size = header[_H_SIZE]
        self._n_terms = header[_H_N_TERMS]
        self._n_dict = header[_H_N_DICT]
        n_spell = header[_H_N_SPELL]

        pos_words = _HEADER_WORDS
        self._spo = _IndexView(
            ints, pos_words, header[_H_SPO_A], header[_H_SPO_B], self._size
        )
        pos_words += self._spo.words()
        self._pos = _IndexView(
            ints, pos_words, header[_H_POS_A], header[_H_POS_B], self._size
        )
        pos_words += self._pos.words()
        self._osp = _IndexView(
            ints, pos_words, header[_H_OSP_A], header[_H_OSP_B], self._size
        )
        pos_words += self._osp.words()
        n_pos_a = header[_H_POS_A]
        self._pred_totals = ints[pos_words:pos_words + n_pos_a]
        pos_words += n_pos_a
        self._term_offsets = ints[pos_words:pos_words + self._n_terms + 1]
        pos_words += self._n_terms + 1
        self._spell_keys = ints[pos_words:pos_words + 3 * n_spell]
        pos_words += 3 * n_spell
        self._spell_vals = ints[pos_words:pos_words + n_spell]

        # Lazy decode caches (built on demand, never copied from shm).
        self._terms: List[Optional[Term]] = [None] * self._n_terms
        self._term_ids: Optional[Dict[Term, int]] = None
        self._spell_map: Optional[Dict[Tuple[int, int, int], int]] = None
        self._node_ids: Optional[List[int]] = None
        self._pstats: Dict[int, Tuple[int, int, int]] = {}
        self._pnums: Dict[int, Tuple[float, ...]] = {}
        self._pseeds: Dict[Tuple[int, bool], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Dictionary (ID-level API)
    # ------------------------------------------------------------------
    def id_term(self, tid: int) -> Term:
        """Decode a dictionary ID (or spelling slot) back to its term."""
        term = self._terms[tid]
        if term is None:
            start = self._term_offsets[tid]
            end = self._term_offsets[tid + 1]
            term = _decode_term(bytes(self._blob[start:end]))
            self._terms[tid] = term
        return term

    def term_id(self, term: Term) -> Optional[int]:
        """Dictionary ID of *term*, or ``None`` when not in this graph."""
        ids = self._term_ids
        if ids is None:
            decode = self.id_term
            ids = {decode(tid): tid for tid in range(self._n_dict)}
            self._term_ids = ids
        return ids.get(term)

    # ------------------------------------------------------------------
    # Pattern access (ID-level API)
    # ------------------------------------------------------------------
    def triples_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """ID-space pattern scan; enumeration order matches the source
        graph's index order exactly (see module docstring)."""
        s, p, o = subject, predicate, obj
        spo, pos, osp = self._spo, self._pos, self._osp
        if s is not None:
            ai = spo.a_index(s)
            if ai is None:
                return
            if p is not None:
                bi = spo.b_index(ai, p)
                if bi is None:
                    return
                group = spo.c_group(bi)
                if o is not None:
                    if o in group:
                        yield (s, p, o)
                    return
                for obj_ in group:
                    yield (s, p, obj_)
                return
            if o is not None:
                oai = osp.a_index(o)
                if oai is None:
                    return
                obi = osp.b_index(oai, s)
                if obi is None:
                    return
                for p_ in osp.c_group(obi):
                    yield (s, p_, o)
                return
            for p_, group in spo.group_items(ai):
                for obj_ in group:
                    yield (s, p_, obj_)
            return
        if p is not None:
            ai = pos.a_index(p)
            if ai is None:
                return
            if o is not None:
                bi = pos.b_index(ai, o)
                if bi is None:
                    return
                for s_ in pos.c_group(bi):
                    yield (s_, p, o)
                return
            for o_, group in pos.group_items(ai):
                for s_ in group:
                    yield (s_, p, o_)
            return
        if o is not None:
            ai = osp.a_index(o)
            if ai is None:
                return
            for s_, group in osp.group_items(ai):
                for p_ in group:
                    yield (s_, p_, o)
            return
        for idx in range(len(spo.a_keys)):
            s_ = spo.a_keys[idx]
            for p_, group in spo.group_items(idx):
                for obj_ in group:
                    yield (s_, p_, obj_)

    def estimate_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """Exact match count per pattern shape (never a scan)."""
        s, p, o = subject, predicate, obj
        spo, pos, osp = self._spo, self._pos, self._osp
        if s is not None and p is not None:
            ai = spo.a_index(s)
            bi = spo.b_index(ai, p) if ai is not None else None
            if bi is None:
                return 0
            if o is not None:
                return 1 if o in spo.c_group(bi) else 0
            return spo.b_counts[bi]
        if p is not None and o is not None:
            ai = pos.a_index(p)
            bi = pos.b_index(ai, o) if ai is not None else None
            return pos.b_counts[bi] if bi is not None else 0
        if s is not None and o is not None:
            ai = osp.a_index(o)
            bi = osp.b_index(ai, s) if ai is not None else None
            return osp.b_counts[bi] if bi is not None else 0
        if s is not None:
            ai = spo.a_index(s)
            return spo.a_total(ai) if ai is not None else 0
        if o is not None:
            ai = osp.a_index(o)
            return osp.a_total(ai) if ai is not None else 0
        if p is not None:
            ai = pos.a_index(p)
            return self._pred_totals[ai] if ai is not None else 0
        return self._size

    def node_ids(self) -> List[int]:
        """IDs of every subject and object, ascending (cached)."""
        nodes = self._node_ids
        if nodes is None:
            merged: Set[int] = set(self._spo.a_keys)
            merged.update(self._osp.a_keys)
            nodes = sorted(merged)
            self._node_ids = nodes
        return nodes

    def distinct_predicates(self) -> int:
        return len(self._pos.a_keys)

    def predicate_stats(self, predicate: int) -> Tuple[int, int, int]:
        """``(total, distinct subjects, distinct objects)``, cached."""
        cached = self._pstats.get(predicate)
        if cached is not None:
            return cached
        pos = self._pos
        ai = pos.a_index(predicate)
        if ai is None:
            stats = (0, 0, 0)
        else:
            subjects: Set[int] = set()
            for _, group in pos.group_items(ai):
                subjects.update(group)
            stats = (self._pred_totals[ai], len(subjects), pos.a_counts[ai])
        self._pstats[predicate] = stats
        return stats

    def numeric_objects(self, predicate: int) -> Tuple[float, ...]:
        """Ascending numeric object values, one per triple, cached."""
        cached = self._pnums.get(predicate)
        if cached is None:
            ai = self._pos.a_index(predicate)
            groups = () if ai is None else self._pos.group_items(ai)
            cached = self._pnums[predicate] = _sorted_numbers(
                (self.id_term(oid), len(group)) for oid, group in groups
            )
        return cached

    def subject_ids_for(self, predicate: int) -> Tuple[int, ...]:
        key = (predicate, True)
        cached = self._pseeds.get(key)
        if cached is None:
            pos = self._pos
            ai = pos.a_index(predicate)
            if ai is None:
                cached = ()
            else:
                subjects: Set[int] = set()
                for _, group in pos.group_items(ai):
                    subjects.update(group)
                cached = tuple(sorted(subjects))
            self._pseeds[key] = cached
        return cached

    def object_ids_for(self, predicate: int) -> Tuple[int, ...]:
        key = (predicate, False)
        cached = self._pseeds.get(key)
        if cached is None:
            pos = self._pos
            ai = pos.a_index(predicate)
            if ai is None:
                cached = ()
            else:
                start = pos.a_starts[ai]
                keys = pos.b_keys
                cached = tuple(
                    sorted(keys[i] for i in range(start, start + pos.a_counts[ai]))
                )
            self._pseeds[key] = cached
        return cached

    def is_literal_id(self, tid: int) -> bool:
        return isinstance(self.id_term(tid), Literal)

    @property
    def has_spellings(self) -> bool:
        return len(self._spell_vals) > 0

    def spelling(self, si: int, pi: int, oi: int) -> Optional[Term]:
        spell = self._spell_map
        if spell is None:
            keys = self._spell_keys
            vals = self._spell_vals
            spell = {
                (keys[3 * i], keys[3 * i + 1], keys[3 * i + 2]): vals[i]
                for i in range(len(vals))
            }
            self._spell_map = spell
        slot = spell.get((si, pi, oi))
        return self.id_term(slot) if slot is not None else None

    @property
    def version(self) -> int:
        """The source graph's version at snapshot time."""
        return self._version

    def __repr__(self) -> str:
        return f"<GraphView size={self._size} version={self._version}>"
