"""Indexed in-memory RDF graph.

The Oracle RDF model tables of the paper are replicated as a triple-indexed
in-memory graph: two nested dictionaries, SPO and POS (the predicate-led
orders ``SEM_MATCH`` runs on), so a pattern with a bound subject or
predicate is one probe; ``(?, ?, o)`` probes POS once per predicate and
``(s, ?, o)`` tests the leaves of the subject's SPO entry.
Like Oracle's ``RDF_VALUE$`` dictionary encoding, terms are interned to
integer ids through a :class:`~repro.rdf.dictionary.TermDictionary` and
the indexes key on ints — pattern matching and joins compare ids instead
of re-hashing term objects (see :mod:`repro.sparql.evaluator` for the
id-space join operators built on :meth:`Graph.triples_ids`).

An index leaf (the third level: the ids under one key pair) takes one of
two forms. A leaf holding one id stores the int itself; it becomes a
``set`` at its second id and goes back to an int when a removal leaves
one id, so a set leaf always holds at least two ids. Most leaves hold
one id (most SPO and POS leaves of the paper's landscape), and an inline
int costs nothing beyond the dict slot, where a one-element set costs
about 216 bytes and a GC-tracked object. Ids start at 0, so a leaf is
never truth-tested: the form is told by ``type(leaf) is int``. Only
:class:`Graph`'s own methods read or write the indexes.

:class:`GraphView` overlays several graphs read-only — this is how a query
that names ``SEM_RULEBASES('OWLPRIME')`` sees the base model *plus* the
entailment index without the derived triples ever being merged into the
base facts (Section III.B of the paper). Its layers intern into one
dictionary, or the constructor raises
:class:`~repro.rdf.dictionary.DictionaryMismatchError`: a view always
has an id space. When the caller can prove the layers pairwise disjoint
(base model vs. a freshly built entailment index),
``disjoint_hint=True`` skips the per-triple dedup set.

:class:`ReadableGraph` is the read contract all of them share — ``Graph``,
``GraphView``, :class:`LayeredGraph` (a base minus removed plus added
rows: how a saved delta attaches) and the storage tier's
:class:`~repro.storage.snapshot.MappedGraph` supply id-level primitives
and inherit every term-level read from it, so the SPO/POS layout is
:class:`Graph`'s decision alone.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from repro.rdf.dictionary import (
    DEFAULT_DICTIONARY,
    DictionaryMismatchError,
    TermDictionary,
)
from repro.rdf.terms import IRI, Literal, Term, Triple

#: key → key → leaf, where a leaf is one id (an int) or a set of ≥ 2 ids
_Leaf = Union[int, Set[int]]
_Index = Dict[int, Dict[int, _Leaf]]

#: id-space triple: (subject id, predicate id, object id)
IdTriple = Tuple[int, int, int]

_COUNT_CACHE_LIMIT = 4096


class ReadOnlyGraphError(Exception):
    """Raised when mutating a read-only graph or view."""


class ReadableGraph:
    """The read contract every graph answers.

    A subclass supplies the id-level primitives: ``dictionary``,
    ``generation``, :meth:`triples_ids`, :meth:`count_ids`,
    :meth:`has_ids`, ``__len__``, the three distinct counts and
    ``stats()`` (the planner's :class:`~repro.rdf.stats.StatsCatalog`);
    :meth:`distinct_object_ids` has a default over :meth:`triples_ids`.
    Every term-level read is implemented here once over them. A class
    that memoizes counts provides the ``_count_cache`` /
    ``_count_cache_gen`` slots :meth:`cached_count` uses.
    """

    __slots__ = ()

    def _encode_pattern(self, s, p, o):
        """Terms → ids for a pattern; None wildcards pass through.

        Returns None when a bound term is unknown to the dictionary —
        no stored triple can match it.
        """
        lookup = self.dictionary.lookup
        if s is not None:
            s = lookup(s)
            if s is None:
                return None
        if p is not None:
            p = lookup(p)
            if p is None:
                return None
        if o is not None:
            o = lookup(o)
            if o is None:
                return None
        return s, p, o

    def triples(self, s=None, p=None, o=None) -> Iterator[Triple]:
        """Yield every triple matching the pattern (None = wildcard)."""
        encoded = self._encode_pattern(s, p, o)
        if encoded is None:
            return
        term = self.dictionary.term
        for si, pi, oi in self.triples_ids(*encoded):
            yield Triple(term(si), term(pi), term(oi))

    def count(self, s=None, p=None, o=None) -> int:
        """Number of triples matching the pattern, without materializing."""
        encoded = self._encode_pattern(s, p, o)
        if encoded is None:
            return 0
        return self.count_ids(*encoded)

    def cached_count(self, s=None, p=None, o=None) -> int:
        """Memoized :meth:`count`, invalidated by the generation counter.

        The join planner estimates every pattern of every query against
        the same handful of (predicate, class) shapes; caching per
        (pattern, generation) turns re-planning into dict lookups.
        """
        generation = self.generation
        if self._count_cache_gen != generation:
            self._count_cache.clear()
            self._count_cache_gen = generation
        key = (s, p, o)
        cached = self._count_cache.get(key)
        if cached is None:
            if len(self._count_cache) >= _COUNT_CACHE_LIMIT:
                self._count_cache.clear()
            cached = self.count(s, p, o)
            self._count_cache[key] = cached
        return cached

    def __contains__(self, triple) -> bool:
        lookup = self.dictionary.lookup
        s, p, o = triple
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        return self.has_ids(si, pi, oi)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        for _ in self.triples():
            return True
        return False

    def __eq__(self, other) -> bool:
        """Content equality across every kind of graph."""
        if not isinstance(other, ReadableGraph):
            return NotImplemented
        return len(self) == len(other) and all(t in other for t in self)

    __hash__ = None  # compared by content, which may change

    def distinct_object_ids(self, p: int) -> Iterable[int]:
        """The distinct object ids of predicate id ``p``: one POS range,
        deduplicated. Each distinct value is listed once however many
        subjects share it — the name search tests each name once."""
        return dict.fromkeys(o for _, _, o in self.triples_ids(None, p, None))

    # -- convenience accessors ----------------------------------------------

    def _distinct_terms(self, position: int, s, p, o) -> Iterator[Term]:
        """Distinct terms at ``position`` (0-2) of the matching triples,
        deduplicated on ids and decoded one id each."""
        encoded = self._encode_pattern(s, p, o)
        if encoded is None:
            return
        term = self.dictionary.term
        rows = self.triples_ids(*encoded)
        if encoded.count(None) == 1:
            # the other two positions are bound: every row is distinct
            for row in rows:
                yield term(row[position])
            return
        seen_ids: Set[int] = set()
        for row in rows:
            tid = row[position]
            if tid not in seen_ids:
                seen_ids.add(tid)
                yield term(tid)

    def subjects(self, p=None, o=None) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, p, o)``."""
        return self._distinct_terms(0, None, p, o)

    def objects(self, s=None, p=None) -> Iterator[Term]:
        """Distinct objects of triples matching ``(s, p, ?)``."""
        return self._distinct_terms(2, s, p, None)

    def predicates(self, s=None, o=None) -> Iterator[Term]:
        """Distinct predicates of triples matching ``(s, ?, o)``."""
        return self._distinct_terms(1, s, None, o)

    def value(self, s=None, p=None, o=None) -> Optional[Term]:
        """The unique term filling the single unbound position, or None.

        Exactly one of s/p/o must be None. Returns None when no triple
        matches; when several match, an arbitrary one is returned.
        """
        if (s is None) + (p is None) + (o is None) != 1:
            raise ValueError("value() requires exactly one unbound position")
        position = 0 if s is None else 1 if p is None else 2
        return next(self._distinct_terms(position, s, p, o), None)

    def nodes(self) -> Iterator[Term]:
        """Distinct terms appearing in subject or object position."""
        seen: Set[Term] = set()
        for node in chain(self.subjects(), self.objects()):
            if node not in seen:
                seen.add(node)
                yield node

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())


class Graph(ReadableGraph):
    """A mutable set of triples with SPO and POS indexes.

    >>> g = Graph()
    >>> g.add(Triple(IRI("ex:s"), IRI("ex:p"), Literal("o")))
    >>> len(g)
    1
    """

    __slots__ = (
        "_dict",
        "_spo",
        "_pos",
        "_size",
        "_frozen",
        "_listeners",
        "_generation",
        "_count_cache",
        "_count_cache_gen",
        "_cow",
        "_owned_s",
        "_owned_p",
        "_stats",
        "name",
    )

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        name: str = "",
        dictionary: Optional[TermDictionary] = None,
    ):
        self._dict = dictionary if dictionary is not None else DEFAULT_DICTIONARY
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._size = 0
        self._frozen = False
        self._listeners = ()
        self._generation = 0
        self._count_cache: Dict[tuple, int] = {}
        self._count_cache_gen = 0
        # copy-on-write state: after cow_copy() the inner dicts/sets may
        # be shared with another graph; a mutator privatizes the touched
        # subtrees first (see _privatize)
        self._cow = False
        self._owned_s: Set[int] = set()
        self._owned_p: Set[int] = set()
        self._stats = None
        self.name = name
        if triples is not None:
            for t in triples:
                self.add(t)

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary this graph interns into."""
        return self._dict

    @property
    def generation(self) -> int:
        """Monotonic change counter: bumps on every effective mutation.

        Plan caches, selectivity caches, and the hierarchy memoization
        compare generations instead of subscribing to individual change
        events — equal generation means bit-identical triple content.
        """
        return self._generation

    # -- change notification ------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register ``listener(action, s, p, o)`` for change events.

        ``action`` is ``"add"`` or ``"remove"`` and ``s, p, o`` are the
        changed triple's ids in :attr:`dictionary`: a change is an id
        triple, and a listener decodes only the terms it keeps. Only
        effective changes notify (duplicate adds and missed removes are
        silent). The audit journal and index-staleness tracking build on
        this.
        """
        self._listeners = (*self._listeners, listener)

    def unsubscribe(self, listener) -> None:
        # equality, not identity: bound methods are recreated per access
        self._listeners = tuple(l for l in self._listeners if l != listener)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a ground triple. Returns True when it was not present."""
        self._check_writable()
        if not isinstance(triple, Triple):
            triple = Triple(*triple)
        if not triple.is_ground():
            raise ValueError(f"cannot store non-ground triple: {triple.n3()}")
        intern = self._dict.intern
        s, p, o = triple
        return self.add_ids(intern(s), intern(p), intern(o))

    def add_ids(self, s: int, p: int, o: int) -> bool:
        """Add the triple with dictionary ids ``(s, p, o)`` — the one
        insert path (:meth:`add` interns and delegates here). The caller
        vouches that the ids form a valid triple. Returns True when it
        was not present."""
        self._check_writable()
        if self._cow:
            self._privatize(s, p)
        if not _add_leaf(self._spo, s, p, o):
            return False
        _add_leaf(self._pos, p, o, s)
        self._size += 1
        self._generation += 1
        for listener in self._listeners:
            listener("add", s, p, o)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> None:
        """Remove a triple; raises KeyError when absent."""
        if not self.discard(triple):
            raise KeyError(triple)

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present. Returns True when it was removed."""
        self._check_writable()
        lookup = self._dict.lookup
        s, p, o = triple
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        return self.discard_ids(si, pi, oi)

    def discard_ids(self, s: int, p: int, o: int) -> bool:
        """Remove the triple with dictionary ids ``(s, p, o)`` if present
        — the one delete path (see :meth:`add_ids`)."""
        self._check_writable()
        if self._cow:
            self._privatize(s, p)
        if not _discard_leaf(self._spo, s, p, o):
            return False
        _discard_leaf(self._pos, p, o, s)
        self._size -= 1
        self._generation += 1
        for listener in self._listeners:
            listener("remove", s, p, o)
        return True

    def remove_pattern(self, s=None, p=None, o=None) -> int:
        """Remove every triple matching the pattern; returns the count.
        Matches are collected and removed in id space."""
        encoded = self._encode_pattern(s, p, o)
        if encoded is None:
            return 0
        doomed = list(self.triples_ids(*encoded))
        for row in doomed:
            self.discard_ids(*row)
        return len(doomed)

    def clear(self) -> None:
        self._check_writable()
        if self._listeners:
            for row in list(self.triples_ids()):
                self.discard_ids(*row)
            return
        if self._size:
            self._generation += 1
        # outer index dicts are never shared (cow_copy shallow-copies
        # them), so clearing them drops every shared inner structure at
        # once — afterwards nothing is shared and CoW mode can end
        self._spo.clear()
        self._pos.clear()
        self._size = 0
        if self._cow:
            self._cow = False
            self._owned_s.clear()
            self._owned_p.clear()

    def freeze(self) -> "Graph":
        """Make the graph immutable (used by historized snapshots)."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _check_writable(self) -> None:
        if self._frozen:
            raise ReadOnlyGraphError(f"graph {self.name!r} is frozen")

    def _privatize(self, si: int, pi: int) -> None:
        """Unshare the index subtrees a mutation of (si, pi, _) touches.

        After :meth:`cow_copy` the *inner* dicts and set leaves may be
        shared with the other graph; cloning just the two touched
        subtrees (cost O(degree of the term)) keeps a delta-sized write
        after a CoW publication proportional to the delta, not the graph.
        An int leaf is immutable, but the inner dict holding it is
        shared, so replacing it needs the private dict all the same.
        """
        if si not in self._owned_s:
            self._owned_s.add(si)
            by_p = self._spo.get(si)
            if by_p is not None:
                self._spo[si] = _copy_inner(by_p)
        if pi not in self._owned_p:
            self._owned_p.add(pi)
            by_o = self._pos.get(pi)
            if by_o is not None:
                self._pos[pi] = _copy_inner(by_o)

    # -- id-space access ----------------------------------------------------

    def triples_ids(self, s=None, p=None, o=None) -> Iterator[IdTriple]:
        """Yield id-triples matching the id pattern (None = wildcard).

        Arguments are dictionary ids (ints), not terms. This is the
        fast path the join operators run on: no term objects are built
        and no term hashing happens during iteration.
        """
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return
            if p is not None:
                objs = by_p.get(p)
                if objs is None:
                    return
                if o is not None:
                    if o == objs if type(objs) is int else o in objs:
                        yield (s, p, o)
                elif type(objs) is int:
                    yield (s, p, objs)
                else:
                    for obj in objs:
                        yield (s, p, obj)
            elif o is not None:
                for pred, objs in by_p.items():
                    if o == objs if type(objs) is int else o in objs:
                        yield (s, pred, o)
            else:
                for pred, objs in by_p.items():
                    if type(objs) is int:
                        yield (s, pred, objs)
                    else:
                        for obj in objs:
                            yield (s, pred, obj)
        elif p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return
            if o is not None:
                subjs = by_o.get(o)
                if subjs is None:
                    return
                if type(subjs) is int:
                    yield (subjs, p, o)
                else:
                    for subj in subjs:
                        yield (subj, p, o)
            else:
                for obj, subjs in by_o.items():
                    if type(subjs) is int:
                        yield (subjs, p, obj)
                    else:
                        for subj in subjs:
                            yield (subj, p, obj)
        elif o is not None:
            for pred, by_o in self._pos.items():
                subjs = by_o.get(o)
                if subjs is None:
                    continue
                if type(subjs) is int:
                    yield (subjs, pred, o)
                else:
                    for subj in subjs:
                        yield (subj, pred, o)
        else:
            for subj, by_p in self._spo.items():
                for pred, objs in by_p.items():
                    if type(objs) is int:
                        yield (subj, pred, objs)
                    else:
                        for obj in objs:
                            yield (subj, pred, obj)

    def rows_not_in(self, other: "Graph") -> Iterator[IdTriple]:
        """The rows of this graph that ``other`` lacks, in SPO order. A
        subject entry both share (:meth:`cow_copy` shares each until a
        side writes it) or that compares equal is skipped whole: the cost
        is O(distinct subjects) plus the entries that differ."""
        theirs, has = other._spo, other.has_ids
        for s, by_p in self._spo.items():
            other_by_p = theirs.get(s)
            if other_by_p is by_p or other_by_p == by_p:
                continue
            for p, leaf in by_p.items():
                for o in (leaf,) if type(leaf) is int else leaf:
                    if not has(s, p, o):
                        yield (s, p, o)

    def distinct_object_ids(self, p: int) -> Iterable[int]:
        """The keys of ``p``'s POS entry (copied: a writer may add to it)."""
        return list(self._pos.get(p, ()))

    def has_ids(self, s: int, p: int, o: int) -> bool:
        """Membership test over dictionary ids (no term hashing).

        The release differ iterates one graph in id space and probes the
        other with this — sharing a dictionary makes the whole diff run
        on ints.
        """
        by_p = self._spo.get(s)
        if by_p is None:
            return False
        objs = by_p.get(p)
        if objs is None:
            return False
        return o == objs if type(objs) is int else o in objs

    def count_ids(self, s=None, p=None, o=None) -> int:
        """Like :meth:`count` but over dictionary ids."""
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return 0
            if p is not None:
                if o is not None:
                    return 1 if self.has_ids(s, p, o) else 0
                return _leaf_len(by_p.get(p))
            if o is not None:
                return sum(
                    1 for objs in by_p.values() if (o == objs if type(objs) is int else o in objs)
                )
            return _leaves_len(by_p)
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return 0
            if o is not None:
                return _leaf_len(by_o.get(o))
            return _leaves_len(by_o)
        if o is not None:
            return sum(_leaf_len(by_o.get(o)) for by_o in self._pos.values())
        return self._size

    # -- statistics ----------------------------------------------------------

    def stats(self):
        """The graph's :class:`~repro.rdf.stats.StatsCatalog` (created
        lazily). Copies (:meth:`copy` / :meth:`cow_copy`) do not inherit
        the catalog — each graph collects its own on first use.
        """
        if self._stats is None:
            from repro.rdf.stats import StatsCatalog

            self._stats = StatsCatalog(self)
        return self._stats

    def distinct_subject_count(self) -> int:
        """Number of distinct subjects over all triples — O(1)."""
        return len(self._spo)

    def distinct_predicate_count(self) -> int:
        """Number of distinct predicates over all triples — O(1)."""
        return len(self._pos)

    def distinct_object_count(self) -> int:
        """Number of distinct objects over all triples: the union of the
        POS second-level keys, O(distinct predicate-object pairs)."""
        return len(set().union(*self._pos.values()))

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} size={self._size}>"

    def nodes(self) -> Iterator[Term]:
        """Distinct terms appearing in subject or object position
        (walks the index keys, not the triples): the SPO keys, then the
        POS second-level keys that are not subjects."""
        term = self._dict.term
        subjects = self._spo
        for si in subjects:
            yield term(si)
        seen: Set[int] = set()
        for by_o in self._pos.values():
            for oi in by_o:
                if oi not in subjects and oi not in seen:
                    seen.add(oi)
                    yield term(oi)

    # -- what the snapshot writer reads -------------------------------------

    def term_ids(self) -> Iterable[int]:
        """Every id used, repeats allowed: the index keys (subjects,
        predicates, each predicate's objects), no triple visited."""
        return chain(self._spo, self._pos, *self._pos.values())

    def sorted_levels(self, order: str, remap) -> Tuple[array, ...]:
        """The ``"spo"`` or ``"pos"`` index with each id mapped through
        ``remap`` (indexed by id), as five CSR arrays ascending at every
        level — keys1, off1, keys2, off2, ids3, the run layout of
        :mod:`repro.storage.codec` — streamed, with no list of rows."""
        index = self._spo if order == "spo" else self._pos
        key = remap.__getitem__
        keys1, off1, keys2, off2, ids3 = (array("I") for _ in range(5))
        add2, add_off2, add3 = keys2.append, off2.append, ids3.append
        for a in sorted(index, key=key):
            keys1.append(key(a))
            off1.append(len(keys2))
            inner = index[a]
            for b in sorted(inner, key=key) if len(inner) > 1 else inner:
                add2(key(b))
                add_off2(len(ids3))
                leaf = inner[b]
                if type(leaf) is int:
                    add3(key(leaf))
                else:
                    ids3.extend(sorted(map(key, leaf)))
        off1.append(len(keys2))
        off2.append(len(ids3))
        return keys1, off1, keys2, off2, ids3

    # -- construction and copies ---------------------------------------------

    @classmethod
    def from_ids(
        cls, rows: Iterable[IdTriple], dictionary: TermDictionary, name: str = ""
    ) -> "Graph":
        """A graph over ``dictionary`` holding the id triples ``rows``.

        Indexes the ids directly — no term is decoded or re-interned —
        which is how a mapped snapshot graph becomes a writable one.
        """
        g = cls(name=name, dictionary=dictionary)
        spo, pos = g._spo, g._pos
        size = 0
        for s, p, o in rows:
            if _add_leaf(spo, s, p, o):
                _add_leaf(pos, p, o, s)
                size += 1
        g._size = size
        return g

    def copy(self, name: str = "") -> "Graph":
        """A mutable copy sharing this graph's term dictionary.

        Copies the two indexes structurally (dict comprehensions over
        ids; an int leaf is shared, a set leaf copied) instead of re-interning term objects — an order of
        magnitude faster, which matters because the query service
        publishes a copy as the new reader snapshot after every write
        epoch. Listeners and frozen-ness are not carried over.
        """
        g = Graph(name=name or self.name, dictionary=self._dict)
        g._spo = {s: _copy_inner(by_p) for s, by_p in self._spo.items()}
        g._pos = {p: _copy_inner(by_o) for p, by_o in self._pos.items()}
        g._size = self._size
        return g

    def cow_copy(self, name: str = "") -> "Graph":
        """A copy-on-write copy: O(distinct subjects + predicates)
        instead of O(triples).

        Only the two *outer* index dicts are copied; the inner dicts
        and set leaves stay shared until one side mutates the corresponding
        subtree (see :meth:`_privatize`). Both graphs enter CoW mode —
        the source's previous ownership knowledge is reset because every
        inner structure is now shared again. Snapshot publication
        freezes the copy, so in practice only the live side ever pays
        privatization cost, and only for subtrees the next delta
        touches. Listeners and frozen-ness are not carried over.
        """
        g = Graph(name=name or self.name, dictionary=self._dict)
        g._spo = dict(self._spo)
        g._pos = dict(self._pos)
        g._size = self._size
        g._cow = True
        self._cow = True
        self._owned_s.clear()
        self._owned_p.clear()
        return g

    # -- set operations ------------------------------------------------------

    def union(self, other: Iterable[Triple], name: str = "") -> "Graph":
        g = self.copy(name)
        g.add_all(other)
        return g

    def intersection(self, other: "Graph", name: str = "") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return Graph((t for t in small if t in large), name=name, dictionary=self._dict)

    def difference(self, other: "Graph", name: str = "") -> "Graph":
        return Graph((t for t in self if t not in other), name=name, dictionary=self._dict)

    def __or__(self, other) -> "Graph":
        return self.union(other)

    def __and__(self, other) -> "Graph":
        return self.intersection(other)

    def __sub__(self, other) -> "Graph":
        return self.difference(other)


# -- index leaves: one id inline, two or more in a set ------------------------


def _add_leaf(index: _Index, k1: int, k2: int, v: int) -> bool:
    """Add ``v`` to the leaf at ``index[k1][k2]``; False when present."""
    inner = index.get(k1)
    if inner is None:
        index[k1] = {k2: v}
        return True
    leaf = inner.get(k2)
    if leaf is None:
        inner[k2] = v
    elif type(leaf) is int:
        if leaf == v:
            return False
        inner[k2] = {leaf, v}
    elif v in leaf:
        return False
    else:
        leaf.add(v)
    return True


def _discard_leaf(index: _Index, k1: int, k2: int, v: int) -> bool:
    """Remove ``v`` from the leaf at ``index[k1][k2]``, pruning an emptied
    leaf and inner dict and inlining a set left with one id; False when
    absent."""
    inner = index.get(k1)
    if inner is None:
        return False
    leaf = inner.get(k2)
    if leaf is None:
        return False
    if type(leaf) is int:
        if leaf != v:
            return False
        del inner[k2]
        if not inner:
            del index[k1]
    elif v in leaf:
        leaf.remove(v)
        if len(leaf) == 1:
            inner[k2] = leaf.pop()
    else:
        return False
    return True


def _copy_inner(inner: Dict[int, _Leaf]) -> Dict[int, _Leaf]:
    """A private copy of one inner dict: int leaves shared, sets copied."""
    return {k: leaf if type(leaf) is int else set(leaf) for k, leaf in inner.items()}


def _leaf_len(leaf: Optional[_Leaf]) -> int:
    if leaf is None:
        return 0
    return 1 if type(leaf) is int else len(leaf)


def _leaves_len(inner: Dict[int, _Leaf]) -> int:
    return sum(1 if type(leaf) is int else len(leaf) for leaf in inner.values())


class GraphView(ReadableGraph):
    """A read-only union of several graphs.

    Duplicate triples across layers are reported once. The store hands a
    view of [model graphs..., entailment index] to the query engine, so
    derived triples exist "only through the indexes" exactly as the paper
    describes.

    Every layer interns into one dictionary (else the constructor raises
    :class:`~repro.rdf.dictionary.DictionaryMismatchError`), so the view
    merges its layers in id space only: the term-level reads come from
    :class:`ReadableGraph` over :meth:`triples_ids` / :meth:`count_ids`.

    ``disjoint_hint=True`` asserts the layers are pairwise disjoint;
    iteration then skips the dedup set and ``count``/``__len__`` sum the
    layer counts directly. The caller owns the proof — the store sets it
    only for a base model stacked with a freshly built entailment index
    (the reasoner never emits triples already asserted in the base).
    """

    __slots__ = ("_layers", "_disjoint", "_dict")

    def __init__(self, layers: Iterable[ReadableGraph], disjoint_hint: bool = False):
        self._layers: Tuple[ReadableGraph, ...] = tuple(layers)
        if not self._layers:
            raise ValueError("GraphView requires at least one layer")
        self._dict = self._layers[0].dictionary
        for layer in self._layers[1:]:
            if layer.dictionary is not self._dict:
                raise DictionaryMismatchError(
                    f"GraphView layers intern into different dictionaries: "
                    f"{self._layers[0]!r} and {layer!r}"
                )
        self._disjoint = disjoint_hint or len(self._layers) == 1

    @property
    def layers(self) -> Tuple[ReadableGraph, ...]:
        return self._layers

    @property
    def disjoint_hint(self) -> bool:
        return self._disjoint

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary every layer interns into."""
        return self._dict

    @property
    def generation(self) -> Tuple[Tuple[int, int], ...]:
        """A composite change stamp over the layers.

        Two equal stamps mean every layer object is the same and none
        has mutated — the invariant plan and selectivity caches key on.
        """
        return tuple((id(layer), layer.generation) for layer in self._layers)

    def triples_ids(self, s=None, p=None, o=None) -> Iterator[IdTriple]:
        """Merged id-space iteration (see :meth:`Graph.triples_ids`):
        dedup across layers happens on int tuples (or not at all under
        ``disjoint_hint``)."""
        if len(self._layers) == 1:
            yield from self._layers[0].triples_ids(s, p, o)
            return
        if self._disjoint:
            for layer in self._layers:
                yield from layer.triples_ids(s, p, o)
            return
        seen: Set[IdTriple] = set()
        for layer in self._layers:
            for t in layer.triples_ids(s, p, o):
                if t not in seen:
                    seen.add(t)
                    yield t

    def distinct_object_ids(self, p: int) -> Iterable[int]:
        return dict.fromkeys(
            chain.from_iterable(layer.distinct_object_ids(p) for layer in self._layers)
        )

    def has_ids(self, s: int, p: int, o: int) -> bool:
        return any(layer.has_ids(s, p, o) for layer in self._layers)

    def count_ids(self, s=None, p=None, o=None) -> int:
        if self._disjoint:
            return sum(layer.count_ids(s, p, o) for layer in self._layers)
        return sum(1 for _ in self.triples_ids(s, p, o))

    def cached_count(self, s=None, p=None, o=None) -> int:
        """Layer-cached cardinality; exact when disjoint, an upper bound
        otherwise (good enough for join ordering)."""
        return sum(layer.cached_count(s, p, o) for layer in self._layers)

    def stats(self):
        """Combined per-predicate statistics over the layers (see
        :class:`~repro.rdf.stats.CombinedStats`)."""
        from repro.rdf.stats import CombinedStats

        if len(self._layers) == 1:
            return self._layers[0].stats()
        return CombinedStats(layer.stats() for layer in self._layers)

    def distinct_subject_count(self) -> int:
        return sum(layer.distinct_subject_count() for layer in self._layers)

    def distinct_predicate_count(self) -> int:
        return sum(layer.distinct_predicate_count() for layer in self._layers)

    def distinct_object_count(self) -> int:
        return sum(layer.distinct_object_count() for layer in self._layers)

    def __len__(self) -> int:
        if self._disjoint:
            return sum(len(layer) for layer in self._layers)
        return self.count_ids()

    def __repr__(self) -> str:
        names = ", ".join(repr(layer.name or "?") for layer in self._layers)
        hint = " disjoint" if self._disjoint and len(self._layers) > 1 else ""
        return f"<GraphView layers=[{names}]{hint}>"

    def add(self, triple) -> None:
        raise ReadOnlyGraphError("GraphView is read-only")

    def discard(self, triple) -> None:
        raise ReadOnlyGraphError("GraphView is read-only")

    remove = discard


class FrozenGraph(ReadableGraph):
    """The base of graphs that never change once built: a mapped
    snapshot graph and a :class:`LayeredGraph`.

    Mutators raise, listeners are never called, a CoW copy is the graph
    itself and :meth:`materialize` gives a writable :class:`Graph`.
    ``frozen`` is the flag the graph was saved with. A subclass sets
    ``_size`` and its primitives, then calls this constructor.
    """

    __slots__ = ("_size", "_frozen", "_stats", "_count_cache", "_count_cache_gen", "name")

    def __init__(self, name: str = "", frozen: bool = True):
        self._frozen = frozen
        self._stats = None
        self._count_cache: Dict[tuple, int] = {}
        self._count_cache_gen = self.generation
        self.name = name

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "FrozenGraph":
        self._frozen = True
        return self

    def subscribe(self, listener) -> None:
        """Accepted and ignored: the graph never changes."""

    unsubscribe = subscribe

    def _read_only(self, *_args, **_kwargs):
        raise ReadOnlyGraphError(
            f"graph {self.name!r} is read-only; materialize() it for a writable copy"
        )

    add = add_all = remove = discard = remove_pattern = clear = _read_only

    def stats(self):
        """The graph's :class:`~repro.rdf.stats.StatsCatalog`."""
        if self._stats is None:
            from repro.rdf.stats import StatsCatalog

            self._stats = StatsCatalog(self)
        return self._stats

    def materialize(self, name: str = "") -> Graph:
        """A mutable :class:`Graph` over the same dictionary, indexed from
        the id triples (no term is decoded)."""
        return Graph.from_ids(self.triples_ids(), self.dictionary, name=name or self.name)

    copy = materialize

    def cow_copy(self, name: str = "") -> "FrozenGraph":
        """The graph never changes, so it is its own copy-on-write copy."""
        return self

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} size={self._size}>"


class LayeredGraph(FrozenGraph):
    """``base`` minus ``removed`` plus ``added``, read-only.

    A version saved as a reverse delta attaches as one over the next
    newer version; a delta segment layers each changed graph this way.
    The caller vouches that the three share one dictionary and never
    change, that ``removed`` is a subset of ``base`` and that ``added``
    is disjoint from it, so every count is exact: base − removed +
    added. The distinct counts are upper bounds, as for a view.
    """

    __slots__ = ("_base", "_added", "_removed")

    def __init__(
        self,
        base: ReadableGraph,
        added: ReadableGraph,
        removed: ReadableGraph,
        name: str = "",
        frozen: bool = True,
    ):
        self._base, self._added, self._removed = base, added, removed
        self._size = len(base) - len(removed) + len(added)
        super().__init__(name, frozen)

    @property
    def layers(self) -> Tuple[ReadableGraph, ReadableGraph, ReadableGraph]:
        """``(base, added, removed)``."""
        return self._base, self._added, self._removed

    @property
    def dictionary(self) -> TermDictionary:
        return self._base.dictionary

    @property
    def generation(self):
        """The base's stamp: no layer ever changes."""
        return self._base.generation

    def triples_ids(self, s=None, p=None, o=None) -> Iterator[IdTriple]:
        if len(self._removed):
            gone = self._removed.has_ids
            for row in self._base.triples_ids(s, p, o):
                if not gone(*row):
                    yield row
        else:
            yield from self._base.triples_ids(s, p, o)
        yield from self._added.triples_ids(s, p, o)

    def has_ids(self, s: int, p: int, o: int) -> bool:
        if self._added.has_ids(s, p, o):
            return True
        return self._base.has_ids(s, p, o) and not self._removed.has_ids(s, p, o)

    def count_ids(self, s=None, p=None, o=None) -> int:
        return (
            self._base.count_ids(s, p, o)
            - self._removed.count_ids(s, p, o)
            + self._added.count_ids(s, p, o)
        )

    def distinct_subject_count(self) -> int:
        return self._base.distinct_subject_count() + self._added.distinct_subject_count()

    def distinct_predicate_count(self) -> int:
        return self._base.distinct_predicate_count() + self._added.distinct_predicate_count()

    def distinct_object_count(self) -> int:
        return self._base.distinct_object_count() + self._added.distinct_object_count()
