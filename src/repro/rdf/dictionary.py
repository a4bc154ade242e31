"""Term interning: the dictionary-encoding layer of the RDF substrate.

Oracle's RDF model tables never store lexical values inline — every IRI
and literal is mapped to a numeric ``VALUE_ID`` in ``MDSYS.RDF_VALUE$``
and the triple tables hold only ids. :class:`TermDictionary` replicates
that design for the in-memory substrate: terms are interned to dense
integer ids once, the graph indexes (:mod:`repro.rdf.graph`) key on
ints, and the query engine's join operators compare and hash ints
instead of re-hashing frozen term objects on every probe.

All graphs share one process-wide dictionary by default so that ids are
comparable across the layers of a :class:`~repro.rdf.graph.GraphView`
(base model plus entailment indexes) — exactly the property the
hash-join executor relies on. A store and every view over it have one
dictionary; layers that intern elsewhere raise
:class:`DictionaryMismatchError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rdf.terms import Term


class DictionaryMismatchError(ValueError):
    """Raised when graphs that must share one id space intern into
    different dictionaries: the layers of a view, or a graph adopted
    into (or attached to) a store whose models intern elsewhere."""


class TermDictionary:
    """A bijective mapping between RDF terms and dense integer ids.

    Ids are allocated on first interning, start at 0, and are never
    reused — a term keeps its id for the lifetime of the dictionary, so
    cached query plans and hash tables stay valid across graph
    mutations (removal only drops index entries, not dictionary rows).
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self):
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []

    def intern(self, term: Term) -> int:
        """The id of ``term``, allocating one when unseen."""
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def lookup(self, term: Term) -> Optional[int]:
        """The id of ``term`` without allocating; None when unseen.

        A ``None`` here means no stored triple can contain the term —
        the query engine uses this to prove a pattern empty without
        touching an index.
        """
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        """The term with id ``tid`` (ids come only from this dictionary)."""
        return self._terms[tid]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"<TermDictionary terms={len(self._terms)}>"


#: The process-wide default dictionary every :class:`Graph` interns into
#: unless it is constructed with an explicit one.
DEFAULT_DICTIONARY = TermDictionary()
