"""Staging tables for the bulk-load pipeline (Figure 4 of the paper).

Meta-data arrives as XML, is transformed to RDF triples, and lands in
staging tables before the bulk load moves it into the RDF model tables.
A :class:`StagingTable` holds rows in their *lexical* (string) form —
like Oracle's ``SEM_DTYPE``-typed staging columns — so malformed rows can
be detected and rejected by the loader rather than corrupting a model.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple

from repro.rdf.syntax import _TOKEN, TermReader
from repro.rdf.terms import IRI, Term, Triple


class StagingRow(NamedTuple):
    """One staged triple in lexical form.

    The subject/predicate/object columns use N-Triples surface syntax
    (``<iri>``, ``_:label``, ``"literal"``, ``"lit"@lang``,
    ``"lit"^^<dtype>``). ``source`` records which feed produced the row,
    for load-error reporting.
    """

    subject: str
    predicate: str
    object: str
    source: str = ""


class StagingTable:
    """An append-only buffer of :class:`StagingRow` entries."""

    def __init__(self, name: str = "staging"):
        self.name = name
        self._rows: List[StagingRow] = []

    def insert(self, subject: str, predicate: str, obj: str, source: str = "") -> None:
        """Insert one lexical row."""
        self._rows.append(StagingRow(subject, predicate, obj, source))

    def insert_row(self, row: StagingRow) -> None:
        self._rows.append(row)

    def insert_triples(self, triples: Iterable[Triple], source: str = "") -> int:
        """Stage already-parsed triples; returns the number staged."""
        n = 0
        for t in triples:
            self._rows.append(
                StagingRow(t.subject.n3(), t.predicate.n3(), t.object.n3(), source)
            )
            n += 1
        return n

    def rows(self) -> Iterator[StagingRow]:
        return iter(self._rows)

    def truncate(self) -> None:
        """Empty the table (after a successful bulk load)."""
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[StagingRow]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"<StagingTable {self.name!r} rows={len(self._rows)}>"


def parse_lexical_term(text: str) -> Term:
    """Parse one N-Triples-syntax term from a staging column.

    Raises ValueError on malformed input; the bulk loader turns that into
    a rejected row rather than a failed load.
    """
    # most columns are a single IRIREF token: the lexer's own pattern
    # reads it without building a token list and a reader
    whole = _TOKEN.fullmatch(text)
    if whole is not None and whole.lastgroup == "IRIREF":
        return IRI(whole.group("IRIREF"))
    reader = TermReader(text)
    term = reader.parse_term()
    reader.expect("EOF")
    return term


def row_to_triple(row: StagingRow) -> Triple:
    """Parse a staged row into a ground :class:`Triple`.

    Raises ValueError when any column is malformed or the positions are
    of the wrong kind (e.g. a literal subject).
    """
    s = parse_lexical_term(row.subject)
    p = parse_lexical_term(row.predicate)
    o = parse_lexical_term(row.object)
    try:
        return Triple(s, p, o)
    except TypeError as exc:
        raise ValueError(str(exc)) from None
