"""N-Triples serialization and parsing.

N-Triples is the line-oriented exchange format the ETL pipeline uses for
flat RDF files (e.g. the DBpedia extracts the paper merges in). The
serializer emits triples in deterministic sorted order so output files
diff cleanly across versions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.rdf.graph import Graph
from repro.rdf.syntax import TermReader
from repro.rdf.terms import Triple


class NTriplesParseError(ValueError):
    """A malformed N-Triples line, carrying its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def serialize_ntriples(triples: Union[Graph, Iterable[Triple]]) -> str:
    """Serialize triples as N-Triples text, sorted deterministically."""
    lines = [
        f"{t.subject.n3()} {t.predicate.n3()} {t.object.n3()} ."
        for t in sorted(triples, key=lambda t: (t[0].sort_key(), t[1].sort_key(), t[2].sort_key()))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_ntriples(text: str) -> Iterator[Triple]:
    """Parse N-Triples text, yielding triples.

    Comments (``# ...``) and blank lines are skipped; each triple sits on
    one line of its own. Raises :class:`NTriplesParseError` with the
    offending line number.
    """
    reader = TermReader(text, error=_error)
    last_line = 0
    while not reader.at("EOF"):
        line = reader.peek().line
        if line == last_line:
            raise reader.error("one triple per line")
        subject = reader.parse_term("subject")
        predicate = reader.parse_iri()
        obj = reader.parse_term("object")
        if reader.expect("PUNCT", ".").line != line:
            raise NTriplesParseError(line, "a triple must not span lines")
        last_line = line
        yield Triple(subject, predicate, obj)


def _error(message: str, position: int, line: int) -> NTriplesParseError:
    return NTriplesParseError(line, message)
