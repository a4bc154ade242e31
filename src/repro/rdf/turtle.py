"""Turtle (subset) serialization and parsing.

The ontology files exported from the hierarchy-authoring tool (Protégé in
the paper, :mod:`repro.etl.ontology_io` here) use Turtle because it is the
human-readable form practitioners actually review. The supported subset:

* ``@prefix`` (and SPARQL-style ``PREFIX``) directives and prefixed names
* the ``a`` keyword for ``rdf:type``
* predicate lists (``;``) and object lists (``,``)
* plain / language-tagged / datatyped literals, and bare integer,
  decimal, and boolean shorthands
* blank-node labels (``_:x``); anonymous ``[...]`` nodes are rejected
  with a clear error since the warehouse never emits them
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, NamespaceManager
from repro.rdf.syntax import TermReader
from repro.rdf.terms import IRI, Literal, Term, Triple, escape_literal

_RDF_TYPE = RDF.type


class TurtleParseError(ValueError):
    """A Turtle syntax error with position information."""

    def __init__(self, message: str, position: int = -1):
        suffix = f" (at offset {position})" if position >= 0 else ""
        super().__init__(message + suffix)
        self.position = position


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_turtle(
    triples: Union[Graph, Iterable[Triple]],
    nsm: Optional[NamespaceManager] = None,
) -> str:
    """Serialize triples as Turtle, grouped by subject with ``;`` lists.

    Output is deterministic: subjects, predicates, and objects appear in
    term sort order, ``rdf:type`` (as ``a``) first among predicates.
    """
    nsm = nsm or NamespaceManager()
    by_subject = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append((t.predicate, t.object))

    lines: List[str] = []
    for prefix, ns in nsm.bindings():
        lines.append(f"@prefix {prefix}: <{ns.base}> .")
    if lines:
        lines.append("")

    for subject in sorted(by_subject, key=lambda s: s.sort_key()):
        pairs = by_subject[subject]
        by_pred = {}
        for p, o in pairs:
            by_pred.setdefault(p, []).append(o)
        pred_order = sorted(by_pred, key=lambda p: (p != _RDF_TYPE, p.sort_key()))
        chunks = []
        for p in pred_order:
            objs = ", ".join(
                _term_out(o, nsm) for o in sorted(by_pred[p], key=lambda o: o.sort_key())
            )
            pred_text = "a" if p == _RDF_TYPE else _term_out(p, nsm)
            chunks.append(f"{pred_text} {objs}")
        body = " ;\n    ".join(chunks)
        lines.append(f"{_term_out(subject, nsm)} {body} .")
    return "\n".join(lines) + ("\n" if lines else "")


def _term_out(term: Term, nsm: NamespaceManager) -> str:
    if isinstance(term, IRI):
        qname = nsm.compact(term)
        return qname if qname is not None else term.n3()
    if isinstance(term, Literal) and term.datatype is not None:
        dt = term.datatype
        qname = nsm.compact(dt)
        if qname is not None:
            return f'"{escape_literal(term.lexical)}"^^{qname}'
    return term.n3()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_turtle(text: str, nsm: Optional[NamespaceManager] = None) -> Graph:
    """Parse Turtle text (the subset above) into a new :class:`Graph`.

    When ``nsm`` is given, prefixes declared in the document are bound
    into it, so callers can reuse the bindings for later serialization.
    """
    reader = TermReader(text, nsm or NamespaceManager(), _error)
    graph = Graph()
    while True:
        reader.parse_prologue()
        if reader.at("EOF"):
            return graph
        if reader.accept("LANGTAG", "prefix"):
            reader.parse_prefix_binding()
        else:
            for s, p, o in reader.parse_triples_same_subject():
                graph.add(Triple(s, p, o))
        reader.expect("PUNCT", ".")


def _error(message: str, position: int, line: int) -> TurtleParseError:
    return TurtleParseError(f"{message} (line {line})", position)
