"""Answer checking: canonical forms, digests, and references.

An op *fails* when it raises, is refused, comes back ``degraded=True``,
or its canonical answer differs from the reference. References are
computed after the timed phase (so they warm nothing that is measured):
for served and sharded ops by direct ``dispatch()`` on the same
warehouse; for the paper listings by a plain scan over the rdf layer's
triple-pattern API that shares no code with ``repro.sparql`` or
``repro.oracle``.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List

from repro.core.vocabulary import TERMS
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import IRI, Literal


def canonical(kind: str, result) -> List:
    """An order-insensitive, comparable form of any endpoint's answer
    (nested lists of strings; rows are sorted [column, N3] pairs)."""
    if kind in ("query", "sql"):
        return sorted(
            sorted([name, term.n3()] for name, term in row.asdict().items())
            for row in result
        )
    if kind == "search":
        return sorted([hit.instance.n3(), hit.name] for hit in result.hits)
    if kind == "lineage":
        return sorted(
            [edge.source.n3(), edge.target.n3(), edge.rule or "", edge.condition or ""]
            for edge in result.edges
        )
    raise ValueError(f"no canonical form for kind {kind!r}")


def digest(form) -> str:
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()


def answer_digest(kind: str, result) -> str:
    return digest(canonical(kind, result))


def is_degraded(result) -> bool:
    return bool(getattr(result, "degraded", False))


def combined_digest(by_key: Dict[str, str]) -> str:
    """One digest over every op's answer digest (pinned for the default
    seed in ``expected.json``)."""
    return digest(sorted(by_key.items()))


# -- independent references for the paper's listings ---------------------------


def listing1_reference(warehouse, term: str) -> List:
    """Listing 1 by hand over the model + OWLPRIME view: for every named
    object whose name matches, every (class label, object) pair."""
    view = warehouse.view(rulebases=["OWLPRIME"])
    pattern = re.compile(term, re.IGNORECASE)
    rows = set()
    for named in view.triples(None, TERMS.has_name, None):
        if not isinstance(named.object, Literal) or not pattern.search(named.object.lexical):
            continue
        for cls in view.objects(named.subject, RDF.type):
            for label in view.objects(cls, RDFS.label):
                rows.add((label.n3(), named.subject.n3()))
    return sorted([["class", label], ["object", obj]] for label, obj in rows)


def listing2_reference(warehouse, source: str) -> List:
    """Listing 2's bound-source probe by hand."""
    view = warehouse.view(rulebases=["OWLPRIME"])
    source_term = IRI(source)
    rows = set()
    for target in view.objects(source_term, TERMS.is_mapped_to):
        if next(iter(view.objects(target, RDF.type)), None) is None:
            continue
        for name in view.objects(target, TERMS.has_name):
            rows.add((target.n3(), name.n3()))
    return sorted(
        [["source_id", source_term.n3()], ["target_id", target], ["target_name", name]]
        for target, name in rows
    )
