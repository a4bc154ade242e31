"""Ontology-file export and import (the Protégé round-trip of Figure 4).

"The meta-data hierarchies are designed and maintained in a popular
open-source tool called Protégé. They are exported from this tool as an
ontology file and inserted as RDF triples into the same staging tables
as the meta-data facts."

The ontology file format is Turtle restricted to schema content:
class/property declarations, labels, worlds, subsumption, and domains.
:func:`export_ontology` extracts exactly that subset from a graph;
:func:`import_ontology` parses a file and stages its triples.
"""

from __future__ import annotations

from typing import Optional

from repro.rdf.graph import Graph
from repro.rdf.namespace import NamespaceManager, OWL, RDF, RDFS, DM, DT
from repro.rdf.staging import StagingTable
from repro.rdf.terms import IRI
from repro.rdf.turtle import parse_turtle, serialize_turtle

from repro.core.vocabulary import MDW, TERMS

#: Predicates that belong to the schema/hierarchy layers of the graph.
_SCHEMA_PREDICATES = (
    RDFS.subClassOf,
    RDFS.subPropertyOf,
    RDFS.domain,
    RDFS.range,
    RDFS.label,
    TERMS.in_world,
    TERMS.subject_area,
)

_MARKER_OBJECTS = (
    OWL.Class,
    RDFS.Class,
    RDF.Property,
    OWL.ObjectProperty,
    OWL.DatatypeProperty,
)


def default_namespace_manager() -> NamespaceManager:
    nsm = NamespaceManager()
    nsm.bind("dm", DM)
    nsm.bind("dt", DT)
    nsm.bind("mdw", MDW)
    return nsm


def export_ontology(graph: Graph, nsm: Optional[NamespaceManager] = None) -> str:
    """Serialize the schema + hierarchy subset of ``graph`` as Turtle.

    This is what the authoring tool's "export" produces: class and
    property declarations with labels, worlds, subject areas, the
    subsumption hierarchies, and property domains — no instances, no
    facts.
    """
    subset = Graph(name="ontology")
    for t in graph:
        if t.predicate == RDF.type and t.object in _MARKER_OBJECTS:
            subset.add(t)
        elif t.predicate in _SCHEMA_PREDICATES and _is_schema_node(graph, t.subject):
            subset.add(t)
    return serialize_turtle(subset, nsm or default_namespace_manager())


def _is_schema_node(graph: Graph, node) -> bool:
    if not isinstance(node, IRI):
        return False
    for marker in _MARKER_OBJECTS:
        if (node, RDF.type, marker) in graph:
            return True
    # subjects of subsumption edges are schema nodes even when the type
    # marker arrives later in the same feed
    return bool(
        any(graph.objects(node, RDFS.subClassOf))
        or any(graph.objects(node, RDFS.subPropertyOf))
    )


def import_ontology(
    text: str,
    staging: Optional[StagingTable] = None,
    source: str = "ontology-export",
) -> Graph:
    """Parse an ontology file; optionally stage its triples for bulk load.

    Returns the parsed graph either way, so callers can also merge it
    directly.
    """
    graph = parse_turtle(text, default_namespace_manager())
    if staging is not None:
        staging.insert_triples(graph, source=source)
    return graph
