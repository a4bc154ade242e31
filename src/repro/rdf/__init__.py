"""RDF substrate for the meta-data warehouse.

This package provides the storage layer the paper implements on top of the
Oracle Spatial (Semantic Web) option: RDF terms and triples, an indexed
in-memory graph, a store of named models (the analog of ``SEM_MODELS``),
staging tables with a bulk loader (Figure 4 of the paper), and parsers /
serializers for N-Triples and a Turtle subset.

The public surface is re-exported here so application code can write::

    from repro.rdf import IRI, Literal, Triple, Graph, TripleStore
"""

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    Triple,
    Variable,
)
from repro.rdf.namespace import (
    DM,
    DT,
    Namespace,
    NamespaceManager,
    OWL,
    RDF,
    RDFS,
    XSD,
)
from repro.rdf.dictionary import (
    DEFAULT_DICTIONARY,
    DictionaryMismatchError,
    TermDictionary,
)
from repro.rdf.graph import Graph, GraphView, ReadableGraph, ReadOnlyGraphError
from repro.rdf.stats import CombinedStats, PredicateStats, StatsCatalog
from repro.rdf.store import ModelNotFoundError, TripleStore
from repro.rdf.staging import StagingRow, StagingTable
from repro.rdf.bulkload import BulkLoader, BulkLoadError, BulkLoadReport
from repro.rdf.ntriples import (
    NTriplesParseError,
    parse_ntriples,
    serialize_ntriples,
)
from repro.rdf.turtle import TurtleParseError, parse_turtle, serialize_turtle

__all__ = [
    "BNode",
    "BulkLoader",
    "BulkLoadError",
    "BulkLoadReport",
    "DEFAULT_DICTIONARY",
    "DictionaryMismatchError",
    "DM",
    "DT",
    "Graph",
    "GraphView",
    "IRI",
    "Literal",
    "ModelNotFoundError",
    "Namespace",
    "NamespaceManager",
    "NTriplesParseError",
    "OWL",
    "CombinedStats",
    "PredicateStats",
    "RDF",
    "RDFS",
    "ReadableGraph",
    "ReadOnlyGraphError",
    "StagingRow",
    "StagingTable",
    "StatsCatalog",
    "Term",
    "TermDictionary",
    "Triple",
    "TripleStore",
    "TurtleParseError",
    "Variable",
    "XSD",
    "parse_ntriples",
    "parse_turtle",
    "serialize_ntriples",
    "serialize_turtle",
]
