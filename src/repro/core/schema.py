"""The meta-data schema: class and property declarations.

The paper's crucial design decision: the meta-data schema is *data* —
stored in the same graph as the facts and extended release by release —
rather than a fixed relational schema designed upfront. This manager
provides the declaration API and keeps the graph conformant (classes are
marked ``owl:Class``, properties ``rdf:Property``, domains recorded with
``rdfs:domain``).
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, OWL, RDF, RDFS
from repro.rdf.terms import IRI, Literal, Triple

from repro.core.model import NodeKind, World, node_kind
from repro.core.vocabulary import DM, TERMS


class SchemaError(ValueError):
    """An invalid schema declaration."""


def to_identifier(name: str) -> str:
    """Turn a display name into an IRI-safe local identifier."""
    ident = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")
    if not ident:
        raise SchemaError(f"cannot derive an identifier from {name!r}")
    return ident


class MetadataSchema:
    """Declares and inspects classes and properties of one model graph."""

    def __init__(self, graph: Graph, namespace: Namespace = DM):
        self._graph = graph
        self._ns = namespace

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def namespace(self) -> Namespace:
        return self._ns

    # -- declarations --------------------------------------------------------

    def declare_class(
        self,
        name: str,
        world: World = World.TECHNICAL,
        label: Optional[str] = None,
        parents: Union[IRI, List[IRI], None] = None,
        subject_area: Optional[str] = None,
    ) -> IRI:
        """Declare (or re-open) a class; returns its IRI.

        ``name`` may be a display name ("Source Column"); the IRI local
        part replaces non-identifier characters with underscores.
        Redeclaring an existing class extends it (new parents, label
        update) instead of failing — schemas evolve incrementally.
        """
        cls = self._ns.term(to_identifier(name))
        self._graph.add(Triple(cls, RDF.type, OWL.Class))
        self._graph.add(Triple(cls, RDFS.label, Literal(label or name)))
        self._graph.add(Triple(cls, TERMS.in_world, _world_node(world)))
        if subject_area:
            self._graph.add(Triple(cls, TERMS.subject_area, Literal(subject_area)))
        if parents is not None:
            for parent in [parents] if isinstance(parents, IRI) else parents:
                self.add_subclass(cls, parent)
        return cls

    def declare_property(
        self,
        name: str,
        domain: Union[IRI, List[IRI], None] = None,
        world: World = World.TECHNICAL,
        label: Optional[str] = None,
        parents: Union[IRI, List[IRI], None] = None,
        range_: Optional[IRI] = None,
    ) -> IRI:
        """Declare (or re-open) a property; returns its IRI."""
        prop = self._ns.term(to_identifier(name))
        if (prop, RDF.type, OWL.Class) in self._graph:
            raise SchemaError(f"{prop.value} is already declared as a class")
        self._graph.add(Triple(prop, RDF.type, RDF.Property))
        self._graph.add(Triple(prop, RDFS.label, Literal(label or name)))
        self._graph.add(Triple(prop, TERMS.in_world, _world_node(world)))
        if domain is not None:
            for d in [domain] if isinstance(domain, IRI) else domain:
                self.set_domain(prop, d)
        if range_ is not None:
            self._graph.add(Triple(prop, RDFS.range, range_))
        if parents is not None:
            for parent in [parents] if isinstance(parents, IRI) else parents:
                self.add_subproperty(prop, parent)
        return prop

    def add_subclass(self, child: IRI, parent: IRI) -> None:
        """Record ``child rdfs:subClassOf parent`` (hierarchy edge)."""
        if child == parent:
            raise SchemaError(f"{child.value} cannot be its own superclass")
        if not self.is_class(parent):
            # incremental build-up: a parent named before its declaration
            # becomes a class on first use
            self._graph.add(Triple(parent, RDF.type, OWL.Class))
        self._graph.add(Triple(child, RDFS.subClassOf, parent))

    def add_subproperty(self, child: IRI, parent: IRI) -> None:
        if child == parent:
            raise SchemaError(f"{child.value} cannot be its own superproperty")
        if not self.is_property(parent):
            self._graph.add(Triple(parent, RDF.type, RDF.Property))
        self._graph.add(Triple(child, RDFS.subPropertyOf, parent))

    def set_domain(self, prop: IRI, cls: IRI) -> None:
        """Record ``prop rdfs:domain cls`` (meta-data schema edge)."""
        if not self.is_class(cls):
            self._graph.add(Triple(cls, RDF.type, OWL.Class))
        self._graph.add(Triple(prop, RDFS.domain, cls))

    # -- inspection ------------------------------------------------------------

    def is_class(self, term: IRI) -> bool:
        return node_kind(self._graph, term) is NodeKind.CLASS

    def is_property(self, term: IRI) -> bool:
        return node_kind(self._graph, term) is NodeKind.PROPERTY

    def classes(self) -> Iterator[IRI]:
        """All declared classes, sorted."""
        found = set(self._graph.subjects(RDF.type, OWL.Class))
        found |= set(self._graph.subjects(RDF.type, RDFS.Class))
        return iter(sorted(found, key=lambda c: c.value))

    def properties(self) -> Iterator[IRI]:
        """All declared properties, sorted."""
        found = set(self._graph.subjects(RDF.type, RDF.Property))
        found |= set(self._graph.subjects(RDF.type, OWL.ObjectProperty))
        found |= set(self._graph.subjects(RDF.type, OWL.DatatypeProperty))
        return iter(sorted(found, key=lambda p: p.value))

    def label(self, term: IRI) -> Optional[str]:
        value = self._graph.value(term, RDFS.label, None)
        return value.lexical if isinstance(value, Literal) else None

    def world(self, term: IRI) -> Optional[World]:
        node = self._graph.value(term, TERMS.in_world, None)
        if isinstance(node, Literal):
            try:
                return World(node.lexical)
            except ValueError:
                return None
        return None

    def domain_of(self, prop: IRI) -> List[IRI]:
        return sorted(self._graph.objects(prop, RDFS.domain), key=lambda c: c.value)

    def properties_of(self, cls: IRI) -> List[IRI]:
        """Properties whose domain is ``cls`` (not inherited)."""
        return sorted(self._graph.subjects(RDFS.domain, cls), key=lambda p: p.value)

    def class_by_label(self, label: str) -> Optional[IRI]:
        """Find a class by its display label (exact match)."""
        for cls in self._graph.subjects(RDFS.label, Literal(label)):
            if self.is_class(cls):
                return cls
        return None


def _world_node(world: World) -> Literal:
    # worlds are stored as values: the edge from a class or property to
    # its world is part of the meta-data schema ("describes the classes"),
    # which Table I models as Class→Value edges
    return Literal(world.value)
