"""The fact layer: instances, values, and their relationships.

Facts are the lowest layer of the warehouse graph (Figure 3): concrete
columns, files, applications, and the mapping edges between them. The
manager enforces the Table I envelope — e.g. you cannot assert a value
for an undeclared property — which is the "conventions on how to add
meta-data to the graph" the paper relies on to keep the flexible graph
queryable.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF
from repro.rdf.syntax import is_bnode_label
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple

from repro.core.schema import MetadataSchema, to_identifier
from repro.core.vocabulary import TERMS


class FactError(ValueError):
    """An assertion that violates the warehouse conventions."""


ValueLike = Union[Literal, str, int, float, bool]


def mapping_node(source: Term, target: Term) -> BNode:
    """The deterministic reification node of one mapping edge.

    Deriving the label from the endpoints keeps graph generation
    reproducible per seed and makes re-asserting the same mapping
    idempotent. The label is ``map_<source>__<target>`` of the two local
    names when every reader accepts it (:func:`is_bnode_label`) and the
    source name neither holds ``__`` nor ends in ``_``, so the first
    ``__`` is always the separator. Else it is ``mapx_<source>_<target>``
    with each name escaped by :func:`_escape_local`, which no ``map_``
    label can equal. Either way two mapping edges never share a node.
    """
    def local(term: Term) -> str:
        return term.local_name if isinstance(term, IRI) else term.label

    src, tgt = local(source), local(target)
    label = f"map_{src}__{tgt}"
    if "__" not in src and not src.endswith("_") and is_bnode_label(label):
        return BNode(label)
    return BNode(f"mapx_{_escape_local(src)}_{_escape_local(tgt)}")


def _escape_local(name: str) -> str:
    """``name`` with every character but an ASCII letter or digit written
    as ``-<hex code point>-``: injective, and free of ``_``, so the pair
    of a ``mapx_`` label splits at its one ``_``."""
    return "".join(
        ch if ch.isascii() and ch.isalnum() else f"-{ord(ch):x}-" for ch in name
    )


class FactManager:
    """Asserts facts into one model graph, checking conventions."""

    def __init__(self, graph: Graph, schema: MetadataSchema, instance_ns: Namespace):
        self._graph = graph
        self._schema = schema
        self._ns = instance_ns

    @property
    def namespace(self) -> Namespace:
        return self._ns

    # -- instances ---------------------------------------------------------

    def add_instance(
        self,
        name: str,
        cls: Union[IRI, List[IRI]],
        display_name: Optional[str] = None,
    ) -> IRI:
        """Create (or extend) an instance of ``cls``; returns its IRI.

        Instances carry a ``dm:hasName`` value — the paper's search
        matches on it (Listing 1) — defaulting to ``name`` itself.
        """
        classes = [cls] if isinstance(cls, IRI) else list(cls)
        if not classes:
            raise FactError("an instance needs at least one class")
        for c in classes:
            if not self._schema.is_class(c):
                raise FactError(f"{c.value} is not a declared class")
        instance = self._ns.term(to_identifier(name))
        if self._schema.is_class(instance) or self._schema.is_property(instance):
            raise FactError(f"{instance.value} already names a class or property")
        for c in classes:
            self._graph.add(Triple(instance, RDF.type, c))
        self._graph.add(Triple(instance, TERMS.has_name, Literal(display_name or name)))
        return instance

    def add_type(self, instance: IRI, cls: IRI) -> None:
        """Add another class membership (multiple inheritance is normal)."""
        if not self._schema.is_class(cls):
            raise FactError(f"{cls.value} is not a declared class")
        self._graph.add(Triple(instance, RDF.type, cls))

    def exists(self, instance: Term) -> bool:
        return any(self._graph.triples(instance, RDF.type, None))

    def name_of(self, instance: Term) -> Optional[str]:
        value = self._graph.value(instance, TERMS.has_name, None)
        return value.lexical if isinstance(value, Literal) else None

    # -- values ------------------------------------------------------------

    def set_value(self, instance: IRI, prop: IRI, value: ValueLike) -> Literal:
        """Assert ``instance prop value`` (an instance→value fact).

        The property must be declared; when it has declared domains, the
        instance must belong to (a subclass of) one of them.
        """
        if not self._schema.is_property(prop):
            raise FactError(f"{prop.value} is not a declared property")
        self._check_domain(instance, prop)
        literal = value if isinstance(value, Literal) else Literal(value)
        self._graph.add(Triple(instance, prop, literal))
        return literal

    def values_of(self, instance: Term, prop: IRI) -> List[Literal]:
        return sorted(
            (o for o in self._graph.objects(instance, prop) if isinstance(o, Literal)),
            key=lambda l: l.sort_key(),
        )

    # -- relationships -------------------------------------------------------

    def relate(self, subject: IRI, prop: IRI, obj: IRI) -> None:
        """Assert an instance→instance fact through a declared property."""
        if not self._schema.is_property(prop):
            raise FactError(f"{prop.value} is not a declared property")
        if isinstance(obj, Literal):
            raise FactError("use set_value() for instance→value facts")
        self._check_domain(subject, prop)
        self._graph.add(Triple(subject, prop, obj))

    def add_mapping(
        self,
        source: IRI,
        target: IRI,
        rule: Optional[str] = None,
        condition: Optional[str] = None,
    ) -> Optional[BNode]:
        """Assert a data-flow mapping ``source dt:isMappedTo target``.

        When ``rule`` or ``condition`` text is given the mapping is also
        reified as a mapping node carrying them — the "rule chain"
        filters of Section V need per-mapping conditions.
        Returns the mapping node, or None for a bare edge.
        """
        self._graph.add(Triple(source, TERMS.is_mapped_to, target))
        if rule is None and condition is None:
            return None
        mapping = mapping_node(source, target)
        self._graph.add(Triple(source, TERMS.has_mapping, mapping))
        self._graph.add(Triple(mapping, TERMS.mapping_source, source))
        self._graph.add(Triple(mapping, TERMS.mapping_target, target))
        if rule is not None:
            self._graph.add(Triple(mapping, TERMS.mapping_rule, Literal(rule)))
        if condition is not None:
            self._graph.add(Triple(mapping, TERMS.mapping_condition, Literal(condition)))
        return mapping

    def mappings_from(self, source: Term) -> List[Term]:
        return sorted(self._graph.objects(source, TERMS.is_mapped_to), key=lambda t: t.sort_key())

    def mappings_to(self, target: Term) -> List[Term]:
        return sorted(self._graph.subjects(TERMS.is_mapped_to, target), key=lambda t: t.sort_key())

    # -- annotations -----------------------------------------------------------

    def set_area(self, instance: IRI, area: IRI) -> None:
        """Place an item into a DWH area (staging/integration/mart)."""
        self._graph.add(Triple(instance, TERMS.in_area, area))

    def set_level(self, instance: IRI, level: IRI) -> None:
        """Tag an item with its abstraction level."""
        self._graph.add(Triple(instance, TERMS.at_level, level))

    def area_of(self, instance: Term) -> Optional[Term]:
        return self._graph.value(instance, TERMS.in_area, None)

    def level_of(self, instance: Term) -> Optional[Term]:
        return self._graph.value(instance, TERMS.at_level, None)

    def set_freshness(self, instance: IRI, grade: str) -> None:
        """Record the item's freshness guarantee (Section I/II)."""
        from repro.core.vocabulary import FRESHNESS_GRADES

        if grade not in FRESHNESS_GRADES:
            raise FactError(
                f"unknown freshness grade {grade!r}; expected one of {FRESHNESS_GRADES}"
            )
        self._graph.remove_pattern(instance, TERMS.freshness, None)
        self._graph.add(Triple(instance, TERMS.freshness, Literal(grade)))

    def freshness_of(self, instance: Term) -> Optional[str]:
        value = self._graph.value(instance, TERMS.freshness, None)
        return value.lexical if isinstance(value, Literal) else None

    def set_quality(self, instance: IRI, score: float) -> None:
        """Record the item's data-quality score in [0, 1]."""
        if not 0.0 <= score <= 1.0:
            raise FactError(f"quality score must be within [0, 1], got {score}")
        self._graph.remove_pattern(instance, TERMS.quality_score, None)
        self._graph.add(Triple(instance, TERMS.quality_score, Literal(float(score))))

    def quality_of(self, instance: Term) -> Optional[float]:
        value = self._graph.value(instance, TERMS.quality_score, None)
        return float(value.to_python()) if isinstance(value, Literal) else None

    # -- retirement -------------------------------------------------------------

    def retire_instance(self, instance: IRI, force: bool = False) -> int:
        """Remove an instance and every fact referring to it.

        Decommissioning an application or column must not leave dangling
        edges. By default the call refuses when other items still map
        *into* the instance (its upstream feeds would silently lose their
        target); pass ``force=True`` to sever those mappings too.
        Returns the number of triples removed.
        """
        if not self.exists(instance):
            raise FactError(f"{instance.n3()} is not a known instance")
        feeders = list(self._graph.subjects(TERMS.is_mapped_to, instance))
        if feeders and not force:
            names = ", ".join(self.name_of(f) or f.n3() for f in feeders[:5])
            raise FactError(
                f"{instance.n3()} is still the mapping target of {len(feeders)} "
                f"item(s) ({names}); retire those first or pass force=True"
            )
        removed = 0
        # reified mapping nodes on either side
        mapping_nodes = set(self._graph.objects(instance, TERMS.has_mapping))
        mapping_nodes |= set(self._graph.subjects(TERMS.mapping_target, instance))
        mapping_nodes |= set(self._graph.subjects(TERMS.mapping_source, instance))
        for node in mapping_nodes:
            removed += self._graph.remove_pattern(node, None, None)
            removed += self._graph.remove_pattern(None, None, node)
        removed += self._graph.remove_pattern(instance, None, None)
        removed += self._graph.remove_pattern(None, None, instance)
        return removed

    # -- internals ------------------------------------------------------------

    def _check_domain(self, instance: Term, prop: IRI) -> None:
        domains = self._schema.domain_of(prop)
        if not domains:
            return
        from repro.core.hierarchy import HierarchyManager

        hier = HierarchyManager(self._graph)
        instance_classes = hier.classes_of(instance)
        if not instance_classes:
            raise FactError(
                f"{instance.n3()} has no class; add_instance() it before using "
                f"property {prop.value}"
            )
        if not any(d in instance_classes for d in domains):
            raise FactError(
                f"property {prop.value} has domain {[d.value for d in domains]} "
                f"but {instance.n3()} belongs to "
                f"{sorted(c.value for c in instance_classes)}"
            )
