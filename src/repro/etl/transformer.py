"""XML → RDF transformation (the first stage of Figure 4).

The transformer mints exactly the triples the core managers
(:mod:`repro.core.schema` / :mod:`repro.core.facts`) would assert, so a
bulk-loaded feed is indistinguishable from programmatically built
meta-data and passes Table I validation.
"""

from __future__ import annotations

from typing import List

from repro.rdf.namespace import Namespace, OWL, RDF, RDFS
from repro.rdf.staging import StagingTable
from repro.rdf.terms import IRI, Literal, Triple

from repro.core.schema import to_identifier
from repro.core.vocabulary import TERMS
from repro.core.warehouse import INSTANCE_NS
from repro.etl.xml_source import MetadataDocument
from repro.rdf.namespace import DM

_AREA_BY_NAME = {
    "inbound": TERMS.area_inbound,
    "staging": TERMS.area_inbound,
    "integration": TERMS.area_integration,
    "mart": TERMS.area_mart,
    "datamart": TERMS.area_mart,
}

_LEVEL_BY_NAME = {
    "conceptual": TERMS.level_conceptual,
    "logical": TERMS.level_logical,
    "physical": TERMS.level_physical,
}


class XmlToRdfTransformer:
    """Transforms parsed meta-data documents into RDF staging rows."""

    def __init__(
        self,
        schema_ns: Namespace = DM,
        instance_ns: Namespace = INSTANCE_NS,
    ):
        self._schema_ns = schema_ns
        self._instance_ns = instance_ns

    def class_iri(self, name: str) -> IRI:
        return self._schema_ns.term(to_identifier(name))

    def property_iri(self, name: str) -> IRI:
        return self._schema_ns.term(to_identifier(name))

    def instance_iri(self, name: str) -> IRI:
        return self._instance_ns.term(to_identifier(name))

    def transform(self, document: MetadataDocument) -> List[Triple]:
        """All triples of one document, in document order."""
        triples: List[Triple] = []
        for spec in document.classes:
            cls = self.class_iri(spec.name)
            triples.append(Triple(cls, RDF.type, OWL.Class))
            triples.append(Triple(cls, RDFS.label, Literal(spec.label or spec.name)))
            triples.append(Triple(cls, TERMS.in_world, Literal(spec.world)))
            for parent_name in spec.parents:
                parent = self.class_iri(parent_name)
                triples.append(Triple(parent, RDF.type, OWL.Class))
                triples.append(Triple(cls, RDFS.subClassOf, parent))
        for spec in document.properties:
            prop = self.property_iri(spec.name)
            triples.append(Triple(prop, RDF.type, RDF.Property))
            triples.append(Triple(prop, RDFS.label, Literal(spec.name)))
            triples.append(Triple(prop, TERMS.in_world, Literal(spec.world)))
            if spec.domain:
                triples.append(Triple(prop, RDFS.domain, self.class_iri(spec.domain)))
            for parent_name in spec.parents:
                parent = self.property_iri(parent_name)
                triples.append(Triple(parent, RDF.type, RDF.Property))
                triples.append(Triple(prop, RDFS.subPropertyOf, parent))
        for spec in document.instances:
            triples.extend(self._transform_instance(spec))
        return triples

    def _transform_instance(self, spec) -> List[Triple]:
        triples: List[Triple] = []
        instance = self.instance_iri(spec.name)
        for class_name in spec.classes:
            triples.append(Triple(instance, RDF.type, self.class_iri(class_name)))
        triples.append(
            Triple(instance, TERMS.has_name, Literal(spec.display_name or spec.name))
        )
        if spec.area:
            area = _AREA_BY_NAME.get(spec.area.lower())
            if area is None:
                raise ValueError(
                    f"unknown area {spec.area!r}; expected one of {sorted(_AREA_BY_NAME)}"
                )
            triples.append(Triple(instance, TERMS.in_area, area))
        if spec.level:
            level = _LEVEL_BY_NAME.get(spec.level.lower())
            if level is None:
                raise ValueError(
                    f"unknown level {spec.level!r}; expected one of {sorted(_LEVEL_BY_NAME)}"
                )
            triples.append(Triple(instance, TERMS.at_level, level))
        for prop_name, value in spec.values:
            triples.append(
                Triple(instance, self.property_iri(prop_name), Literal(value))
            )
        for prop_name, target_name in spec.links:
            triples.append(
                Triple(instance, self.property_iri(prop_name), self.instance_iri(target_name))
            )
        for target_name, rule, condition in spec.mappings:
            target = self.instance_iri(target_name)
            triples.append(Triple(instance, TERMS.is_mapped_to, target))
            if rule is not None or condition is not None:
                from repro.core.facts import mapping_node

                mapping = mapping_node(instance, target)
                triples.append(Triple(instance, TERMS.has_mapping, mapping))
                triples.append(Triple(mapping, TERMS.mapping_source, instance))
                triples.append(Triple(mapping, TERMS.mapping_target, target))
                if rule is not None:
                    triples.append(Triple(mapping, TERMS.mapping_rule, Literal(rule)))
                if condition is not None:
                    triples.append(
                        Triple(mapping, TERMS.mapping_condition, Literal(condition))
                    )
        return triples

    def stage(self, document: MetadataDocument, staging: StagingTable) -> int:
        """Transform and append to a staging table; returns rows staged."""
        return staging.insert_triples(self.transform(document), source=document.source)
