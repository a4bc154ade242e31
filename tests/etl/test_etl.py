"""Unit tests for the Figure 4 pipeline: XML parsing, transformation,
ontology round-trip, thesaurus, orchestration."""

import pytest

from repro.core import MetadataWarehouse, TERMS, World
from repro.etl import (
    EtlOrchestrator,
    SynonymThesaurus,
    XmlSourceError,
    export_ontology,
    import_ontology,
    load_thesaurus_ntriples,
    parse_metadata_xml,
)
from repro.etl.transformer import XmlToRdfTransformer
from repro.rdf import Graph, Literal, RDF, RDFS, StagingTable, Triple

FEED = """
<metadata source="app-registry">
  <class name="Application" world="technical"/>
  <class name="Attribute"/>
  <class name="Source Column" parent="Attribute" label="Source Column"/>
  <property name="hasVersion" domain="Application"/>
  <property name="hasFirstName" world="business"/>
  <instance name="payments_app" class="Application" area="integration" level="physical">
    <value property="hasVersion">4.2</value>
    <link property="feeds" target="dwh_core"/>
    <mapping target="core_payments" rule="daily load" condition="country='CH'"/>
  </instance>
  <instance name="dwh_core" class="Application"/>
  <instance name="core_payments" class="Source Column"/>
</metadata>
"""


class TestXmlParsing:
    def test_parse_counts(self):
        doc = parse_metadata_xml(FEED)
        assert doc.source == "app-registry"
        assert len(doc.classes) == 3
        assert len(doc.properties) == 2
        assert len(doc.instances) == 3
        assert doc.item_count == 8

    def test_class_attributes(self):
        doc = parse_metadata_xml(FEED)
        source_column = doc.classes[2]
        assert source_column.name == "Source Column"
        assert source_column.parents == ["Attribute"]

    def test_instance_payload(self):
        doc = parse_metadata_xml(FEED)
        inst = doc.instances[0]
        assert inst.values == [("hasVersion", "4.2")]
        assert inst.links == [("feeds", "dwh_core")]
        assert inst.mappings == [("core_payments", "daily load", "country='CH'")]
        assert inst.area == "integration"
        assert inst.level == "physical"

    def test_not_xml(self):
        with pytest.raises(XmlSourceError, match="well-formed"):
            parse_metadata_xml("{json: true}")

    def test_wrong_root(self):
        with pytest.raises(XmlSourceError, match="root element"):
            parse_metadata_xml("<data/>")

    def test_unknown_element(self):
        with pytest.raises(XmlSourceError, match="unknown element"):
            parse_metadata_xml("<metadata><widget/></metadata>")

    def test_missing_required_attribute(self):
        with pytest.raises(XmlSourceError, match="requires"):
            parse_metadata_xml("<metadata><class/></metadata>")

    def test_multi_class_instance(self):
        doc = parse_metadata_xml(
            '<metadata><instance name="x" class="A, B"/></metadata>'
        )
        assert doc.instances[0].classes == ["A", "B"]


class TestTransformer:
    def test_triples_conform(self):
        doc = parse_metadata_xml(FEED)
        triples = XmlToRdfTransformer().transform(doc)
        graph = Graph(triples)
        from repro.core import validate_graph

        report = validate_graph(graph)
        assert report.conformant, [i.describe() for i in report.issues]

    def test_area_level_annotations(self):
        doc = parse_metadata_xml(FEED)
        transformer = XmlToRdfTransformer()
        graph = Graph(transformer.transform(doc))
        app = transformer.instance_iri("payments_app")
        assert graph.value(app, TERMS.in_area, None) == TERMS.area_integration
        assert graph.value(app, TERMS.at_level, None) == TERMS.level_physical

    def test_unknown_area_rejected(self):
        doc = parse_metadata_xml('<metadata><instance name="x" class="A" area="moon"/></metadata>')
        with pytest.raises(ValueError, match="unknown area"):
            XmlToRdfTransformer().transform(doc)

    def test_mapping_reification(self):
        doc = parse_metadata_xml(FEED)
        transformer = XmlToRdfTransformer()
        graph = Graph(transformer.transform(doc))
        app = transformer.instance_iri("payments_app")
        target = transformer.instance_iri("core_payments")
        assert (app, TERMS.is_mapped_to, target) in graph
        mapping = graph.value(app, TERMS.has_mapping, None)
        assert mapping is not None
        assert graph.value(mapping, TERMS.mapping_rule, None) == Literal("daily load")

    def test_stage_records_source(self):
        doc = parse_metadata_xml(FEED)
        staging = StagingTable()
        n = XmlToRdfTransformer().stage(doc, staging)
        assert n == len(staging) > 0
        assert next(iter(staging)).source == "app-registry"


class TestOntologyRoundtrip:
    def make_schema(self):
        mdw = MetadataWarehouse()
        item = mdw.schema.declare_class("Item", world=World.BUSINESS)
        attr = mdw.schema.declare_class("Attribute", parents=item)
        mdw.schema.declare_class("Source Column", parents=attr, subject_area="DWH")
        mdw.schema.declare_property("hasName", domain=attr)
        return mdw

    def test_export_contains_declarations(self):
        text = export_ontology(self.make_schema().graph)
        assert "owl:Class" in text
        assert "rdfs:subClassOf" in text
        assert "rdfs:domain" in text

    def test_export_excludes_instances(self):
        mdw = self.make_schema()
        cls = mdw.schema.class_by_label("Attribute")
        mdw.facts.add_instance("secret_instance", cls)
        text = export_ontology(mdw.graph)
        assert "secret_instance" not in text

    def test_roundtrip_preserves_schema(self):
        mdw = self.make_schema()
        text = export_ontology(mdw.graph)
        reimported = import_ontology(text)
        assert export_ontology(reimported) == text

    def test_import_stages(self):
        mdw = self.make_schema()
        staging = StagingTable()
        graph = import_ontology(export_ontology(mdw.graph), staging=staging)
        assert len(staging) == len(graph)


class TestThesaurus:
    def test_symmetric(self):
        th = SynonymThesaurus()
        th.add_synonym("Customer", "client")
        assert th.synonyms("client") == {"customer"}
        assert th.synonyms("customer") == {"client"}

    def test_not_transitive(self):
        th = SynonymThesaurus()
        th.add_synonyms([("a", "b"), ("b", "c")])
        assert "c" not in th.synonyms("a")

    def test_expand_original_first(self):
        th = SynonymThesaurus()
        th.add_synonym("customer", "client")
        assert th.expand("CUSTOMER") == ["customer", "client"]

    def test_self_pair_ignored(self):
        th = SynonymThesaurus()
        th.add_synonym("x", "x")
        assert len(th) == 0

    def test_len_counts_pairs(self):
        th = SynonymThesaurus()
        th.add_synonym("a", "b")
        th.add_synonym("a", "c")
        assert len(th) == 2

    def test_materialize_and_rebuild(self):
        th = SynonymThesaurus()
        th.add_synonym("customer", "client")
        th.add_homonym("bank", "river bank")
        g = Graph()
        added = th.materialize(g)
        assert added == 4  # two pairs x two value edges
        rebuilt = SynonymThesaurus.from_graph(g)
        assert rebuilt.synonyms("customer") == {"client"}
        assert rebuilt.homonyms("bank") == {"river bank"}

    def test_materialized_graph_conformant(self):
        th = SynonymThesaurus()
        th.add_synonym("customer", "client")
        g = Graph()
        th.materialize(g)
        from repro.core import validate_graph

        assert validate_graph(g).conformant

    def test_load_ntriples(self):
        text = (
            '<http://dbpedia.org/resource/Customer> <http://dbpedia.org/ontology/wikiPageRedirects> <http://dbpedia.org/resource/Client> .\n'
            '<http://dbpedia.org/resource/Bank> <http://dbpedia.org/ontology/disambiguates> "River bank" .\n'
        )
        th = load_thesaurus_ntriples(text)
        assert th.synonyms("customer") == {"client"}
        assert th.homonyms("bank") == {"river bank"}


class TestOrchestrator:
    """``apply_release`` on an empty warehouse is the initial load."""

    def test_full_run(self):
        mdw = MetadataWarehouse()
        result = EtlOrchestrator(mdw).apply_release([FEED])
        assert result.ok
        assert result.mode == "full"
        assert result.documents == 1
        assert result.bulk_report.inserted > 0
        assert result.validation.conformant
        assert "document" in result.summary()

    def test_ontology_and_facts_share_staging(self):
        authoring = MetadataWarehouse()
        authoring.schema.declare_class("Application")
        ontology = export_ontology(authoring.graph)

        mdw = MetadataWarehouse()
        result = EtlOrchestrator(mdw).apply_release([FEED], ontology_text=ontology)
        assert result.ok
        assert result.staged_rows > 0

    def test_index_refresh_after_load(self):
        mdw = MetadataWarehouse()
        mdw.build_entailment_index()
        result = EtlOrchestrator(mdw).apply_release([FEED])
        assert "OWLPRIME" in result.refreshed_rulebases
        # inherited membership visible through the rulebase
        rows = mdw.query(
            "SELECT ?x WHERE { ?x rdf:type dm:Attribute }", rulebases=["OWLPRIME"]
        )
        assert len(rows) == 1  # core_payments via Source Column < Attribute

    def test_thesaurus_integration(self):
        mdw = MetadataWarehouse()
        th = SynonymThesaurus()
        th.add_synonym("customer", "client")
        result = EtlOrchestrator(mdw).apply_release([FEED], thesaurus=th)
        assert result.thesaurus_edges == 2

    def test_idempotent_reload(self):
        mdw = MetadataWarehouse()
        orch = EtlOrchestrator(mdw)
        orch.apply_release([FEED])
        size = len(mdw.graph)
        second = orch.apply_release([FEED])
        # the same release again is already converged: nothing changes
        assert second.mode == "incremental"
        assert (second.added, second.removed) == (0, 0)
        assert len(mdw.graph) == size
