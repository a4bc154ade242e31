"""Robustness tests: unicode, hostile inputs, and failure injection.

A production meta-data warehouse swallows whatever the bank's systems
emit — umlauts in customer names, emoji in report titles, injection-
looking strings in rule texts — and must neither crash nor corrupt the
graph.
"""

import pytest

from repro.core import MetadataWarehouse, validate_graph
from repro.etl import EtlOrchestrator, SynonymThesaurus, parse_metadata_xml
from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Triple,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)

UNICODE_NAMES = [
    "Zürich_Kundenstamm",
    "compte_épargne",
    "顧客番号",
    "συναλλαγή",
    "שם_לקוח",
    "report📊quarterly",
]


class TestUnicode:
    @pytest.mark.parametrize("name", UNICODE_NAMES)
    def test_unicode_names_end_to_end(self, name):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        item = mdw.facts.add_instance(f"u_{abs(hash(name)) % 10_000}", cls, display_name=name)
        # searchable
        fragment = name[:3]
        results = mdw.search.search(fragment)
        assert any(h.name == name for h in results.hits)
        # conformant
        assert mdw.validate().conformant

    @pytest.mark.parametrize("name", UNICODE_NAMES)
    def test_unicode_serialization_roundtrip(self, name):
        g = Graph([Triple(IRI("http://x/s"), IRI("http://x/p"), Literal(name))])
        assert Graph(parse_ntriples(serialize_ntriples(g))) == g
        assert parse_turtle(serialize_turtle(g)) == g

    def test_unicode_persistence_roundtrip(self, tmp_path):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        for i, name in enumerate(UNICODE_NAMES):
            mdw.facts.add_instance(f"u{i}", cls, display_name=name)
        mdw.save_snapshot(tmp_path / "wh.mdws")
        reopened = MetadataWarehouse.attach_snapshot(tmp_path / "wh.mdws")
        assert reopened.graph == mdw.graph

    def test_unicode_xml_feed(self):
        mdw = MetadataWarehouse()
        feed = """
        <metadata source="unicode-feed">
          <class name="Tabelle"/>
          <instance name="zuerich_kunden" class="Tabelle" display-name="Zürich Kundenstamm"/>
        </metadata>
        """
        result = EtlOrchestrator(mdw).apply_release([feed])
        assert result.ok
        assert len(mdw.search.search("Zürich")) == 1


class TestHostileStrings:
    INJECTIONS = [
        "x\" . ?s ?p ?o . \"",              # SPARQL-ish breakout
        "'); DROP TABLE columns; --",        # SQL-ish
        "<script>alert(1)</script>",
        "a\\nb\\tc\\\\d",
        "line\nbreak\tand\ttabs",
    ]

    @pytest.mark.parametrize("text", INJECTIONS)
    def test_hostile_value_survives_graph_and_query(self, text):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        prop = mdw.schema.declare_property("note")
        item = mdw.facts.add_instance("victim", cls)
        mdw.facts.set_value(item, prop, text)
        # exact-match query built through bindings (never string splicing)
        rows = mdw.query(
            "SELECT ?x WHERE { ?x dm:note ?v }",
            bindings={"v": Literal(text)},
        )
        assert rows.values("x") == [item.value]

    @pytest.mark.parametrize("text", INJECTIONS)
    def test_hostile_value_roundtrips_serialization(self, text):
        g = Graph([Triple(IRI("http://x/s"), IRI("http://x/p"), Literal(text))])
        assert Graph(parse_ntriples(serialize_ntriples(g))) == g
        assert parse_turtle(serialize_turtle(g)) == g

    def test_hostile_search_term_is_literal_text(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("normal_column", cls)
        # regex metacharacters in a plain search must not blow up or match
        results = mdw.search.search("col(um)n+?")
        assert len(results) == 0
        # but do work in regex mode
        assert len(mdw.search.search("col(um)+n", regex=True)) == 1

    def test_invalid_regex_in_regex_mode_raises_cleanly(self):
        import re

        mdw = MetadataWarehouse()
        with pytest.raises(re.error):
            mdw.search.search("(", regex=True)


class TestFailureInjection:
    def test_partial_feed_failure_keeps_good_rows(self):
        """One malformed instance element fails the release's staging
        before anything is applied — the previous release stays intact."""
        mdw = MetadataWarehouse()
        good = '<metadata source="ok"><class name="T"/><instance name="a" class="T"/></metadata>'
        bad = '<metadata source="broken"><instance class="T"/></metadata>'  # no name
        orchestrator = EtlOrchestrator(mdw)
        result = orchestrator.apply_release([good])
        assert result.ok
        from repro.etl import XmlSourceError

        with pytest.raises(XmlSourceError):
            orchestrator.apply_release([bad])
        # the earlier load is intact
        assert len(mdw.search.search("a")) == 1

    def test_thesaurus_with_garbage_pairs(self):
        thesaurus = SynonymThesaurus()
        thesaurus.add_synonym("", "client")      # ignored
        thesaurus.add_synonym("  ", "client")    # ignored
        thesaurus.add_synonym("a", "a")          # self pair ignored
        assert len(thesaurus) == 0

    def test_corrupt_store_file_detected(self, tmp_path):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("T")
        mdw.facts.add_instance("x", cls)
        victim = mdw.save_snapshot(tmp_path / "wh.mdws")
        raw = bytearray(victim.read_bytes())
        raw[20] ^= 0x01  # one flipped header bit, behind the header CRC
        victim.write_bytes(bytes(raw))
        from repro.storage import SnapshotFormatError

        with pytest.raises(SnapshotFormatError):
            MetadataWarehouse.attach_snapshot(victim)

    def test_graph_mutation_during_search_is_safe(self):
        """Search materializes candidates before matching; a concurrent-
        style mutation between searches never corrupts state."""
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("T")
        for i in range(20):
            mdw.facts.add_instance(f"item_{i}", cls)
        first = mdw.search.search("item")
        mdw.facts.retire_instance(first.hits[0].instance, force=True)
        second = mdw.search.search("item")
        assert len(second) == len(first) - 1
        assert mdw.validate().conformant


class TestCsvExport:
    def test_csv_roundtrip_shape(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("T")
        mdw.facts.add_instance("a", cls, display_name='has,comma and "quote"')
        rows = mdw.query("SELECT ?x ?n WHERE { ?x dm:hasName ?n }")
        csv_text = rows.to_csv()
        import csv as csv_module
        import io

        parsed = list(csv_module.reader(io.StringIO(csv_text)))
        assert parsed[0] == ["x", "n"]
        assert parsed[1][1] == 'has,comma and "quote"'

    def test_csv_unbound_is_empty_cell(self):
        from repro.sparql.results import Row, SolutionSequence

        seq = SolutionSequence(["a", "b"], [Row({"a": Literal("x")})])
        lines = seq.to_csv().splitlines()
        assert lines[1] == "x,"

    def test_cli_sql_csv(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        sql = tmp_path / "q.sql"
        sql.write_text(
            "SELECT term FROM TABLE(SEM_MATCH({?o dm:hasName ?term}, SEM_MODELS('DWH_CURR'), "
            "SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')))) "
            "WHERE regexp_like(term, 'customer')"
        )
        capsys.readouterr()
        assert main(["sql", str(path), str(sql), "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("term\n")
