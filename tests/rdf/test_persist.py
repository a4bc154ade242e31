"""The warehouse-level persistence contract over the snapshot file:
save, reopen writable, and historized versions surviving the trip."""

import pytest

from repro.core import MetadataWarehouse
from repro.history import Historizer


def reopen(mdw, path):
    mdw.save_snapshot(path)
    return MetadataWarehouse.attach_snapshot(path, mutable_models=None)


class TestWarehouseIntegration:
    def test_warehouse_save_reopen(self, tmp_path):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Customer")
        mdw.facts.add_instance("customer_id", cls)
        mdw.build_entailment_index()

        reopened = reopen(mdw, tmp_path / "wh.mdws")
        assert reopened.graph == mdw.graph
        assert len(reopened.search.search("customer")) == 1
        # index came back: entailment-only facts visible with the rulebase
        assert reopened.store.index("DWH_CURR", "OWLPRIME") is not None

    def test_history_survives_roundtrip(self, tmp_path):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Thing")
        mdw.facts.add_instance("t1", cls)
        historizer = Historizer(mdw.store)
        historizer.snapshot("2009.R1")
        mdw.facts.add_instance("t2", cls)

        reopened = reopen(mdw, tmp_path / "wh.mdws")
        as_of = reopened.as_of("2009.R1")
        assert len(as_of.graph) < len(reopened.graph)
        assert as_of.graph.frozen

    def test_as_of_unknown_version(self):
        mdw = MetadataWarehouse()
        with pytest.raises(KeyError):
            mdw.as_of("nope")

    def test_as_of_queries_the_snapshot(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Thing")
        mdw.facts.add_instance("early", cls)
        historizer = Historizer(mdw.store)
        historizer.snapshot("R1")
        mdw.facts.add_instance("late", cls)

        as_of = mdw.as_of("R1")
        assert len(as_of.search.search("early")) == 1
        assert len(as_of.search.search("late")) == 0
        assert len(mdw.search.search("late")) == 1

    def test_historizer_version_served_by_as_of(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Thing")
        mdw.facts.add_instance("x", cls)
        historizer = Historizer(mdw.store)
        version = historizer.snapshot("R1")
        old = mdw.as_of("R1")
        assert old.graph is version.graph
        assert len(old.search.search("x")) == 1
        assert len(old.query("SELECT ?s WHERE { ?s dm:hasName ?n }")) == 1


class TestLoadedIndexFreshness:
    def test_update_refreshes_loaded_index(self, tmp_path):
        """An index that arrived with a persisted store is refreshed by
        warehouse.update(), not silently left stale."""
        mdw = MetadataWarehouse()
        parent = mdw.schema.declare_class("Item")
        mdw.schema.declare_class("Column", parents=parent)
        mdw.build_entailment_index()

        reopened = reopen(mdw, tmp_path / "wh.mdws")
        reopened.update(
            'INSERT DATA { cs:late rdf:type dm:Column . cs:late dm:hasName "late" }'
        )
        rows = reopened.query(
            "SELECT ?x WHERE { ?x rdf:type dm:Item }", rulebases=["OWLPRIME"]
        )
        assert len(rows) == 1  # derived through the refreshed index
