"""The kept reader of the retired N-Triples store directory (reached
only through ``snapshot migrate``), and the warehouse-level persistence
contract over the snapshot file that replaced it."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import MetadataWarehouse
from repro.history import Historizer
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.persist import PersistenceError, load_store

LEGACY = Path(__file__).resolve().parents[1] / "storage" / "fixtures" / "legacy_store"


def reopen(mdw, path):
    mdw.save_snapshot(path)
    return MetadataWarehouse.attach_snapshot(path, mutable_models=None)


class TestMigrate:
    def test_migrate_preserves_content(self, tmp_path, capsys):
        snap = tmp_path / "migrated.mdws"
        assert main(["snapshot", "migrate", str(LEGACY), str(snap)]) == 0
        assert "migrated 22 triple(s)" in capsys.readouterr().out
        assert main(["versions", str(snap)]) == 0  # a store like any other
        assert "2026.R1" in capsys.readouterr().out
        store = MetadataWarehouse.attach_snapshot(snap, mutable_models=None).store
        # the legacy files are canonical N-Triples: byte-equal re-serialization
        assert store.model_names() == ["DWH_CURR", "HIST_2026.R1"]
        for name in store.model_names():
            assert serialize_ntriples(store.model(name)) == (
                LEGACY / "models" / f"{name}.nt"
            ).read_text(encoding="utf-8")
        assert store.model("HIST_2026.R1").frozen
        assert not store.model("DWH_CURR").frozen
        assert store.index_names() == [("DWH_CURR", "OWLPRIME")]
        assert serialize_ntriples(store.index("DWH_CURR", "OWLPRIME")) == (
            LEGACY / "indexes" / "DWH_CURR__OWLPRIME.nt"
        ).read_text(encoding="utf-8")

    def test_migrate_rejects_non_store(self, tmp_path, capsys):
        assert main(["snapshot", "migrate", str(tmp_path), str(tmp_path / "x.mdws")]) == 2
        assert "manifest" in capsys.readouterr().err
        assert not (tmp_path / "x.mdws").exists()

    def test_migrate_damaged_store_is_a_clean_error(self, tmp_path, capsys):
        legacy = Path(shutil.copytree(LEGACY, tmp_path / "legacy"))
        (legacy / "models" / "DWH_CURR.nt").write_text("garbage\n")
        assert main(["snapshot", "migrate", str(legacy), str(tmp_path / "x.mdws")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "DWH_CURR.nt" in err
        assert "Traceback" not in err


class TestReaderErrors:
    @pytest.fixture
    def legacy(self, tmp_path):
        return Path(shutil.copytree(LEGACY, tmp_path / "legacy"))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PersistenceError, match="manifest"):
            load_store(tmp_path)

    def test_corrupt_manifest(self, legacy):
        (legacy / "manifest.json").write_text("{not json")
        with pytest.raises(PersistenceError, match="corrupt"):
            load_store(legacy)

    def test_wrong_format_version(self, legacy):
        (legacy / "manifest.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(PersistenceError, match="format"):
            load_store(legacy)

    def test_missing_model_file(self, legacy):
        (legacy / "models" / "DWH_CURR.nt").unlink()
        with pytest.raises(PersistenceError, match="missing model file"):
            load_store(legacy)

    def test_triple_count_mismatch(self, legacy):
        path = legacy / "models" / "DWH_CURR.nt"
        path.write_text(path.read_text() + "<http://x/extra> <http://x/p> <http://x/o> .\n")
        with pytest.raises(PersistenceError, match="manifest says"):
            load_store(legacy)

    @pytest.mark.parametrize(
        "section, key", [("models", "file"), ("indexes", "model")]
    )
    def test_manifest_entry_missing_key(self, legacy, section, key):
        manifest = json.loads((legacy / "manifest.json").read_text())
        entries = manifest[section]
        entry = entries["DWH_CURR"] if section == "models" else entries[0]
        del entry[key]
        (legacy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=f"{section}.*has no '{key}'"):
            load_store(legacy)

    def test_manifest_not_an_object(self, legacy):
        (legacy / "manifest.json").write_text("[1, 2]")
        with pytest.raises(PersistenceError, match="not a JSON object"):
            load_store(legacy)

    def test_garbage_line_in_model_file(self, legacy):
        path = legacy / "models" / "DWH_CURR.nt"
        path.write_text(path.read_text() + "this is not a triple\n")
        with pytest.raises(PersistenceError, match=r"DWH_CURR\.nt: line 12"):
            load_store(legacy)

    def test_non_utf8_index_file(self, legacy):
        (legacy / "indexes" / "DWH_CURR__OWLPRIME.nt").write_bytes(b"\xff\xfe<x>")
        with pytest.raises(PersistenceError, match=r"DWH_CURR__OWLPRIME\.nt"):
            load_store(legacy)


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

    def test_historizer_as_warehouse(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Thing")
        mdw.facts.add_instance("x", cls)
        historizer = Historizer(mdw.store)
        historizer.snapshot("R1")
        old = historizer.as_warehouse("R1")
        assert len(old.search.search("x")) == 1


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
