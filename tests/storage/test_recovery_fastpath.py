"""attach-then-replay-tail: the snapshot-backed journal recovery path."""

from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.store import TripleStore
from repro.resilience import attach_and_recover
from repro.resilience.journal import LoadJournal
from repro.storage import save_snapshot_store

NS = "http://example.org/"
NAME = f"{NS}hasName"


def _snapshot(tmp_path, triples=30):
    store = TripleStore()
    graph = store.get_or_create_model("DWH_CURR")
    for i in range(triples):
        s = IRI(f"{NS}item_{i}")
        graph.add(Triple(s, RDF.type, IRI(f"{NS}Class")))
        graph.add(Triple(s, IRI(NAME), Literal(f"name_{i}")))
    path = tmp_path / "base.mdws"
    save_snapshot_store(store, path, generation=graph.generation)
    return path, len(graph)


def _rows(n, start=0):
    return [
        [f"<{NS}tail_{start + i}>", f"<{NAME}>", f'"tail_{start + i}"', "feed"]
        for i in range(n)
    ]


def test_clean_journal_keeps_store_mapped(tmp_path):
    snap_path, size = _snapshot(tmp_path)
    mdw, report = attach_and_recover(snap_path, tmp_path / "missing.journal")
    assert report.action == "none"
    assert len(mdw.graph) == size
    # nothing to replay: the model stays lazily mapped (no materialize)
    assert type(mdw.graph).__name__ == "MappedGraph"


def test_complete_writeahead_replays_tail(tmp_path):
    snap_path, size = _snapshot(tmp_path)
    journal_path = tmp_path / "crash.journal"
    journal = LoadJournal(journal_path, durable=False)
    rows = _rows(8)
    journal.begin("load-1", "DWH_CURR", 0, [rows[:4], rows[4:]])
    journal.checkpoint(0, 4, 0)  # crashed mid-batch 1, before commit
    journal.close()

    mdw, report = attach_and_recover(snap_path, journal_path)
    assert report.action == "replayed"
    assert report.inserted == 8 and report.duplicates == 0
    assert len(mdw.graph) == size + 8
    # replay materialized exactly the affected model; it stays writable
    mdw.graph.add(Triple(IRI(f"{NS}post"), RDF.type, IRI(f"{NS}Class")))
    # a second recovery over the sealed journal is a no-op
    mdw2, report2 = attach_and_recover(snap_path, journal_path)
    assert report2.action == "none"
    assert len(mdw2.graph) == size


def test_incomplete_writeahead_voids_without_materializing(tmp_path):
    snap_path, size = _snapshot(tmp_path)
    journal_path = tmp_path / "torn.journal"
    journal = LoadJournal(journal_path, durable=False)
    # begin claims 3 batches but only 2 land: write-ahead incomplete
    journal._log.append(
        {
            "type": "begin",
            "load_id": "load-torn",
            "model": "DWH_CURR",
            "generation": 0,
            "batches": 3,
            "rows": 4,
        }
    )
    for i, batch in enumerate([_rows(2), _rows(2, start=2)]):
        journal._log.append({"type": "rows", "batch": i, "rows": batch})
    journal._log.checkpoint()
    journal.close()

    mdw, report = attach_and_recover(snap_path, journal_path)
    assert report.action == "void"
    assert len(mdw.graph) == size
    assert type(mdw.graph).__name__ == "MappedGraph"


def test_replay_is_idempotent_against_partial_state(tmp_path):
    # rows already present in the snapshot replay as duplicates
    store = TripleStore()
    graph = store.get_or_create_model("DWH_CURR")
    graph.add(Triple(IRI(f"{NS}tail_0"), IRI(NAME), Literal("tail_0")))
    snap_path = tmp_path / "partial.mdws"
    save_snapshot_store(store, snap_path)

    journal_path = tmp_path / "replay.journal"
    journal = LoadJournal(journal_path, durable=False)
    journal.begin("load-2", "DWH_CURR", 0, [_rows(3)])
    journal.close()

    mdw, report = attach_and_recover(snap_path, journal_path)
    assert report.action == "replayed"
    assert report.inserted == 2 and report.duplicates == 1
    assert len(mdw.graph) == 3


def test_cold_start_paths_answer_the_listings_identically(tmp_path):
    """Snapshot attach, full-journal replay and a fresh ETL are three
    ways to the same warehouse: same model, same Listing 1/2 answers."""
    from benchmarks.queries import LINEAGE_TEMPLATE, LISTING_1_LANDSCAPE
    from repro.core.vocabulary import TERMS
    from repro.core.warehouse import MetadataWarehouse
    from repro.rdf.ntriples import serialize_ntriples
    from repro.resilience import recover
    from repro.synth import LandscapeConfig, generate_landscape

    def etl():
        mdw = generate_landscape(LandscapeConfig.tiny(seed=3)).warehouse
        mdw.build_entailment_index()
        return mdw

    source = etl()
    attached, report = attach_and_recover(
        source.save_snapshot(tmp_path / "published.mdws"), tmp_path / "clean.journal"
    )
    assert report.action == "none"

    # write-ahead complete, never committed: the whole model is the tail
    journal_path = tmp_path / "full-load.journal"
    journal = LoadJournal(journal_path, durable=False)
    rows = sorted(
        [t.subject.n3(), t.predicate.n3(), t.object.n3(), "etl"] for t in source.graph
    )
    journal.begin("cold-start-etl", "DWH_CURR", 0, [rows[:300], rows[300:]])
    journal.close()
    replayed = MetadataWarehouse()
    assert recover(replayed, journal_path, refresh_indexes=False, durable=False).action == "replayed"
    replayed.build_entailment_index()

    mapped = sorted(t.subject.value for t in source.graph.triples(None, TERMS.is_mapped_to, None))
    listings = (LISTING_1_LANDSCAPE, LINEAGE_TEMPLATE.format(source=mapped[len(mapped) // 2]))

    def answers(mdw):
        return [
            sorted(tuple(sorted(r.asdict().items())) for r in mdw.sem_sql(sql))
            for sql in listings
        ]

    expected = answers(etl())
    assert all(expected), "probes must return rows at tiny scale"
    for mdw in (attached, replayed):
        assert serialize_ntriples(mdw.graph) == serialize_ntriples(source.graph)
        assert answers(mdw) == expected
