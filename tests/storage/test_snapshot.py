"""Snapshot files: save/attach round trips, validation, rejection, and
crashes mid-save and mid-attach."""

import hashlib
import itertools
import json
import random
import struct
import zlib

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.history import Historizer
from repro.rdf.graph import Graph, LayeredGraph, ReadOnlyGraphError
from repro.rdf.namespace import RDF
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.store import TripleStore
from repro.resilience import FaultInjector, InjectedFault, fault_scope
from repro.storage import (
    MappedSnapshot,
    SnapshotFormatError,
    StorageError,
    save_snapshot_store,
)
from repro.storage.snapshot import FORMAT_VERSION, HEADER_SIZE, MAGIC, MAX_DELTA_CHAIN
from repro.synth import LandscapeConfig, generate_landscape, make_release_feeds

NS = "http://example.org/"


def _store(triples=60, freeze=False) -> TripleStore:
    store = TripleStore()
    graph = store.get_or_create_model("DWH_CURR")
    for i in range(triples):
        s = IRI(f"{NS}item_{i}")
        graph.add(Triple(s, RDF.type, IRI(f"{NS}Class_{i % 5}")))
        graph.add(Triple(s, IRI(f"{NS}hasName"), Literal(f"nämé_{i}")))
    hist = Graph(dictionary=graph.dictionary)
    hist.add_all(list(graph)[: triples // 2])
    hist.freeze()
    store.adopt_model("HIST_2026.R1", hist)
    derived = Graph(dictionary=graph.dictionary)
    for i in range(0, triples, 3):
        derived.add(
            Triple(IRI(f"{NS}item_{i}"), RDF.type, IRI(f"{NS}Super"))
        )
    store.attach_index("DWH_CURR", "OWLPRIME", derived)
    if freeze:
        graph.freeze()
        derived.freeze()
    return store


def test_roundtrip_content_and_counts(tmp_path):
    store = _store()
    path = save_snapshot_store(store, tmp_path / "s.mdws", generation=7)
    snap = MappedSnapshot.open(path)
    assert snap.generation == 7
    attached = snap.store()  # mutable_models=None: what a reopen-to-write gets
    assert attached.model_names() == store.model_names()
    assert attached.index_names() == store.index_names()
    for name in store.model_names():
        assert attached.model(name).frozen == store.model(name).frozen
        assert serialize_ntriples(attached.model(name)) == serialize_ntriples(
            store.model(name)
        )
    original = store.model("DWH_CURR")
    mapped = attached.model("DWH_CURR")
    assert mapped == original and original == mapped
    assert len(mapped) == len(original)
    assert mapped.distinct_subject_count() == original.distinct_subject_count()
    assert mapped.distinct_predicate_count() == original.distinct_predicate_count()
    assert mapped.distinct_object_count() == original.distinct_object_count()
    assert attached.index("DWH_CURR", "OWLPRIME") == store.index(
        "DWH_CURR", "OWLPRIME"
    )
    # every pattern shape answers identically
    probe = Triple(IRI(f"{NS}item_3"), IRI(f"{NS}hasName"), Literal("nämé_3"))
    for pattern in [
        (None, None, None),
        (probe.subject, None, None),
        (None, probe.predicate, None),
        (None, None, probe.object),
        (probe.subject, probe.predicate, None),
        (probe.subject, None, probe.object),
        (None, probe.predicate, probe.object),
        (probe.subject, probe.predicate, probe.object),
    ]:
        key = lambda t: (t.subject.sort_key(), t.predicate.sort_key(), t.object.sort_key())
        assert sorted(mapped.triples(*pattern), key=key) == sorted(
            original.triples(*pattern), key=key
        )
        assert mapped.count(*pattern) == original.count(*pattern)


def test_queries_agree_with_the_saved_store(tmp_path):
    store = _store()
    path = save_snapshot_store(store, tmp_path / "s.mdws")
    text = "SELECT ?s ?n WHERE { ?s <http://example.org/hasName> ?n }"
    expected = sorted(map(repr, MetadataWarehouse(store=store).query(text)))
    assert len(expected) == 60
    for mutable_models in (None, ()):
        mdw = MetadataWarehouse.attach_snapshot(path, mutable_models=mutable_models)
        assert sorted(map(repr, mdw.query(text))) == expected


def test_save_is_deterministic(tmp_path):
    store = _store()
    a = save_snapshot_store(store, tmp_path / "a.mdws", generation=1)
    b = save_snapshot_store(store, tmp_path / "b.mdws", generation=1)
    assert a.read_bytes() == b.read_bytes()


def test_mapped_graphs_share_one_dictionary(tmp_path):
    path = save_snapshot_store(_store(), tmp_path / "s.mdws")
    attached = MappedSnapshot.open(path).store(mutable_models=())
    model = attached.model("DWH_CURR")
    index = attached.index("DWH_CURR", "OWLPRIME")
    assert model.dictionary is index.dictionary
    view = attached.view(["DWH_CURR"], rulebases=["OWLPRIME"])
    assert view.dictionary is model.dictionary


def test_model_created_on_an_attached_store_shares_its_dictionary(tmp_path):
    """A model created on an attached store interns into the snapshot's
    dictionary (overlay ids for new terms), so a BGP over it beside a
    mapped model stays on the id operators and answers like a store
    built in memory."""
    from repro.obs.profile import profile_scope
    from repro.rdf.namespace import DM
    from repro.sparql import execute
    from repro.synth import LandscapeConfig, generate_landscape

    built = generate_landscape(LandscapeConfig.tiny(seed=2009)).warehouse
    path = built.save_snapshot(tmp_path / "wh.mdws")
    attached = MetadataWarehouse.attach_snapshot(
        path, model="EXTRA", mutable_models=None
    ).store
    mapped = attached.model("DWH_CURR").dictionary
    assert attached.model("EXTRA").dictionary is mapped

    column = next(built.graph.subjects(RDF.type, DM.Column))
    extra = [
        # a new item: every term but the vocabulary is an overlay id
        Triple(IRI(f"{NS}extra"), RDF.type, DM.Column),
        Triple(IRI(f"{NS}extra"), DM.hasName, Literal("extra_column")),
        # a second name for a mapped column: the join crosses the layers
        Triple(column, DM.hasName, Literal("extra_alias")),
    ]
    attached.model("EXTRA").add_all(extra)
    built.store.create_model("EXTRA").add_all(extra)

    text = (
        f"SELECT ?c ?n WHERE {{ ?c {RDF.type.n3()} {DM.Column.n3()} . "
        f"?c {DM.hasName.n3()} ?n }}"
    )
    view = attached.view(["DWH_CURR", "EXTRA"])
    assert view.dictionary is mapped
    with profile_scope() as prof:
        rows = sorted(map(repr, execute(view, text)))
    expected = sorted(map(repr, execute(built.store.view(["DWH_CURR", "EXTRA"]), text)))
    assert rows == expected
    assert len(rows) == len(execute(attached.view(["DWH_CURR"]), text)) + 2
    ops = {op.op for op in prof.operators}
    assert ops and ops <= {"scan", "hash-join", "bind-join"}


def test_mapped_graph_is_read_only(tmp_path):
    path = save_snapshot_store(_store(), tmp_path / "s.mdws")
    mapped = MappedSnapshot.open(path).store(mutable_models=()).model("DWH_CURR")
    t = Triple(IRI(f"{NS}x"), IRI(f"{NS}y"), IRI(f"{NS}z"))
    for call in [
        lambda: mapped.add(t),
        lambda: mapped.remove(t),
        lambda: mapped.discard(t),
        lambda: mapped.add_all([t]),
        lambda: mapped.clear(),
    ]:
        with pytest.raises(ReadOnlyGraphError):
            call()
    writable = mapped.materialize()
    writable.add(t)
    assert t in writable and t not in mapped


def test_empty_graph_snapshot(tmp_path):
    store = TripleStore()
    store.get_or_create_model("DWH_CURR")
    path = save_snapshot_store(store, tmp_path / "empty.mdws")
    attached = MappedSnapshot.open(path).store(mutable_models=())
    mapped = attached.model("DWH_CURR")
    assert len(mapped) == 0
    assert list(mapped) == []
    assert mapped.distinct_subject_count() == 0
    assert not mapped


def _valid_bytes(tmp_path):
    path = save_snapshot_store(_store(triples=20), tmp_path / "v.mdws")
    return path, bytearray(path.read_bytes())


def test_rejects_bad_magic(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="magic"):
        MappedSnapshot.open(path)


def test_rejects_paths_that_are_not_snapshot_files(tmp_path):
    with pytest.raises(StorageError, match="No such file"):
        MappedSnapshot.open(tmp_path / "missing.mdws")
    with pytest.raises(StorageError, match="Is a directory"):
        MappedSnapshot.open(tmp_path)
    # a retired pre-snapshot store directory is just a directory
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(StorageError, match="Is a directory") as legacy:
        MappedSnapshot.open(tmp_path)
    assert "migrate" not in str(legacy.value)


def test_rejects_header_corruption(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    raw[16] ^= 0x01  # inside the generation field, behind the header CRC
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        MappedSnapshot.open(path)


_HEADER = struct.Struct("<8sIIQQQII")


def _header_fields(raw):
    fields = list(_HEADER.unpack_from(bytes(raw), 0))
    assert fields[0] == MAGIC and fields[1] == FORMAT_VERSION
    return fields


def _with_version(path, raw, version):
    """Rewrite the header's format version under a valid header CRC."""
    fields = _header_fields(raw)
    fields[1] = version
    packed = _HEADER.pack(*fields)
    packed = packed[:-4] + struct.pack("<I", zlib.crc32(packed[:-4]))
    raw[:HEADER_SIZE] = packed
    path.write_bytes(bytes(raw))


def test_rejects_future_format_version(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    _with_version(path, raw, FORMAT_VERSION + 1)
    with pytest.raises(SnapshotFormatError, match=f"format {FORMAT_VERSION + 1} unsupported"):
        MappedSnapshot.open(path)


@pytest.mark.parametrize("retired", [1, 2, 3])
def test_rejects_format_1_file(tmp_path, retired):
    """A file of a retired format (1: varint pages; 2: CSR runs with an
    OSP order; 3: every version in full) names both versions."""
    path, raw = _valid_bytes(tmp_path)
    _with_version(path, raw, retired)
    with pytest.raises(
        SnapshotFormatError,
        match=rf"format {retired} unsupported \(this build reads {FORMAT_VERSION}\)",
    ):
        MappedSnapshot.open(path)


def test_rejects_corrupt_run_section(tmp_path):
    """A run whose CRC was rewritten to match a wrecked header (a writer
    bug, not bit rot) passes attach; the run's own checks reject it
    with a typed error, and close() still works."""
    path, raw = _valid_bytes(tmp_path)
    fields = _header_fields(raw)
    toc = json.loads(bytes(raw[fields[4] : fields[4] + fields[5]]))
    run = toc["sections"]["model:DWH_CURR/pos"]
    raw[run["offset"]] ^= 0x01  # the first-level count
    run["crc32"] = zlib.crc32(raw[run["offset"] : run["offset"] + run["length"]])
    toc_bytes = json.dumps(toc).encode()
    raw[fields[4] :] = toc_bytes
    fields[5], fields[6] = len(toc_bytes), zlib.crc32(toc_bytes)
    packed = _HEADER.pack(*fields)
    raw[:HEADER_SIZE] = packed[:-4] + struct.pack("<I", zlib.crc32(packed[:-4]))
    path.write_bytes(bytes(raw))
    snap = MappedSnapshot.open(path)
    with pytest.raises(SnapshotFormatError, match="section length"):
        snap.store(mutable_models=())
    snap.close()
    snap.close()


def test_close_releases_the_mapping(tmp_path):
    """Runs are views cast off the mapping; close() gives every one back
    after reads of every id shape, and a second close() is a no-op."""
    path = save_snapshot_store(_store(), tmp_path / "c.mdws")
    snap = MappedSnapshot.open(path)
    attached = snap.store(mutable_models=())
    graphs = [attached.model(n) for n in attached.model_names()]
    graphs += [attached.index(m, r) for m, r in attached.index_names()]
    for graph in graphs:
        rows = list(graph.triples_ids())
        assert len(rows) == len(graph) > 0
        s, p, o = rows[len(rows) // 2]
        for shape in itertools.product(*((None, x) for x in (s, p, o))):
            assert list(graph.triples_ids(*shape)), shape
        assert o in graph.distinct_object_ids(p)
    # a scan left suspended mid-run holds no view either
    suspended = graphs[0].triples_ids()
    next(suspended)
    snap.close()
    snap.close()


def test_rejects_truncated_file(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    for cut in (10, HEADER_SIZE, len(raw) // 2, len(raw) - 5):
        path.write_bytes(bytes(raw[:cut]))
        with pytest.raises(SnapshotFormatError):
            MappedSnapshot.open(path)


def test_rejects_section_corruption(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    raw[HEADER_SIZE + 3] ^= 0xFF  # inside the first section's payload
    path.write_bytes(bytes(raw))
    # the header and TOC still hold: the section CRC rejects the file
    with pytest.raises(SnapshotFormatError, match="section .* checksum mismatch"):
        MappedSnapshot.open(path)


def test_verify_catches_a_rewrite_under_the_mapping(tmp_path):
    path, raw = _valid_bytes(tmp_path)
    snap = MappedSnapshot.open(path)
    assert snap.verify() is True
    with open(path, "r+b") as f:  # in place: the mapping sees it
        f.seek(HEADER_SIZE + 3)
        f.write(bytes([raw[HEADER_SIZE + 3] ^ 0xFF]))
    assert snap.verify() is False
    snap.close()


def test_frozen_flag_roundtrips(tmp_path):
    frozen_store = _store(freeze=True)
    path = save_snapshot_store(frozen_store, tmp_path / "f.mdws")
    snap = MappedSnapshot.open(path)
    assert snap.store(mutable_models=()).model("DWH_CURR").frozen
    # an unfrozen-saved model defaults back to a mutable graph on load
    path2 = save_snapshot_store(_store(freeze=False), tmp_path / "u.mdws")
    loaded = MappedSnapshot.open(path2).store()
    graph = loaded.model("DWH_CURR")
    assert not graph.frozen
    graph.add(Triple(IRI(f"{NS}new"), RDF.type, IRI(f"{NS}Class_0")))


def test_stats_parity_with_in_memory_catalog(tmp_path):
    store = _store()
    original = store.model("DWH_CURR")
    path = save_snapshot_store(store, tmp_path / "s.mdws")
    mapped = MappedSnapshot.open(path).store(mutable_models=()).model("DWH_CURR")
    for predicate in (RDF.type, IRI(f"{NS}hasName")):
        pid = original.dictionary.lookup(predicate)
        expected = original.stats().predicate(pid)
        mid = mapped.dictionary.lookup(predicate)
        actual = mapped.stats().predicate(mid)
        assert (expected is None) == (actual is None)
        if expected is not None:
            assert actual.count == expected.count
            assert actual.distinct_subjects == expected.distinct_subjects
            assert actual.distinct_objects == expected.distinct_objects


def _release_warehouse(feeds):
    mdw = MetadataWarehouse()
    mdw.build_entailment_index("OWLPRIME")
    EtlOrchestrator(mdw).apply_release(feeds, mode="full")
    return mdw


def _state(mdw):
    """Model and OWLPRIME index N-Triples plus a probe query's answers."""
    rows = mdw.query("SELECT ?s ?name WHERE { ?s dm:hasName ?name }", rulebases=("OWLPRIME",))
    return (
        serialize_ntriples(mdw.graph),
        serialize_ntriples(mdw.store.index(mdw.model_name, "OWLPRIME")),
        sorted((str(b.get("s")), str(b.get("name"))) for b in rows.iter_bindings()),
    )


@pytest.mark.parametrize("site", ["snapshot.save", "snapshot.attach"])
def test_crashed_save_or_attach_keeps_the_file(tmp_path, site):
    """A save killed between fsync and rename leaves the previous file
    byte-identical, attachable to its own state and without a temp
    sibling; an attach killed while validating leaves the file
    untouched. Either way the retry attaches to the evolved state."""
    rng = random.Random(7)
    release1 = make_release_feeds(rng, documents=2, instances=5)
    release2 = release1[:-1] + make_release_feeds(rng, documents=1, instances=5)
    base, evolved = _release_warehouse(release1), _release_warehouse(release2)
    path = tmp_path / "wh.mdws"
    (evolved if site == "snapshot.attach" else base).save_snapshot(path)
    before = path.read_bytes()

    injector = FaultInjector()
    injector.arm(site, "raise", times=1)
    with fault_scope(injector), pytest.raises(InjectedFault):
        if site == "snapshot.save":
            evolved.save_snapshot(path)
        else:
            MetadataWarehouse.attach_snapshot(path)
    assert injector.fired(site) == 1
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["wh.mdws"]
    if site == "snapshot.save":
        assert _state(MetadataWarehouse.attach_snapshot(path)) == _state(base)
        evolved.save_snapshot(path)
    assert _state(MetadataWarehouse.attach_snapshot(path)) == _state(evolved)


# -- versions as reverse deltas ------------------------------------------------

#: SHA-256 of the sections the format-3 writer (every graph in full, the
#: term-space writer before this one) wrote for ``_pinned_store()``: the
#: string pool and every graph still saved in full keep their bytes
PINNED_SECTIONS = {
    "pool": "e9aa729142ae69e6215ea4f05b96fdf1fe10c51543e0ec57993be665c9e72212",
    "offsets": "1298068b13d1a337b625581441ef881421442dfd1205230ed17cb64d9552faf4",
    "hash": "fe904e303f9b0ef86dbe6cc0d5f73fc3ae6b9493a8c881049aba2cf4f2faf379",
    "model:DWH_CURR/spo": "24deb7af06897b1419610266b54accc168ed0b3d7cbc9b1db3868e47c69e5bd4",
    "model:DWH_CURR/pos": "6469b79a477e39c4c60db68463a3543383ba503196393f393cd5d4a8f84224a1",
    "model:HIST_2026.R2/spo": "24deb7af06897b1419610266b54accc168ed0b3d7cbc9b1db3868e47c69e5bd4",
    "model:HIST_2026.R2/pos": "6469b79a477e39c4c60db68463a3543383ba503196393f393cd5d4a8f84224a1",
    "index:DWH_CURR:OWLPRIME/spo": "ada023a53f7691006aa68b70e47f7cde75d70cf777fb273c4dfa0b6b80b13577",
    "index:DWH_CURR:OWLPRIME/pos": "1326410bbb276ef10fc20c3c1e1753969a8629ee232ba432a7e2ccc41afd4a05",
}

#: the format-3 TOC entries of the graphs saved in full
PINNED_ENTRIES = [
    {"distinct": [152, 24, 276], "frozen": False, "key": "model:DWH_CURR", "kind": "model",
     "model": "DWH_CURR", "rulebase": None, "triples": 696},
    {"distinct": [152, 24, 276], "frozen": True, "key": "model:HIST_2026.R2", "kind": "model",
     "model": "HIST_2026.R2", "rulebase": None, "triples": 696},
    {"distinct": [113, 2, 7], "frozen": False, "key": "index:DWH_CURR:OWLPRIME",
     "kind": "index", "model": "DWH_CURR", "rulebase": "OWLPRIME", "triples": 199},
]


def _pinned_store() -> MetadataWarehouse:
    """A ``tiny`` store with its OWLPRIME index and two versions: five
    triples dropped and one added between them."""
    mdw = generate_landscape(LandscapeConfig.tiny(seed=2012)).warehouse
    mdw.build_entailment_index()
    historizer = Historizer(mdw.store)
    historizer.snapshot("2026.R1")
    graph = mdw.graph
    for triple in sorted(graph, key=lambda t: tuple(x.sort_key() for x in t))[:5]:
        graph.discard(triple)
    graph.add(Triple(IRI("http://example.org/pin#item"), IRI("http://example.org/pin#hasName"),
                     Literal("pinned")))
    historizer.snapshot("2026.R2")
    return mdw


def _toc(raw: bytes):
    toc_offset, toc_length = struct.unpack_from("<QQ", raw, 24)
    return json.loads(raw[toc_offset : toc_offset + toc_length])


def test_full_sections_keep_the_format_3_bytes(tmp_path):
    """The id-space writer writes the pool and every full graph's runs
    byte for byte as the term-space writer did; the TOC differs only by
    the delta entry of the older version."""
    raw = _pinned_store().save_snapshot(tmp_path / "pin.mdws", generation=7).read_bytes()
    toc = _toc(raw)
    for name, digest in PINNED_SECTIONS.items():
        sec = toc["sections"][name]
        assert hashlib.sha256(raw[sec["offset"] : sec["offset"] + sec["length"]]).hexdigest() == digest, name
    assert [g for g in toc["graphs"] if "delta" not in g] == PINNED_ENTRIES
    (delta,) = [g for g in toc["graphs"] if "delta" in g]
    assert delta["key"] == "model:HIST_2026.R1" and delta["base"] == "model:HIST_2026.R2"
    assert delta["triples"] == 700
    assert {half: delta["delta"][half]["triples"] for half in delta["delta"]} == {
        "added": 5, "removed": 1,
    }
    assert sorted(toc["sections"]) == sorted(
        [*PINNED_SECTIONS, *(f"model:HIST_2026.R1/{half}/{run}"
                             for half in ("added", "removed") for run in ("spo", "pos"))]
    )


def test_versions_saved_as_reverse_deltas_answer_in_full(tmp_path):
    """Three versions: the newest in full, the others as a chain of
    reverse deltas. Attached, every version answers its whole content
    (the oldest two layers deep), a historizer lists them, and saving
    the attached store again writes the same bytes."""
    store = _store()
    live = store.model("DWH_CURR")
    contents = {}
    for release in ("R2", "R3", "R10"):  # R10 is the newest (digit runs compare as numbers)
        live.add(Triple(IRI(f"{NS}item_{release}"), RDF.type, IRI(f"{NS}Class_0")))
        live.discard(next(iter(live)))
        Historizer(store).snapshot(f"2026.{release}")
        contents[release] = set(store.model(f"HIST_2026.{release}"))
    path = save_snapshot_store(store, tmp_path / "v.mdws", generation=3)
    snap = MappedSnapshot.open(path)
    attached = snap.store()
    oldest = attached.model("HIST_2026.R2")
    assert isinstance(oldest, LayeredGraph) and isinstance(oldest.layers[0], LayeredGraph)
    assert not isinstance(attached.model("HIST_2026.R10"), LayeredGraph)
    for release, content in contents.items():
        graph = attached.model(f"HIST_2026.{release}")
        assert set(graph) == content and len(graph) == len(content)
        assert graph.count(None, RDF.type, None) == sum(1 for t in content if t[1] == RDF.type)
    history = Historizer(attached)
    assert history.version_names() == ["2026.R1", "2026.R2", "2026.R3", "2026.R10"]
    assert history.get("2026.R2").graph.node_count() == len(
        {t.subject for t in contents["R2"]} | {t.object for t in contents["R2"]}
    )
    again = save_snapshot_store(attached, tmp_path / "again.mdws", generation=3)
    assert again.read_bytes() == path.read_bytes()
    snap.close()


def test_a_delta_chain_is_at_most_max_delta_chain_deep(tmp_path):
    """70 versions: every 33rd from the newest is saved in full, so no
    version reads through more than ``MAX_DELTA_CHAIN`` deltas, and
    every one answers in full."""
    store = TripleStore()
    live = store.create_model("DWH_CURR")
    for i in range(10):
        live.add(Triple(IRI(f"{NS}s{i}"), RDF.type, IRI(f"{NS}C")))
    history = Historizer(store)
    for v in range(70):
        live.add(Triple(IRI(f"{NS}n{v}"), RDF.type, IRI(f"{NS}C")))
        history.snapshot(f"2000.R{v}")
    snap = MappedSnapshot.open(save_snapshot_store(store, tmp_path / "c.mdws"))
    attached = snap.store()

    def depth(graph):
        return 1 + depth(graph.layers[0]) if isinstance(graph, LayeredGraph) else 0

    depths = [depth(attached.model(f"HIST_2000.R{v}")) for v in range(70)]
    assert max(depths) == MAX_DELTA_CHAIN == 32
    assert [v for v, d in enumerate(depths) if d == 0] == [3, 36, 69]
    assert [len(attached.model(f"HIST_2000.R{v}")) for v in range(70)] == list(range(11, 81))
    snap.close()

