"""Delta segments: O(delta) size, chain verification, bit-identity."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.store import TripleStore
from repro.storage import (
    MappedSnapshot,
    SnapshotFormatError,
    apply_segments,
    diff_stores,
    read_segment,
    save_snapshot_store,
    write_segment,
)
from repro.storage.segments import publish_segment

NS = "http://example.org/"


def _base_store(triples=400) -> TripleStore:
    store = TripleStore()
    graph = store.get_or_create_model("DWH_CURR")
    for i in range(triples):
        s = IRI(f"{NS}item_{i}")
        graph.add(Triple(s, RDF.type, IRI(f"{NS}Class_{i % 7}")))
        graph.add(Triple(s, IRI(f"{NS}hasName"), Literal(f"name_{i}")))
    derived = Graph(dictionary=graph.dictionary)
    for i in range(0, triples, 4):
        derived.add(Triple(IRI(f"{NS}item_{i}"), RDF.type, IRI(f"{NS}Super")))
    store.attach_index("DWH_CURR", "OWLPRIME", derived)
    return store


def _evolve(store: TripleStore, round_no: int) -> None:
    """A small in-place release: a few removes, a few adds."""
    graph = store.model("DWH_CURR")
    for i in range(3):
        item = IRI(f"{NS}item_{i}")
        graph.discard(Triple(item, IRI(f"{NS}hasName"), Literal(f"name_{i}")))
        graph.add(
            Triple(item, IRI(f"{NS}hasName"), Literal(f"name_{i}_r{round_no}"))
        )
    for i in range(4):
        item = IRI(f"{NS}new_{round_no}_{i}")
        graph.add(Triple(item, RDF.type, IRI(f"{NS}Class_0")))
    derived = store.index("DWH_CURR", "OWLPRIME")
    derived.add(Triple(IRI(f"{NS}new_{round_no}_0"), RDF.type, IRI(f"{NS}Super")))
    store.attach_index("DWH_CURR", "OWLPRIME", derived)


def _snapshot_of(store, path, generation):
    return save_snapshot_store(store, path, generation=generation)


def _copy_of(store: TripleStore) -> TripleStore:
    """The store's state now, in its dictionary: a segment diffs two
    states of one id space (an attached file has a dictionary of its
    own)."""
    copy = TripleStore()
    for name in store.model_names():
        copy.adopt_model(name, store.model(name).copy())
    for model, rulebase in store.index_names():
        copy.attach_index(model, rulebase, store.index(model, rulebase).copy())
    return copy


def test_segment_roundtrip(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    entries = diff_stores(old, new)
    assert entries, "evolution produced no delta"
    path = write_segment(tmp_path / "d.seg", entries, 1, 2)
    seg = read_segment(path)
    assert seg.base_generation == 1 and seg.generation == 2
    assert seg.churn == sum(e.churn for e in entries)


def test_segment_is_o_delta_sized(tmp_path):
    store = _base_store()
    full_path = _snapshot_of(store, tmp_path / "full.mdws", 1)
    old = _copy_of(store)
    _evolve(store, 1)
    seg_path = publish_segment(old, store, tmp_path / "d.seg", 1, 2)
    full_size = full_path.stat().st_size
    seg_size = seg_path.stat().st_size
    # the delta touches ~15 of ~900 triples; the segment must cost a
    # small fraction of a full snapshot, not scale with the model
    assert seg_size < full_size / 10, (seg_size, full_size)


def test_replay_is_bit_identical_to_full_save(tmp_path):
    live = _base_store()
    base_path = _snapshot_of(live, tmp_path / "base.mdws", 10)

    # chain three releases, each diffed against the previous live state
    segments = []
    prev = _copy_of(live)
    generation = 10
    for round_no in (1, 2, 3):
        _evolve(live, round_no)
        seg = tmp_path / f"delta-{round_no}.seg"
        publish_segment(prev, live, seg, generation, generation + 1)
        segments.append(seg)
        generation += 1
        prev = _copy_of(live)

    attached = MappedSnapshot.open(base_path).store(mutable_models=())
    final_gen = apply_segments(attached, segments, base_generation=10)
    assert final_gen == 13
    replayed_path = _snapshot_of(attached, tmp_path / "replayed.mdws", final_gen)
    full_path = _snapshot_of(live, tmp_path / "final.mdws", final_gen)
    assert replayed_path.read_bytes() == full_path.read_bytes()


def test_broken_chain_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    seg = publish_segment(old, new, tmp_path / "d.seg", 5, 6)
    store = _base_store()
    with pytest.raises(SnapshotFormatError, match="chain"):
        apply_segments(store, [seg], base_generation=4)


def test_truncated_segment_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(SnapshotFormatError, match="truncated|checksum"):
        read_segment(path)


def test_corrupted_segment_body_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        read_segment(path)


@pytest.mark.parametrize("bad", ['"a\\u00"', '"x"^^bad', '"lit"'])
def test_malformed_term_in_a_checksummed_body_is_rejected(tmp_path, monkeypatch, bad):
    """A body whose checksum holds but whose terms do not parse (a short
    escape, a bare datatype, a literal subject) is a SnapshotFormatError."""
    from repro.storage import segments

    row = [bad, "<http://x/p>", '"o"'] if bad == '"lit"' else ["<http://x/s>", "<http://x/p>", bad]
    monkeypatch.setattr(segments, "_triple_rows", lambda triples: [row])
    entry = segments.SegmentEntry("model", "DWH_CURR", added=[Triple(IRI(NS), RDF.type, IRI(NS))])
    path = write_segment(tmp_path / "d.seg", [entry], 1, 2)
    with pytest.raises(SnapshotFormatError, match="malformed segment triple"):
        read_segment(path)


def test_segment_creating_new_model_shares_dictionary(tmp_path):
    old = _base_store()
    new = _base_store()
    hist = Graph()
    hist.add(Triple(IRI(f"{NS}a"), RDF.type, IRI(f"{NS}B")))
    new.adopt_model("HIST_2026.R1", hist)
    seg = publish_segment(old, new, tmp_path / "d.seg", 1, 2)

    base_path = save_snapshot_store(old, tmp_path / "base.mdws", generation=1)
    attached = MappedSnapshot.open(base_path).store(mutable_models=())
    apply_segments(attached, [seg], base_generation=1)
    assert attached.has_model("HIST_2026.R1")
    assert (
        attached.model("HIST_2026.R1").dictionary
        is attached.model("DWH_CURR").dictionary
    )
