"""Delta segments: O(delta) size, chain verification, bit-identity.

A segment is a snapshot container holding only delta entries, read by
the one reader, :meth:`MappedSnapshot.open`.
"""

import json
import struct
import zlib

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
    publish_segment,
    save_snapshot_store,
)

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
    deltas = diff_stores(old, new)
    assert deltas, "evolution produced no delta"
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    seg = MappedSnapshot.open(path)
    try:
        assert seg.base_generation == 1 and seg.generation == 2
        churn = sum(
            counts["triples"]
            for entry in seg.graph_entries()
            for counts in entry["delta"].values()
        )
        assert churn == sum(diff.churn for _, diff in deltas)
    finally:
        seg.close()


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

    snap = MappedSnapshot.open(base_path)
    attached = apply_segments(snap, segments, mutable_models=())
    replayed_path = _snapshot_of(attached, tmp_path / "replayed.mdws", 13)
    full_path = _snapshot_of(live, tmp_path / "final.mdws", 13)
    assert replayed_path.read_bytes() == full_path.read_bytes()
    snap.close()


def test_broken_chain_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    seg = publish_segment(old, new, tmp_path / "d.seg", 5, 6)
    snap = MappedSnapshot.open(_snapshot_of(_base_store(), tmp_path / "b.mdws", 4))
    with pytest.raises(SnapshotFormatError, match="chain"):
        apply_segments(snap, [seg])
    snap.close()


def test_truncated_segment_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(SnapshotFormatError, match="truncated|checksum"):
        MappedSnapshot.open(path)


def test_corrupted_segment_body_is_rejected(tmp_path):
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        MappedSnapshot.open(path)


def _rewrite_first_record(path, bad: bytes) -> None:
    """Overwrite the pool's first term record with ``bad`` (same length)
    and re-seal every checksum, as a writer with a bug would."""
    raw = bytearray(path.read_bytes())
    toc_offset, toc_length = struct.unpack_from("<QQ", raw, 24)
    toc = json.loads(raw[toc_offset : toc_offset + toc_length])
    offsets = toc["sections"]["offsets"]
    start, end = struct.unpack_from("<QQ", raw, offsets["offset"])
    pool = toc["sections"]["pool"]
    raw[pool["offset"] + start : pool["offset"] + end] = bad.ljust(end - start, b"\x80")
    pool["crc32"] = zlib.crc32(raw[pool["offset"] : pool["offset"] + pool["length"]])
    body = json.dumps(toc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    del raw[toc_offset:]
    raw += body
    struct.pack_into("<QQI", raw, 24, toc_offset, len(body), zlib.crc32(body))
    struct.pack_into("<I", raw, 44, zlib.crc32(raw[:44]))
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "bad", [b"\x09", b"\x01\xff", b"\x04"], ids=["unknown-kind", "bad-utf8", "truncated-varint"]
)
def test_malformed_term_record_in_a_checksummed_pool_is_rejected(tmp_path, bad):
    """A pool record whose checksums hold but which does not decode (an
    unknown kind byte, invalid UTF-8, a varint running off the record)
    is a SnapshotFormatError when the segment is applied."""
    old = _base_store()
    new = _base_store()
    _evolve(new, 1)
    path = publish_segment(old, new, tmp_path / "d.seg", 1, 2)
    _rewrite_first_record(path, bad)
    snap = MappedSnapshot.open(_snapshot_of(old, tmp_path / "b.mdws", 1))
    with pytest.raises(SnapshotFormatError, match="malformed term|truncated varint|unknown term kind"):
        apply_segments(snap, [path])
    snap.close()


def test_segment_creating_new_model_shares_dictionary(tmp_path):
    old = _base_store()
    new = _base_store()
    hist = Graph()
    hist.add(Triple(IRI(f"{NS}a"), RDF.type, IRI(f"{NS}B")))
    new.adopt_model("HIST_2026.R1", hist)
    seg = publish_segment(old, new, tmp_path / "d.seg", 1, 2)

    base_path = save_snapshot_store(old, tmp_path / "base.mdws", generation=1)
    attached = apply_segments(MappedSnapshot.open(base_path), [seg], mutable_models=())
    assert attached.has_model("HIST_2026.R1")
    assert (
        attached.model("HIST_2026.R1").dictionary
        is attached.model("DWH_CURR").dictionary
    )
