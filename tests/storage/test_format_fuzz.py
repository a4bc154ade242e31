"""Format fuzzing: a corrupt snapshot or segment never answers.

Seeded single-bit flips and truncations of a ``tiny`` ``.mdws`` (with
its OWLPRIME index and two historized versions, the older saved as a
reverse delta) and of a delta segment over it, both read by the one
reader, :meth:`MappedSnapshot.open`. A case passes only with a typed
rejection (a ``StorageError`` subclass) or an answer bit-identical to
the intact file's: every graph's sorted N-Triples. Anything else — a
different graph, an ``IndexError``, a ``UnicodeDecodeError`` — fails
the case.
"""

import random

import pytest

from repro.history import Historizer
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.snapshot import SnapshotManager
from repro.storage import MappedSnapshot, StorageError, apply_segments, publish_segment
from repro.synth import LandscapeConfig, generate_landscape

FLIPS = 300
TRUNCATIONS = 100


def _answer(store):
    graphs = {name: store.model(name) for name in store.model_names()}
    graphs.update({f"{m}[{r}]": store.index(m, r) for m, r in store.index_names()})
    return {key: serialize_ntriples(graph) for key, graph in graphs.items()}


def _attached_answer(path):
    snap = MappedSnapshot.open(path)
    try:
        return _answer(snap.store(mutable_models=()))
    finally:
        snap.close()


def _segment_answer(base_path, segment_path):
    snap = MappedSnapshot.open(base_path)
    try:
        return _answer(apply_segments(snap, [segment_path], mutable_models=()))
    finally:
        snap.close()


def _mutations(raw, seed):
    """(label, bytes) cases: seeded bit flips, then truncations."""
    rng = random.Random(seed)
    for _ in range(FLIPS):
        at, bit = rng.randrange(len(raw)), rng.randrange(8)
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        yield f"flip byte {at} bit {bit}", bytes(flipped)
    for _ in range(TRUNCATIONS):
        cut = rng.randrange(len(raw))
        yield f"truncate to {cut}", raw[:cut]


def _fuzz(path, answer_of, seed):
    raw = path.read_bytes()
    expected = answer_of()
    failures = []
    for label, mutated in _mutations(raw, seed):
        path.write_bytes(mutated)
        try:
            got = answer_of()
        except StorageError:
            continue
        except Exception as exc:  # noqa: BLE001 - an untyped crash fails the case
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if got != expected:
            failures.append(f"{label}: attached a different graph")
    path.write_bytes(raw)
    assert answer_of() == expected
    assert failures == [], f"{len(failures)} case(s) answered wrongly: {failures[:5]}"


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    mdw = generate_landscape(LandscapeConfig.tiny(seed=2012)).warehouse
    mdw.build_entailment_index()
    historizer = Historizer(mdw.store)
    historizer.snapshot("2026.R1")
    graph = mdw.graph
    for triple in list(graph)[:3]:
        graph.discard(triple)
    historizer.snapshot("2026.R2")
    base = mdw.save_snapshot(root / "base.mdws", generation=1)
    snap = MappedSnapshot.open(base)
    assert snap.info()["graphs"][1]["delta"] == {"added": 3, "removed": 0}
    snap.close()
    # the segment diffs two pinned states of the live id space
    old = SnapshotManager(mdw).pin().warehouse.store
    for triple in list(graph)[:5]:
        graph.discard(triple)
    item = IRI("http://example.org/fuzz#item")
    graph.add(Triple(item, IRI("http://example.org/fuzz#hasName"), Literal("näme \"q\"")))
    graph.add(Triple(item, IRI("http://example.org/fuzz#label"), Literal("Name", language="de-CH")))
    new = SnapshotManager(mdw).pin().warehouse.store
    segment = publish_segment(old, new, root / "delta.mdwseg", 1, 2)
    return base, segment


def test_corrupt_snapshot_never_answers(tiny_files):
    base, _segment = tiny_files
    _fuzz(base, lambda: _attached_answer(base), seed=5)


def test_corrupt_segment_never_answers(tiny_files):
    base, segment = tiny_files
    _fuzz(segment, lambda: _segment_answer(base, segment), seed=6)
