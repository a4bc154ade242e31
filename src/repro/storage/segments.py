"""Delta segments: publish release N+1 as O(delta) bytes.

A segment file records, per graph (model or entailment index), the
triples a release added and removed relative to a base generation.
Publishing a release writes one segment instead of a full snapshot;
attach replays the chain of segments onto the base snapshot and ends up
bit-identical to a full save of the final state (the test suite
asserts both the O(delta) size and the bit-identity).

Format: a checksummed fixed header (magic, version, base generation,
new generation, body length/CRC) followed by a JSON body whose triples
are N-Triples lexical terms — segments are small by construction, so
the debuggability of text triples beats binary packing here. Writes
are atomic (temp + fsync + rename), like snapshots.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.history.diff import diff_graphs
from repro.rdf.graph import Graph, as_writable
from repro.rdf.staging import parse_lexical_term
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple
from repro.storage.codec import SnapshotFormatError

SEGMENT_MAGIC = b"MDWSEG\x01\x00"
SEGMENT_VERSION = 1

#: magic, version, flags, base_generation, generation, body_length,
#: body_crc32, header_crc32
_SEG_HEADER = struct.Struct("<8sIIQQQII")


@dataclass
class SegmentEntry:
    """The delta of one graph: triples added and removed."""

    kind: str  # "model" | "index"
    model: str
    rulebase: Optional[str] = None
    added: List[Triple] = field(default_factory=list)
    removed: List[Triple] = field(default_factory=list)

    @property
    def churn(self) -> int:
        return len(self.added) + len(self.removed)


@dataclass
class Segment:
    """One read segment file: the generation chain link plus entries."""

    base_generation: int
    generation: int
    entries: List[SegmentEntry]

    @property
    def churn(self) -> int:
        return sum(e.churn for e in self.entries)


def _triple_rows(triples: Iterable[Triple]) -> List[List[str]]:
    return sorted(
        [t.subject.n3(), t.predicate.n3(), t.object.n3()] for t in triples
    )


def _row_triple(row: Sequence[str]) -> Triple:
    try:
        return Triple(*(parse_lexical_term(part) for part in row))
    except (ValueError, TypeError) as exc:
        raise SnapshotFormatError(f"malformed segment triple {row!r}: {exc}") from None


def diff_stores(old: TripleStore, new: TripleStore) -> List[SegmentEntry]:
    """Per-graph deltas between two stores (models and indexes).

    Graphs present on one side only diff against an empty graph. Order
    is deterministic (models, then indexes, each sorted by key).
    """
    entries: List[SegmentEntry] = []
    for name in sorted(set(old.model_names()) | set(new.model_names())):
        before = old.model(name) if old.has_model(name) else Graph()
        after = new.model(name) if new.has_model(name) else Graph()
        diff = diff_graphs(before, after)
        if not diff.is_empty:
            entries.append(
                SegmentEntry(
                    "model", name, None, list(diff.added), list(diff.removed)
                )
            )
    index_keys = sorted(set(old.index_names()) | set(new.index_names()))
    for model, rulebase in index_keys:
        before = old.index(model, rulebase) or Graph()
        after = new.index(model, rulebase) or Graph()
        diff = diff_graphs(before, after)
        if not diff.is_empty:
            entries.append(
                SegmentEntry(
                    "index", model, rulebase, list(diff.added), list(diff.removed)
                )
            )
    return entries


def write_segment(
    path: Union[str, Path],
    entries: Sequence[SegmentEntry],
    base_generation: int,
    generation: int,
) -> Path:
    """Atomically write a segment file; size is O(total churn)."""
    path = Path(path)
    body = json.dumps(
        {
            "entries": [
                {
                    "kind": e.kind,
                    "model": e.model,
                    "rulebase": e.rulebase,
                    "added": _triple_rows(e.added),
                    "removed": _triple_rows(e.removed),
                }
                for e in entries
            ]
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    header = _SEG_HEADER.pack(
        SEGMENT_MAGIC,
        SEGMENT_VERSION,
        0,
        base_generation,
        generation,
        len(body),
        zlib.crc32(body),
        0,
    )
    header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(body)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def read_segment(path: Union[str, Path]) -> Segment:
    """Read and validate one segment file."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _SEG_HEADER.size:
        raise SnapshotFormatError(f"{path}: file too small for a segment header")
    (
        magic,
        version,
        _flags,
        base_generation,
        generation,
        body_length,
        body_crc,
        header_crc,
    ) = _SEG_HEADER.unpack_from(raw, 0)
    if magic != SEGMENT_MAGIC:
        raise SnapshotFormatError(f"{path}: not a segment file (bad magic)")
    if zlib.crc32(raw[: _SEG_HEADER.size - 4]) != header_crc:
        raise SnapshotFormatError(f"{path}: segment header checksum mismatch")
    if version != SEGMENT_VERSION:
        raise SnapshotFormatError(
            f"{path}: segment format {version} unsupported "
            f"(this build reads {SEGMENT_VERSION})"
        )
    body = raw[_SEG_HEADER.size : _SEG_HEADER.size + body_length]
    if len(body) != body_length:
        raise SnapshotFormatError(f"{path}: truncated segment body")
    if zlib.crc32(body) != body_crc:
        raise SnapshotFormatError(f"{path}: segment body checksum mismatch")
    data = json.loads(body.decode("utf-8"))
    entries = [
        SegmentEntry(
            e["kind"],
            e["model"],
            e["rulebase"],
            [_row_triple(row) for row in e["added"]],
            [_row_triple(row) for row in e["removed"]],
        )
        for e in data["entries"]
    ]
    return Segment(base_generation, generation, entries)


def publish_segment(
    old: TripleStore,
    new: TripleStore,
    path: Union[str, Path],
    base_generation: int,
    generation: int,
) -> Path:
    """Diff two stores and write the delta as one segment file."""
    return write_segment(path, diff_stores(old, new), base_generation, generation)


def apply_segments(
    store: TripleStore,
    segments: Sequence[Union[str, Path, Segment]],
    base_generation: Optional[int] = None,
) -> int:
    """Replay a chain of segments onto ``store``, in place.

    Verifies the generation chain (each segment's base must match the
    running generation, starting at ``base_generation`` when given).
    Mapped or frozen graphs are materialized before mutation and
    re-frozen afterwards, so replay works directly on an attached
    snapshot store. Returns the final generation.
    """
    current = base_generation
    for item in segments:
        seg = item if isinstance(item, Segment) else read_segment(item)
        if current is not None and seg.base_generation != current:
            raise SnapshotFormatError(
                f"segment chain broken: segment is based on generation "
                f"{seg.base_generation}, store is at {current}"
            )
        for entry in seg.entries:
            if entry.kind == "model":
                _apply_model_entry(store, entry)
            elif entry.kind == "index":
                _apply_index_entry(store, entry)
            else:
                raise SnapshotFormatError(f"unknown segment entry kind {entry.kind!r}")
        current = seg.generation
    return current if current is not None else 0


def _apply_model_entry(store: TripleStore, entry: SegmentEntry) -> None:
    if store.has_model(entry.model):
        graph = store.model(entry.model)
        writable, refreeze = as_writable(graph), graph.frozen
        if writable is not graph:
            store.replace_model(entry.model, writable)
    else:
        writable = store.create_model(entry.model)
        refreeze = False
    for t in entry.removed:
        writable.discard(t)
    writable.add_all(entry.added)
    if refreeze:
        writable.freeze()


def _apply_index_entry(store: TripleStore, entry: SegmentEntry) -> None:
    derived = store.index(entry.model, entry.rulebase)
    if derived is None:
        writable: Graph = Graph(dictionary=store.dictionary)
        refreeze = False
    else:
        writable, refreeze = as_writable(derived), derived.frozen
    for t in entry.removed:
        writable.discard(t)
    writable.add_all(entry.added)
    if refreeze:
        writable.freeze()
    store.attach_index(entry.model, entry.rulebase, writable)
