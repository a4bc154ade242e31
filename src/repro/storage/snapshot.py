"""Binary snapshot files: atomic save, mmap attach, lazy graphs.

File layout::

    [48-byte header][sections...][JSON table of contents]

The header (``<8sIIQQQII``) carries the magic, format version, flags,
generation stamp, the TOC's offset/length/CRC, and its own CRC — enough
to reject truncation, corruption, and version skew before trusting a
byte of the body; attach then checks every section's CRC as well.
Sections are the shared string pool (:mod:`repro.storage.stringpool`)
plus fixed-width CSR triple runs (:mod:`repro.storage.codec`); the TOC
names every section with its offset, length, and CRC32, and describes
every graph (model or index, triple and distinct counts, frozen flag).

A *full* entry ``K`` has the runs ``K/spo`` and ``K/pos``; a *delta*
entry has ``K/added/{spo,pos}`` and ``K/removed/{spo,pos}`` in the same
id space. The writer saves a frozen ``HIST_*`` version as a delta over
the next newer version (``"base"``) when that has fewer rows than the
version; there is no option. A delta segment is the same container with
only delta entries, no ``"base"``, only the delta's terms and a
``"base_generation"`` in the TOC.

Saves go to a sibling temp file, ``fsync``, then ``os.replace`` — a
crash mid-save leaves the previous snapshot untouched (the
``snapshot.save`` fault site fires between fsync and rename).

Attach (:meth:`MappedSnapshot.open`) maps the file and hands out
:class:`MappedGraph` objects that answer the graph read contract
straight from the mapped runs, sharing one
:class:`MappedTermDictionary`; a delta entry attaches as a
:class:`~repro.rdf.graph.LayeredGraph` over its base.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from array import array
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.history.diff import diff_graphs
from repro.history.historizer import version_models
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import FrozenGraph, LayeredGraph, ReadableGraph
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.resilience import faults
from repro.storage.codec import RunReader, SnapshotFormatError, StorageError, run_parts
from repro.storage.stringpool import MappedStringPool, build_pool

MAGIC = b"MDWSNAP\x01"
FORMAT_VERSION = 4

#: magic, format_version, flags, generation, toc_offset, toc_length,
#: toc_crc32, header_crc32
_HEADER = struct.Struct("<8sIIQQQII")
HEADER_SIZE = _HEADER.size

#: the most deltas a version read goes through: one full copy every 33
#: versions keeps lookups on old versions bounded (and within the
#: interpreter's recursion limit)
MAX_DELTA_CHAIN = 32

#: a graph to write: its TOC entry and (key suffix, graph) per run pair:
#: ``""`` for a full entry, ``/added`` and ``/removed`` for a delta
Plan = Tuple[Dict[str, object], List[Tuple[str, ReadableGraph]]]


# ---------------------------------------------------------------------------
# save


def graph_entry(kind: str, model: str, rulebase: Optional[str], graph) -> Dict[str, object]:
    """The TOC entry head of one graph (its runs add the counts)."""
    key = f"model:{model}" if kind == "model" else f"index:{model}:{rulebase}"
    return dict(key=key, kind=kind, model=model, rulebase=rulebase,
                frozen=bool(graph.frozen), triples=len(graph))


def _plans(store: TripleStore) -> List[Plan]:
    """Every graph of ``store``: models, then indexes, each by key; a
    frozen version whose reverse delta against the next newer frozen
    version is smaller than itself goes as that delta, unless that
    newer one already ends a chain of :data:`MAX_DELTA_CHAIN` deltas."""
    names = store.model_names()
    versions = version_models(n for n in names if store.model(n).frozen)
    deltas, depth = {}, 0
    for name, newer_name in reversed(list(zip(versions, versions[1:]))):
        graph, newer = store.model(name), store.model(newer_name)
        if isinstance(graph, LayeredGraph) and graph.layers[0] is newer:
            added, removed = graph.layers[1:]  # attached over it: its own delta
        else:
            diff = diff_graphs(newer, graph)
            added, removed = diff.added, diff.removed
        depth = depth + 1 if len(added) + len(removed) < len(graph) else MAX_DELTA_CHAIN + 1
        if depth <= MAX_DELTA_CHAIN:
            deltas[name] = (newer_name, added, removed)
        else:
            depth = 0
    plans: List[Plan] = []
    for name in names:
        graph = store.model(name)
        entry = graph_entry("model", name, None, graph)
        runs = [("", graph)]
        if name in deltas:
            newer_name, added, removed = deltas[name]
            entry["base"] = f"model:{newer_name}"
            runs = [("/added", added), ("/removed", removed)]
        plans.append((entry, [(suffix, _indexed(g)) for suffix, g in runs]))
    for model, rulebase in store.index_names():
        graph = store.index(model, rulebase)
        plans.append((graph_entry("index", model, rulebase, graph), [("", _indexed(graph))]))
    return plans


def _indexed(graph: ReadableGraph) -> ReadableGraph:
    """``graph`` itself when it has runs or indexes to stream from (a
    :class:`Graph` or :class:`MappedGraph`), else a materialized copy."""
    return graph.materialize() if isinstance(graph, LayeredGraph) else graph


def save_snapshot_store(store: TripleStore, path: Union[str, Path], generation: int = 0) -> Path:
    """Write ``store`` (models and entailment indexes) as one snapshot file.

    Atomic (temp + fsync + rename) and deterministic: the same logical
    content always gives the same bytes. A historized version is saved
    as a reverse delta against the next newer one when that is smaller.
    """
    return write_container(path, generation, store.dictionary, _plans(store))


def write_container(
    path: Union[str, Path],
    generation: int,
    dictionary: TermDictionary,
    plans: Sequence[Plan],
    toc_extra: Optional[Dict[str, object]] = None,
) -> Path:
    """Write ``plans`` as one snapshot container, in id space: the ids
    the runs use, read off the graphs' index keys, are decoded once each,
    sorted by ``sort_key`` (the file's term order) and remapped through
    one flat array; each run streams from its graph's index."""
    path = Path(path)
    used = set()
    for _, runs in plans:
        for _, graph in runs:
            used.update(graph.term_ids())
    term = dictionary.term
    order = sorted(used, key=lambda tid: term(tid).sort_key())
    del used
    remap = array("I", bytes(4 * (max(order) + 1 if order else 0)))
    for new, old in enumerate(order):
        remap[old] = new
    pool, offsets, hashes = build_pool([term(tid) for tid in order])

    tmp = path.with_name(path.name + ".tmp")
    toc_sections: Dict[str, Dict[str, int]] = {}
    try:
        with open(tmp, "wb") as f:
            f.write(b"\0" * HEADER_SIZE)

            def section(name: str, *parts) -> None:
                offset, crc = f.tell(), 0
                for part in parts:
                    crc = zlib.crc32(part, crc)
                    f.write(part)
                toc_sections[name] = {"offset": offset, "length": f.tell() - offset, "crc32": crc}

            section("pool", pool)
            section("offsets", offsets)
            section("hash", hashes)
            del pool, offsets, hashes

            for entry, runs in plans:
                for suffix, graph in runs:
                    distinct = []
                    for run in ("spo", "pos"):
                        levels = graph.sorted_levels(run, remap)
                        distinct.append(len(levels[0]))
                        if run == "pos":
                            distinct.append(len(set(levels[2])))
                        section(f"{entry['key']}{suffix}/{run}", *run_parts(*levels))
                    if suffix:
                        entry.setdefault("delta", {})[suffix[1:]] = {
                            "triples": len(graph),
                            "distinct": distinct,
                        }
                    else:
                        entry["distinct"] = distinct

            toc = json.dumps(
                {
                    "terms": len(order),
                    "sections": toc_sections,
                    "graphs": [entry for entry, _ in plans],
                    **(toc_extra or {}),
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            toc_offset = f.tell()
            f.write(toc)

            header = _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                0,
                generation,
                toc_offset,
                len(toc),
                zlib.crc32(toc),
                0,
            )
            header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))
            f.seek(0)
            f.write(header)
            f.flush()
            os.fsync(f.fileno())
        faults.fire("snapshot.save")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# mapped dictionary


class MappedTermDictionary(TermDictionary):
    """A term dictionary whose base ids live in the mapped string pool.

    Ids ``[0, len(pool))`` decode lazily from the pool (memoized);
    :meth:`intern` still works — new terms get overlay ids above the
    base range, so an attached store can accept writes into
    materialized models without disturbing the mapped graphs.
    """

    __slots__ = ("_pool", "_base", "_cache")

    def __init__(self, pool: MappedStringPool):
        super().__init__()
        self._pool = pool
        self._base = len(pool)
        self._cache: List[Optional[Term]] = [None] * self._base

    def intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = self._pool.find(term)
            if tid is None:
                tid = self._base + len(self._terms)
                self._terms.append(term)
            self._ids[term] = tid
        return tid

    def lookup(self, term: Term) -> Optional[int]:
        tid = self._ids.get(term)
        if tid is None:
            tid = self._pool.find(term)
            if tid is not None:
                self._ids[term] = tid
        return tid

    def term(self, tid: int) -> Term:
        if tid < self._base:
            cached = self._cache[tid]
            if cached is None:
                cached = self._cache[tid] = self._pool.term(tid)
            return cached
        return self._terms[tid - self._base]

    def __len__(self) -> int:
        return self._base + len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return self.lookup(term) is not None

    def __repr__(self) -> str:
        return f"<MappedTermDictionary base={self._base} overlay={len(self._terms)}>"


# ---------------------------------------------------------------------------
# mapped graph


class MappedGraph(FrozenGraph):
    """A read-only graph over mapped runs.

    Supplies the id-level primitives of the read contract
    (:class:`~repro.rdf.graph.ReadableGraph`) by binary-searching the
    SPO and POS runs in place; every term-level read and the planner
    statistics come from the shared implementations, and the read-only
    behaviour from :class:`~repro.rdf.graph.FrozenGraph`.
    """

    __slots__ = ("_snapshot", "_dict", "_spo", "_pos", "_distinct")

    def __init__(
        self,
        snapshot: "MappedSnapshot",
        dictionary: MappedTermDictionary,
        spo: RunReader,
        pos: RunReader,
        size: int,
        distinct: Tuple[int, int, int],
        name: str = "",
        frozen: bool = True,
    ):
        self._snapshot = snapshot  # keeps the mmap alive
        self._dict = dictionary
        self._spo = spo
        self._pos = pos
        self._size = size
        self._distinct = distinct
        super().__init__(name, frozen)

    # -- identity ----------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        return self._dict

    @property
    def generation(self) -> int:
        """The snapshot's generation stamp; constant — mapped graphs
        never mutate, so caches keyed on it stay valid forever."""
        return self._snapshot.generation

    # -- id-space access ----------------------------------------------------

    def triples_ids(self, s=None, p=None, o=None) -> Iterator[Tuple[int, int, int]]:
        if s is not None:
            if p is not None:
                if o is not None:
                    if self._spo.has((s, p, o)):
                        yield (s, p, o)
                    return
                for oo in self._spo.thirds(s, p):
                    yield (s, p, oo)
                return
            if o is not None:
                for pp in self._spo.seconds(s):
                    if self._spo.has((s, pp, o)):
                        yield (s, pp, o)
                return
            yield from self._spo.scan((s,))
            return
        if p is not None:
            if o is not None:
                for ss in self._pos.thirds(p, o):
                    yield (ss, p, o)
                return
            for pp, oo, ss in self._pos.scan((p,)):
                yield (ss, pp, oo)
            return
        if o is not None:
            for pp in self._pos.firsts():
                for ss in self._pos.thirds(pp, o):
                    yield (ss, pp, o)
            return
        yield from self._spo.scan(())

    def has_ids(self, s: int, p: int, o: int) -> bool:
        return self._spo.has((s, p, o))

    def distinct_object_ids(self, p: int) -> Iterable[int]:
        """The second level of ``p``'s POS group: no triple is read."""
        return self._pos.seconds(p)

    def count_ids(self, s=None, p=None, o=None) -> int:
        if s is not None:
            if p is not None:
                if o is not None:
                    return 1 if self._spo.has((s, p, o)) else 0
                return self._spo.count((s, p))
            if o is not None:
                return sum(1 for pp in self._spo.seconds(s) if self._spo.has((s, pp, o)))
            return self._spo.count((s,))
        if p is not None:
            if o is not None:
                return self._pos.count((p, o))
            return self._pos.count((p,))
        if o is not None:
            return sum(self._pos.count((pp, o)) for pp in self._pos.firsts())
        return self._size

    def nodes(self) -> Iterator[Term]:
        """Distinct terms in subject or object position, read off the run
        keys (no triple is visited): the SPO run's first level, then each
        POS group's second level, decoding each node once."""
        term = self._dict.term
        subjects = self._spo.firsts()
        for si in subjects:
            yield term(si)
        seen = set(subjects)
        for p in self._pos.firsts():
            for oi in self._pos.seconds(p):
                if oi not in seen:
                    seen.add(oi)
                    yield term(oi)

    def distinct_subject_count(self) -> int:
        return self._distinct[0]

    def distinct_predicate_count(self) -> int:
        return self._distinct[1]

    def distinct_object_count(self) -> int:
        return self._distinct[2]

    # -- what the snapshot writer reads --------------------------------------

    def term_ids(self) -> Iterable[int]:
        """The run keys: subjects, predicates and each predicate's objects."""
        spo, pos = self._spo.levels(), self._pos.levels()
        return chain(spo[0], pos[0], pos[2])

    def sorted_levels(self, order: str, remap) -> Tuple[array, ...]:
        """The mapped run with its ids remapped in place of a sort: the
        file's ids and the new ones both follow ``sort_key``, so the
        mapping keeps every level ascending."""
        key = remap.__getitem__
        keys1, off1, keys2, off2, ids3 = (self._spo if order == "spo" else self._pos).levels()
        return (
            array("I", map(key, keys1)),
            array("I", off1),
            array("I", map(key, keys2)),
            array("I", off2),
            array("I", map(key, ids3)),
        )


# ---------------------------------------------------------------------------
# mapped snapshot


def _first_crc_mismatch(buf: memoryview, sections: Dict[str, Dict]) -> Optional[str]:
    """The name of the first section whose CRC32 differs from the TOC's,
    or None. Reads the mapping in place: no section is copied."""
    for name, sec in sorted(sections.items()):
        with buf[sec["offset"] : sec["offset"] + sec["length"]] as view:
            if zlib.crc32(view) != sec["crc32"]:
                return name
    return None


def build_store(
    graphs: Sequence[Tuple[Dict[str, object], ReadableGraph]],
    mutable_models: Optional[Sequence[str]] = None,
) -> TripleStore:
    """A :class:`TripleStore` over ``(TOC entry, graph)`` pairs.
    ``mutable_models``: ``None`` materializes the models saved unfrozen
    (a faithful round-trip), names materialize exactly those, ``()``
    keeps everything read-only (the cheap attach used for serving)."""
    store = TripleStore()
    for entry, graph in graphs:
        if entry["kind"] != "model":
            continue
        materialize = (
            not entry["frozen"] if mutable_models is None else entry["model"] in mutable_models
        )
        store.adopt_model(entry["model"], graph.materialize() if materialize else graph)
    for entry, graph in graphs:
        if entry["kind"] == "index":
            store.attach_index(entry["model"], entry["rulebase"], graph)
    return store


class MappedSnapshot:
    """One open snapshot file: header, TOC, pool, and graph accessors.

    The one reader of every container: full files, files holding
    versions as deltas, and delta segments.
    """

    def __init__(self, path: Path, file, mm, buf, generation: int, toc: Dict):
        self._path = path
        self._file = file
        self._mmap = mm
        self._buf = buf
        self.generation = generation
        self._toc = toc
        self._dict: Optional[MappedTermDictionary] = None
        self._graphs: Dict[str, ReadableGraph] = {}
        self._resolving: set = set()
        self._readers: List[RunReader] = []

    @classmethod
    def open(cls, path: Union[str, Path]) -> "MappedSnapshot":
        """Map and validate a snapshot file: the header, TOC and every
        section CRC are checked, so a corrupt file never answers.
        Nothing decodes."""
        path = Path(path)
        faults.fire("snapshot.attach")
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise StorageError(
                f"{path}: cannot open as a snapshot file ({exc.strerror})"
            ) from None
        try:
            size = os.fstat(f.fileno()).st_size
            if size < HEADER_SIZE:
                raise SnapshotFormatError(
                    f"{path}: file too small for a snapshot header ({size} bytes)"
                )
            mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            f.close()
            raise
        buf = None
        try:
            buf = memoryview(mm)
            (
                magic,
                version,
                _flags,
                generation,
                toc_offset,
                toc_length,
                toc_crc,
                header_crc,
            ) = _HEADER.unpack_from(buf, 0)
            if magic != MAGIC:
                raise SnapshotFormatError(f"{path}: not a snapshot file (bad magic)")
            if zlib.crc32(bytes(buf[: HEADER_SIZE - 4])) != header_crc:
                raise SnapshotFormatError(f"{path}: header checksum mismatch")
            if version != FORMAT_VERSION:
                raise SnapshotFormatError(
                    f"{path}: snapshot format {version} unsupported "
                    f"(this build reads {FORMAT_VERSION})"
                )
            if toc_offset + toc_length > size:
                raise SnapshotFormatError(f"{path}: truncated file (TOC out of bounds)")
            toc_bytes = bytes(buf[toc_offset : toc_offset + toc_length])
            if zlib.crc32(toc_bytes) != toc_crc:
                raise SnapshotFormatError(f"{path}: TOC checksum mismatch")
            try:
                toc = json.loads(toc_bytes)
            except json.JSONDecodeError as exc:
                raise SnapshotFormatError(f"{path}: corrupt TOC: {exc}") from None
            for name, sec in toc["sections"].items():
                if sec["offset"] + sec["length"] > size:
                    raise SnapshotFormatError(
                        f"{path}: truncated file (section {name!r} out of bounds)"
                    )
            bad = _first_crc_mismatch(buf, toc["sections"])
            if bad is not None:
                raise SnapshotFormatError(f"{path}: section {bad!r} checksum mismatch")
            return cls(path, f, mm, buf, generation, toc)
        except BaseException:
            if buf is not None:
                buf.release()
            mm.close()
            f.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the mapping. Graphs handed out earlier must not be
        used afterwards; normally the mapping just lives as long as
        they do. Idempotent."""
        for reader in self._readers:
            reader.release()
        self._readers.clear()
        self._graphs.clear()
        self._dict = None
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def base_generation(self) -> Optional[int]:
        """The generation a delta segment applies to; None for a snapshot."""
        return self._toc.get("base_generation")

    # -- accessors ---------------------------------------------------------

    def _section(self, name: str) -> Dict[str, int]:
        try:
            return self._toc["sections"][name]
        except KeyError:
            raise SnapshotFormatError(
                f"{self._path}: TOC names no section {name!r}"
            ) from None

    @property
    def dictionary(self) -> MappedTermDictionary:
        if self._dict is None:
            pool = self._section("pool")
            offsets = self._section("offsets")
            hashes = self._section("hash")
            self._dict = MappedTermDictionary(
                MappedStringPool(
                    self._buf,
                    pool["offset"],
                    pool["length"],
                    offsets["offset"],
                    offsets["length"],
                    hashes["offset"],
                    hashes["length"],
                )
            )
        return self._dict

    def graph_entries(self) -> List[Dict[str, object]]:
        return list(self._toc["graphs"])

    def _entry(self, key: str) -> Dict[str, object]:
        entry = next((g for g in self._toc["graphs"] if g["key"] == key), None)
        if entry is None:
            raise SnapshotFormatError(f"{self._path}: no graph {key!r} in snapshot")
        return entry

    def _runs(self, prefix: str, counts: Dict, name: str, frozen: bool = True) -> MappedGraph:
        """The :class:`MappedGraph` over the runs ``prefix/spo`` and
        ``prefix/pos``."""
        readers = []
        for order in ("spo", "pos"):
            sec = self._section(f"{prefix}/{order}")
            readers.append(RunReader(self._buf, sec["offset"], sec["length"], counts["triples"]))
            self._readers.append(readers[-1])
        return MappedGraph(
            self,
            self.dictionary,
            *readers,
            size=counts["triples"],
            distinct=tuple(counts["distinct"]),
            name=name,
            frozen=frozen,
        )

    def delta(self, key: str) -> Tuple[MappedGraph, MappedGraph]:
        """The ``(added, removed)`` runs of the delta entry ``key``."""
        entry = self._entry(key)
        if "delta" not in entry:
            raise SnapshotFormatError(f"{self._path}: graph {key!r} is not a delta")
        return tuple(
            self._runs(f"{key}/{half}", entry["delta"][half], half) for half in ("added", "removed")
        )

    def graph(self, key: str) -> ReadableGraph:
        cached = self._graphs.get(key)
        if cached is not None:
            return cached
        entry = self._entry(key)
        name = (
            entry["model"]
            if entry["kind"] == "model"
            else f"{entry['model']}[{entry['rulebase']}]"
        )
        if "delta" not in entry:
            graph = self._runs(key, entry, name, bool(entry["frozen"]))
        else:
            base_key = entry.get("base")
            if base_key is None:
                raise SnapshotFormatError(
                    f"{self._path}: delta {key!r} applies to another file (a segment)"
                )
            if key in self._resolving:
                raise SnapshotFormatError(f"{self._path}: the delta chain of {key!r} loops")
            self._resolving.add(key)
            try:
                base = self.graph(base_key)
            finally:
                self._resolving.discard(key)
            graph = LayeredGraph(base, *self.delta(key), name=name, frozen=bool(entry["frozen"]))
        self._graphs[key] = graph
        return graph

    def graphs(self) -> List[Tuple[Dict[str, object], ReadableGraph]]:
        """Every ``(TOC entry, graph)`` of the file, in TOC order."""
        return [(entry, self.graph(entry["key"])) for entry in self._toc["graphs"]]

    def store(self, mutable_models: Optional[Sequence[str]] = None) -> TripleStore:
        """A :class:`TripleStore` over the file's graphs (see
        :func:`build_store` for ``mutable_models``)."""
        return build_store(self.graphs(), mutable_models)

    # -- inspection --------------------------------------------------------

    def verify(self) -> bool:
        """Recompute every section CRC; False on the first mismatch.
        :meth:`open` already checked them, so this only catches a file
        rewritten in place under the mapping."""
        return _first_crc_mismatch(self._buf, self._toc["sections"]) is None

    def info(self) -> Dict[str, object]:
        graphs = []
        for g in self._toc["graphs"]:
            row = {k: g[k] for k in ("key", "kind", "model", "rulebase", "triples", "frozen")}
            if "delta" in g:
                row["delta"] = {half: g["delta"][half]["triples"] for half in ("added", "removed")}
                row["base"] = g.get("base")
            graphs.append(row)
        info = {
            "path": str(self._path),
            "format_version": FORMAT_VERSION,
            "generation": self.generation,
            "file_size": os.path.getsize(self._path),
            "terms": self._toc["terms"],
            "sections": sorted(self._toc["sections"]),
            "graphs": graphs,
        }
        if self.base_generation is not None:
            info["base_generation"] = self.base_generation
        return info

    def __repr__(self) -> str:
        return (
            f"<MappedSnapshot {str(self._path)!r} gen={self.generation} "
            f"graphs={len(self._toc['graphs'])}>"
        )
