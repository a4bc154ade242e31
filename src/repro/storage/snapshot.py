"""Binary snapshot files: atomic save, mmap attach, lazy graphs.

File layout::

    [48-byte header][sections...][JSON table of contents]

The header (``<8sIIQQQII``) carries the magic, format version, flags,
generation stamp, the TOC's offset/length/CRC, and its own CRC — enough
to reject truncation, corruption, and version skew before trusting a
byte of the body; attach then checks every section's CRC as well. Sections are the shared string pool (pool / offsets /
hash, see :mod:`repro.storage.stringpool`) plus three fixed-width CSR
triple runs (SPO, POS, OSP) per graph, see :mod:`repro.storage.codec`;
the TOC names every section with its offset, length, and CRC32, and
describes every graph (model or entailment index, triple and distinct
counts, frozen flag).

Saves go to a sibling temp file, ``fsync``, then ``os.replace`` — a
crash mid-save leaves the previous snapshot untouched (the
``snapshot.save`` fault site fires between fsync and rename, and
``tests/storage/test_snapshot.py`` asserts exactly this).

Attach (:meth:`MappedSnapshot.open`) maps the file and hands out
:class:`MappedGraph` objects that answer the graph read contract
(:class:`~repro.rdf.graph.ReadableGraph`) straight from the mapped runs —
no triple is ever decoded, and term ids are shared across every graph
through one :class:`MappedTermDictionary`, so the id-space join
operators and ``GraphView`` disjointness reasoning keep working.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph, ReadableGraph, ReadOnlyGraphError
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.resilience import faults
from repro.storage.codec import RunReader, SnapshotFormatError, StorageError, encode_run
from repro.storage.stringpool import MappedStringPool, build_pool

MAGIC = b"MDWSNAP\x01"
FORMAT_VERSION = 2

#: magic, format_version, flags, generation, toc_offset, toc_length,
#: toc_crc32, header_crc32
_HEADER = struct.Struct("<8sIIQQQII")
HEADER_SIZE = _HEADER.size


# ---------------------------------------------------------------------------
# save


def _graph_entries(store: TripleStore) -> List[Tuple[str, str, str, Optional[str], Graph]]:
    """Deterministic (key, kind, model, rulebase, graph) list of a store."""
    out: List[Tuple[str, str, str, Optional[str], Graph]] = []
    for name in store.model_names():
        out.append((f"model:{name}", "model", name, None, store.model(name)))
    for model, rulebase in store.index_names():
        graph = store.index(model, rulebase)
        out.append((f"index:{model}:{rulebase}", "index", model, rulebase, graph))
    return out


def save_snapshot_store(
    store: TripleStore, path: Union[str, Path], generation: int = 0
) -> Path:
    """Write ``store`` (models and entailment indexes) as one snapshot file.

    The write is atomic (temp + fsync + rename) and deterministic: the
    same logical store content always produces byte-identical files, so
    delta-segment replay can be verified against a full save.
    """
    path = Path(path)
    entries = _graph_entries(store)

    # Remap every dictionary id to a dense, sort_key-ordered id space
    # shared by all graphs; this is what makes saves deterministic even
    # when stores were built in different interning orders.
    unique: Dict[Term, None] = {}
    per_graph_ids: List[List[Tuple[int, int, int]]] = []
    for _, _, _, _, graph in entries:
        rows = list(graph.triples_ids())
        per_graph_ids.append(rows)
        term = graph.dictionary.term
        for s, p, o in rows:
            unique.setdefault(term(s), None)
            unique.setdefault(term(p), None)
            unique.setdefault(term(o), None)
    terms = sorted(unique, key=lambda t: t.sort_key())
    new_id = {t: i for i, t in enumerate(terms)}
    pool, offsets, hashes = build_pool(terms)

    tmp = path.with_name(path.name + ".tmp")
    toc_sections: Dict[str, Dict[str, int]] = {}
    toc_graphs: List[Dict[str, object]] = []
    try:
        with open(tmp, "wb") as f:
            f.write(b"\0" * HEADER_SIZE)

            def section(name: str, data: bytes) -> None:
                toc_sections[name] = {
                    "offset": f.tell(),
                    "length": len(data),
                    "crc32": zlib.crc32(data),
                }
                f.write(data)

            section("pool", pool)
            section("offsets", offsets)
            section("hash", hashes)

            for (key, kind, model, rulebase, graph), old_rows in zip(
                entries, per_graph_ids
            ):
                term = graph.dictionary.term
                remap: Dict[int, int] = {}

                def rid(old: int) -> int:
                    tid = remap.get(old)
                    if tid is None:
                        tid = remap[old] = new_id[term(old)]
                    return tid

                rows = [(rid(s), rid(p), rid(o)) for s, p, o in old_rows]
                spo = sorted(rows)
                pos = sorted((p, o, s) for s, p, o in rows)
                osp = sorted((o, s, p) for s, p, o in rows)
                distinct = []
                for order, run in (("spo", spo), ("pos", pos), ("osp", osp)):
                    data = encode_run(run)
                    section(f"{key}/{order}", data)
                    # the header's first count: the run's first-level length
                    distinct.append(int.from_bytes(data[:4], "little"))
                toc_graphs.append(
                    {
                        "key": key,
                        "kind": kind,
                        "model": model,
                        "rulebase": rulebase,
                        "frozen": bool(graph.frozen),
                        "triples": len(rows),
                        "distinct": distinct,
                    }
                )

            toc = json.dumps(
                {
                    "terms": len(terms),
                    "sections": toc_sections,
                    "graphs": toc_graphs,
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


class MappedGraph(ReadableGraph):
    """A read-only graph over mapped runs.

    Supplies the id-level primitives of the read contract
    (:class:`~repro.rdf.graph.ReadableGraph`) by binary-searching the
    three runs in place; every term-level read and the planner
    statistics come from the shared implementations. Mutators raise
    :class:`~repro.rdf.graph.ReadOnlyGraphError`; callers that need a
    writable graph call :meth:`materialize`.
    """

    __slots__ = (
        "_snapshot",
        "_dict",
        "_spo",
        "_pos",
        "_osp",
        "_size",
        "_distinct",
        "_stats",
        "_count_cache",
        "_count_cache_gen",
        "_frozen",
        "name",
    )

    def __init__(
        self,
        snapshot: "MappedSnapshot",
        dictionary: MappedTermDictionary,
        spo: RunReader,
        pos: RunReader,
        osp: RunReader,
        size: int,
        distinct: Tuple[int, int, int],
        name: str = "",
        frozen: bool = True,
    ):
        self._snapshot = snapshot  # keeps the mmap alive
        self._dict = dictionary
        self._spo = spo
        self._pos = pos
        self._osp = osp
        self._size = size
        self._distinct = distinct
        self._stats = None
        self._count_cache: Dict[tuple, int] = {}
        self._count_cache_gen = snapshot.generation
        self._frozen = frozen
        self.name = name

    # -- identity ----------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        return self._dict

    @property
    def generation(self) -> int:
        """The snapshot's generation stamp; constant — mapped graphs
        never mutate, so caches keyed on it stay valid forever."""
        return self._snapshot.generation

    @property
    def frozen(self) -> bool:
        """The *saved* frozen flag — round-trips through re-save. The
        graph itself refuses mutation regardless (it is mapped)."""
        return self._frozen

    def freeze(self) -> "MappedGraph":
        self._frozen = True
        return self

    def subscribe(self, listener) -> None:
        """Accepted and ignored: a mapped graph never emits changes."""

    def unsubscribe(self, listener) -> None:
        pass

    # -- mutation (refused) ------------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise ReadOnlyGraphError(
            f"graph {self.name!r} is a mapped snapshot (read-only); "
            "materialize() it for a writable copy"
        )

    add = add_all = remove = discard = remove_pattern = clear = _read_only

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
                for pp in self._osp.thirds(o, s):
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
            for oo, ss, pp in self._osp.scan((o,)):
                yield (ss, pp, oo)
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
                return self._osp.count((o, s))
            return self._spo.count((s,))
        if p is not None:
            if o is not None:
                return self._pos.count((p, o))
            return self._pos.count((p,))
        if o is not None:
            return self._osp.count((o,))
        return self._size

    def stats(self):
        """The graph's :class:`~repro.rdf.stats.StatsCatalog`."""
        if self._stats is None:
            from repro.rdf.stats import StatsCatalog

            self._stats = StatsCatalog(self)
        return self._stats

    def distinct_subject_count(self) -> int:
        return self._distinct[0]

    def distinct_predicate_count(self) -> int:
        return self._distinct[1]

    def distinct_object_count(self) -> int:
        return self._distinct[2]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<MappedGraph{label} size={self._size}>"

    # -- copies ------------------------------------------------------------

    def materialize(self, name: str = "") -> Graph:
        """A mutable in-memory :class:`Graph` sharing this graph's
        dictionary, built from the id triples — no term objects are
        built."""
        return Graph.from_ids(self.triples_ids(), self._dict, name=name or self.name)

    copy = materialize

    def cow_copy(self, name: str = "") -> "MappedGraph":
        """Snapshot publication calls this; a mapped graph is already an
        immutable snapshot of itself, so it is its own CoW copy."""
        return self


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


class MappedSnapshot:
    """One open snapshot file: header, TOC, pool, and graph accessors."""

    def __init__(self, path: Path, file, mm, buf, generation: int, toc: Dict):
        self._path = path
        self._file = file
        self._mmap = mm
        self._buf = buf
        self.generation = generation
        self._toc = toc
        self._dict: Optional[MappedTermDictionary] = None
        self._graphs: Dict[str, MappedGraph] = {}
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

    def graph(self, key: str) -> MappedGraph:
        cached = self._graphs.get(key)
        if cached is not None:
            return cached
        entry = next((g for g in self._toc["graphs"] if g["key"] == key), None)
        if entry is None:
            raise SnapshotFormatError(f"{self._path}: no graph {key!r} in snapshot")
        readers = []
        for order in ("spo", "pos", "osp"):
            sec = self._section(f"{key}/{order}")
            readers.append(
                RunReader(self._buf, sec["offset"], sec["length"], entry["triples"])
            )
            self._readers.append(readers[-1])
        name = (
            entry["model"]
            if entry["kind"] == "model"
            else f"{entry['model']}[{entry['rulebase']}]"
        )
        graph = MappedGraph(
            self,
            self.dictionary,
            *readers,
            size=entry["triples"],
            distinct=tuple(entry["distinct"]),
            name=name,
            frozen=bool(entry["frozen"]),
        )
        self._graphs[key] = graph
        return graph

    def store(self, mutable_models: Optional[Sequence[str]] = None) -> TripleStore:
        """Build a :class:`TripleStore` over the mapped graphs.

        ``mutable_models``: ``None`` (default) materializes exactly the
        models that were saved unfrozen — a faithful round-trip; an
        iterable of names materializes exactly those; ``()`` keeps
        everything mapped and read-only (the cheap attach used for
        serving).
        """
        store = TripleStore()
        for entry in self._toc["graphs"]:
            if entry["kind"] != "model":
                continue
            graph = self.graph(entry["key"])
            materialize = (
                not entry["frozen"]
                if mutable_models is None
                else entry["model"] in mutable_models
            )
            store.adopt_model(
                entry["model"], graph.materialize() if materialize else graph
            )
        for entry in self._toc["graphs"]:
            if entry["kind"] != "index":
                continue
            store.attach_index(
                entry["model"], entry["rulebase"], self.graph(entry["key"])
            )
        return store

    # -- inspection --------------------------------------------------------

    def verify(self) -> bool:
        """Recompute every section CRC; False on the first mismatch.
        :meth:`open` already checked them, so this only catches a file
        rewritten in place under the mapping."""
        return _first_crc_mismatch(self._buf, self._toc["sections"]) is None

    def info(self) -> Dict[str, object]:
        return {
            "path": str(self._path),
            "format_version": FORMAT_VERSION,
            "generation": self.generation,
            "file_size": os.path.getsize(self._path),
            "terms": self._toc["terms"],
            "graphs": [
                {
                    "key": g["key"],
                    "kind": g["kind"],
                    "model": g["model"],
                    "rulebase": g["rulebase"],
                    "triples": g["triples"],
                    "frozen": g["frozen"],
                }
                for g in self._toc["graphs"]
            ],
        }

    def __repr__(self) -> str:
        return (
            f"<MappedSnapshot {str(self._path)!r} gen={self.generation} "
            f"graphs={len(self._toc['graphs'])}>"
        )
