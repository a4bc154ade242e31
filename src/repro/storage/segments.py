"""Delta segments: publish release N+1 as O(delta) bytes.

A segment is a snapshot container (:mod:`repro.storage.snapshot`)
holding one delta entry per changed graph — the rows a release added
and removed, as ordinary runs — with only the delta's terms in its pool
and the ``base_generation`` it applies to in its TOC. Attach layers a
chain of them over the base snapshot (:func:`apply_segments`); a full
save of the result is bit-identical to a full save of the final state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.history.diff import VersionDiff, diff_graphs
from repro.rdf.graph import Graph, LayeredGraph, ReadableGraph
from repro.rdf.store import TripleStore
from repro.storage.codec import SnapshotFormatError
from repro.storage.snapshot import MappedSnapshot, build_store, graph_entry, write_container


def diff_stores(old: TripleStore, new: TripleStore) -> List[Tuple[Dict[str, object], VersionDiff]]:
    """Per-graph deltas between two stores sharing one id space, each
    with the TOC entry of its graph in ``new``: models, then indexes, by
    key; a graph on one side only diffs against an empty graph."""
    def graph(store: TripleStore, model: str, rulebase: Optional[str]) -> ReadableGraph:
        found = store.index(model, rulebase) if rulebase else (
            store.model(model) if store.has_model(model) else None)
        return Graph(dictionary=store.dictionary) if found is None else found

    keys = [(name, None) for name in sorted(set(old.model_names()) | set(new.model_names()))]
    keys += sorted(set(old.index_names()) | set(new.index_names()))
    deltas = []
    for model, rulebase in keys:
        after = graph(new, model, rulebase)
        diff = diff_graphs(graph(old, model, rulebase), after)
        if not diff.is_empty:
            kind = "index" if rulebase else "model"
            deltas.append((graph_entry(kind, model, rulebase, after), diff))
    return deltas


def publish_segment(old: TripleStore, new: TripleStore, path: Union[str, Path],
                    base_generation: int, generation: int) -> Path:
    """Diff two stores and write the delta as one segment file."""
    plans = [
        (entry, [("/added", diff.added), ("/removed", diff.removed)])
        for entry, diff in diff_stores(old, new)
    ]
    toc_extra = {"base_generation": base_generation}
    return write_container(path, generation, new.dictionary, plans, toc_extra)


def apply_segments(
    snapshot: MappedSnapshot,
    segments: Sequence[Union[str, Path]],
    mutable_models: Optional[Sequence[str]] = None,
) -> TripleStore:
    """The store of ``snapshot`` with a chain of segments layered on top.

    Each segment must be based on the running generation. Its terms are
    interned once into the snapshot's dictionary and each entry becomes
    a :class:`~repro.rdf.graph.LayeredGraph` over the graph of the same
    key (an empty one for a graph it creates), without the rows the base
    already agrees with, so counts stay exact. ``mutable_models`` (see
    :func:`~repro.storage.snapshot.build_store`) materialize afterwards.
    """
    dictionary = snapshot.dictionary
    graphs = {entry["key"]: (entry, graph) for entry, graph in snapshot.graphs()}
    current = snapshot.generation
    for path in segments:
        segment = MappedSnapshot.open(path)
        try:
            if segment.base_generation is None:
                raise SnapshotFormatError(f"{path}: not a delta segment (no base generation)")
            if segment.base_generation != current:
                raise SnapshotFormatError(
                    f"segment chain broken: segment is based on generation "
                    f"{segment.base_generation}, store is at {current}"
                )
            terms = segment.dictionary
            ids = [dictionary.intern(terms.term(tid)) for tid in range(len(terms))]
            for entry in segment.graph_entries():
                added, removed = segment.delta(entry["key"])
                _, base = graphs.get(entry["key"], (None, None))
                if base is None:
                    base = Graph(dictionary=dictionary)
                added = _rows_in(added, ids, base, False)
                removed = _rows_in(removed, ids, base, True)
                layered = LayeredGraph(base, added, removed, frozen=entry["frozen"])
                graphs[entry["key"]] = (entry, layered)
            current = segment.generation
        finally:
            segment.close()
    return build_store(list(graphs.values()), mutable_models)


def _rows_in(half: ReadableGraph, ids: List[int], base: ReadableGraph, in_base: bool) -> Graph:
    """``half``'s rows in the store's ids, keeping those whose presence
    in ``base`` is ``in_base``; frozen."""
    rows = ((ids[s], ids[p], ids[o]) for s, p, o in half.triples_ids())
    return Graph.from_ids(
        (row for row in rows if base.has_ids(*row) == in_base), base.dictionary
    ).freeze()
