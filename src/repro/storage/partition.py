"""Deterministic hash partitioner for sharded serving.

The sharded serving topology (:mod:`repro.server.sharding`) splits one
warehouse model across N shard stores so each shard process scans only
``1/N`` of the fact graph. The split follows the federation pattern of
ontology-based warehouse integration: the *small* ontology — class and
property declarations, the hierarchy, labels, world assignments, and
the value-level thesaurus — is **replicated** to every shard, while
instance facts are **routed** by a stable hash, one *lineage component*
at a time:

* every item of a weakly connected ``dt:isMappedTo`` component lands on
  shard :func:`shard_of` of its representative (the member with the
  smallest ``n3()``) and a reified mapping node follows its source, so
  a Listing-2 trace, either direction and any depth, reads one shard
  and runs the same :meth:`~repro.services.lineage.LineageService.trace`
  a single node runs;
* every other instance is placed by :func:`shard_of` of itself, with
  all of its triples, so point lookups are single-shard operations.

:meth:`ShardPlan.owner_of` is the one placement rule: the partitioner
places by it and the gateway routes by it. Components here hold a few
hundred items at most; one that held half the graph would still answer
correctly, only with uneven shards. Entailment-index graphs are
partitioned by the same rule and re-attached per shard.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import DM, DT, OWL, RDF, RDFS
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term, Triple

__all__ = [
    "ShardPlan",
    "changed_shards",
    "partition_store",
    "shard_filename",
    "shard_of",
    "write_shard_snapshots",
]

#: rdf:type objects that declare a subject to be ontology, not data.
_ONTOLOGY_TYPES = (
    OWL.term("Class"),
    RDFS.term("Class"),
    RDF.term("Property"),
    OWL.term("ObjectProperty"),
    OWL.term("DatatypeProperty"),
)

#: Namespace prefixes whose subjects are vocabulary/ontology by
#: construction (schema classes, transfer vocabulary, W3C terms).
_ONTOLOGY_PREFIXES = (
    DM.base,
    DT.base,
    RDF.base,
    RDFS.base,
    OWL.base,
    "http://www.credit-suisse.com/dwh/mdm/warehouse#",  # MDW areas/levels
)


def shard_of(term: Term, n_shards: int) -> int:
    """The owning shard of ``term`` — a pure function of its lexical form.

    CRC-32 of the N3 serialization modulo the shard count: stable across
    processes, Python versions, and restarts (unlike ``hash()``, which
    is salted per process for strings).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return zlib.crc32(term.n3().encode("utf-8")) % n_shards


def shard_filename(index: int, n_shards: int) -> str:
    """Canonical snapshot file name of shard ``index``."""
    return f"shard-{index}-of-{n_shards}.mdws"


def _placement_keys(model_graph: Graph) -> Dict[Term, Term]:
    """Mapped item or mapping node → the term its shard is hashed from.

    Union-find over the ``isMappedTo`` edges, always keeping the smaller
    ``n3()`` as the root, so every component's root is its
    representative; mapping nodes then take their source's key.
    """
    from repro.core.vocabulary import TERMS  # runtime: avoid layering cycle

    parent: Dict[Term, Term] = {}

    def root(term: Term) -> Term:
        parent.setdefault(term, term)
        while parent[term] != term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    for edge in model_graph.triples(None, TERMS.is_mapped_to, None):
        a, b = root(edge.subject), root(edge.object)
        if a != b:
            if b.n3() < a.n3():
                a, b = b, a
            parent[b] = a
    keys = {term: root(term) for term in parent}
    for link in model_graph.triples(None, TERMS.has_mapping, None):
        keys[link.object] = keys.get(link.subject, link.subject)
    return keys


@dataclass
class ShardPlan:
    """The outcome of one deterministic partitioning run."""

    model: str
    n_shards: int
    stores: List[TripleStore] = field(default_factory=list)
    #: triples copied to every shard (the ontology + thesaurus)
    replicated_triples: int = 0
    #: triples placed on exactly one shard (instance facts)
    routed_triples: int = 0
    #: lineage placement: mapped item or mapping node → hashed term
    keys: Dict[Term, Term] = field(default_factory=dict, repr=False)

    def owner_of(self, term: Term) -> int:
        """The shard holding ``term``'s facts — for a mapped item, its
        whole ``isMappedTo`` component."""
        return shard_of(self.keys.get(term, term), self.n_shards)


def _router(model_graph: Graph, plan: ShardPlan) -> Callable[[Triple], Optional[int]]:
    """Triple → its owning shard index, or ``None`` for replicate-everywhere."""
    from repro.core.vocabulary import TERMS  # runtime: avoid layering cycle

    ontology: Set[Term] = set()
    for declared in _ONTOLOGY_TYPES:
        ontology.update(model_graph.subjects(RDF.term("type"), declared))
    # the value-level thesaurus: search expands on every shard with the
    # same synonym set
    replicated_predicates = {TERMS.synonym_of, TERMS.homonym_of}

    def shard(triple: Triple) -> Optional[int]:
        subject = triple.subject
        if triple.predicate in replicated_predicates or subject in ontology:
            return None
        value = getattr(subject, "value", None)
        if isinstance(value, str) and value.startswith(_ONTOLOGY_PREFIXES):
            return None
        return plan.owner_of(subject)

    return shard


def _split(triples, parts: Sequence[Graph], shard) -> int:
    """Add each triple to its shard's part, or to every part when it is
    replicated; returns how many were routed to one part."""
    routed = 0
    for triple in triples:
        target = shard(triple)
        if target is None:
            for part in parts:
                part.add(triple)
        else:
            routed += 1
            parts[target].add(triple)
    return routed


def partition_store(
    store: TripleStore, n_shards: int, model: str
) -> ShardPlan:
    """Split ``model`` (and its entailment indexes) into N shard stores.

    Deterministic: the same logical store content always yields the same
    per-shard content, so two gateways partitioning the same release
    agree on placement and :func:`write_shard_snapshots` produces
    byte-identical files.
    """
    source = store.model(model)
    plan = ShardPlan(
        model=model,
        n_shards=n_shards,
        stores=[TripleStore() for _ in range(n_shards)],
        keys=_placement_keys(source),
    )
    shard = _router(source, plan)
    graphs = [shard_store.create_model(model) for shard_store in plan.stores]
    plan.routed_triples = _split(source.triples(), graphs, shard)
    plan.replicated_triples = len(source) - plan.routed_triples

    for index_model, rulebase in store.index_names(model):
        derived = store.index(index_model, rulebase)
        if derived is None:
            continue
        parts = [Graph(name=f"{model}/{rulebase}") for _ in range(n_shards)]
        _split(derived.triples(), parts, shard)
        for shard_store, part in zip(plan.stores, parts):
            shard_store.attach_index(model, rulebase, part)

    return plan


def write_shard_snapshots(
    plan: ShardPlan,
    directory: Union[str, Path],
    generation: int = 0,
) -> List[Path]:
    """Write one ``.mdws`` snapshot per shard into ``directory``.

    File names follow :func:`shard_filename`; each file is the
    deterministic :func:`~repro.storage.snapshot.save_snapshot_store`
    format, so a shard file attaches exactly like an unsharded snapshot
    and a re-partition of identical content produces byte-identical
    files.
    """
    from repro.storage.snapshot import save_snapshot_store

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for index, shard_store in enumerate(plan.stores):
        path = directory / shard_filename(index, plan.n_shards)
        save_snapshot_store(shard_store, path, generation=generation)
        paths.append(path)
    return paths


def changed_shards(old: ShardPlan, new: ShardPlan) -> List[int]:
    """Shard indexes whose content differs between two plans.

    The rebalance path partitions the post-release store and replaces
    only these shards — the incremental-release delta touches few
    subjects, and hash placement is sticky, so most shards are
    byte-identical and keep serving without a restart. A delta that
    joins or splits lineage components may move a component, which
    changes both the shard it left and the shard it joined.
    """
    if old.n_shards != new.n_shards:
        return list(range(new.n_shards))
    from repro.storage.segments import diff_stores

    changed: List[int] = []
    for index in range(new.n_shards):
        if diff_stores(old.stores[index], new.stores[index]):
            changed.append(index)
    return changed
