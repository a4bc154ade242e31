"""Benchmark inputs: the landscape, its fingerprint, the op lists and the
release states — everything derived from ``--seed`` inside this directory.

The landscape itself always comes from ``repro.synth`` with seed 2009 (it
is the *data*, fingerprinted below so a changed generator is noticed);
``--seed`` decides which items and terms are queried and in what order.

Seeds resample, but only inside cost-homogeneous strata: picking 12 search
terms at random out of a vocabulary whose hit counts span 5x moves a
search p50 by more than any bound this benchmark gates on, so every pool
is ranked by a cost proxy, cut to its middle half, and one member is drawn
from each of k equal strata. Different seeds query different things; the
round's total work stays put.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.vocabulary import TERMS
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Triple
from repro.synth import LandscapeConfig, generate_landscape

from . import queries

LANDSCAPE_SEED = 2009

#: share of the model's triples a synthetic release changes
CHURN_FRACTION = 0.02

_RELEASE_NS = "http://www.credit-suisse.com/dwh/release_delta/"


def landscape_config(scale: str) -> LandscapeConfig:
    """The generator preset for a scale name (``paper/2`` halves the
    paper preset's application count, and with it nodes and edges)."""
    name, _, divisor = scale.partition("/")
    presets = {
        "tiny": LandscapeConfig.tiny,
        "medium": LandscapeConfig.medium,
        "paper": LandscapeConfig.paper_scale,
    }
    config = presets[name](seed=LANDSCAPE_SEED)
    if divisor:
        config = replace(config, applications=config.applications // int(divisor))
    return config


def build_landscape(scale: str, recorder):
    """Generate the landscape and its OWLPRIME index; returns the
    warehouse and the index build report."""
    with recorder.span("synth.generate", scale=scale):
        warehouse = generate_landscape(landscape_config(scale)).warehouse
    with recorder.span("reasoning.build_index"):
        report = warehouse.build_entailment_index()
    return warehouse, report


def names_of(graph) -> List[str]:
    return [
        t.object.lexical
        for t in graph.triples(None, TERMS.has_name, None)
        if isinstance(t.object, Literal)
    ]


def fingerprint(warehouse) -> Dict[str, int]:
    """What identifies the generated data: sizes plus a CRC over the
    sorted ``dm:hasName`` values."""
    stats = warehouse.statistics()
    index = warehouse.store.index(warehouse.model_name, "OWLPRIME")
    names = "\n".join(sorted(names_of(warehouse.graph)))
    return {
        "nodes": stats.nodes,
        "edges": stats.edges,
        "triples": len(warehouse.graph),
        "derived_triples": len(index) if index is not None else 0,
        "names_crc32": zlib.crc32(names.encode("utf-8")),
    }


# -- stratified sampling -----------------------------------------------------


def stratified_pick(costed: Sequence[Tuple[object, float]], k: int, rng: random.Random) -> List:
    """``k`` members of ``costed`` ((key, cost) pairs): the pool is
    ranked by cost, cut to its middle half, split into ``k`` equal
    strata, and one member drawn from each. Pools smaller than ``k``
    are cycled."""
    ranked = sorted(costed, key=lambda pair: (pair[1], str(pair[0])))
    quarter = len(ranked) // 4
    core = [key for key, _ in ranked[quarter : len(ranked) - quarter]] or [
        key for key, _ in ranked
    ]
    if not core:
        raise ValueError("empty pool")
    picks = []
    for i in range(k):
        lo = i * len(core) // k
        hi = max(lo + 1, (i + 1) * len(core) // k)
        picks.append(core[(lo + rng.randrange(hi - lo)) % len(core)])
    return picks


def thinned(items: List, limit: int) -> List:
    """At most ``limit`` members, evenly spaced (input must be sorted)."""
    if len(items) <= limit:
        return items
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


# -- pools -------------------------------------------------------------------


def term_pool(graph) -> List[Tuple[str, int]]:
    """Search terms with their cost proxy: alphabetic name tokens of at
    least five letters, costed by how many names carry them."""
    counts = Counter(
        token
        for name in names_of(graph)
        for token in set(name.lower().split("_"))
        if len(token) >= 5 and token.isalpha()
    )
    return sorted(counts.items())


def _reach(graph, start, direction: str, max_depth: int) -> int:
    """Mapping edges a lineage trace from ``start`` will walk."""
    edges = 0
    seen = {start}
    frontier = [start]
    for _ in range(max_depth):
        nxt = []
        for item in frontier:
            if direction == "upstream":
                neighbours = list(graph.subjects(TERMS.is_mapped_to, item))
            else:
                neighbours = list(graph.objects(item, TERMS.is_mapped_to))
            edges += len(neighbours)
            for neighbour in neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    nxt.append(neighbour)
        frontier = nxt
    return edges


def _mapping_ends(graph, direction: str) -> List:
    """Items with at least one mapping edge to walk in ``direction``."""
    if direction == "upstream":
        ends = {t.object for t in graph.triples(None, TERMS.is_mapped_to, None)}
    else:
        ends = {t.subject for t in graph.triples(None, TERMS.is_mapped_to, None)}
    return sorted(ends, key=lambda t: t.sort_key())


def lineage_pool(graph, direction: str, max_depth: int = 4, limit: int = 400):
    """(item, reach) for items a trace in ``direction`` has work to do
    on. Items are addressed by IRI: names are shared by many items in
    this landscape and the first item of a name is rarely a mapped one."""
    reached = (
        (item, _reach(graph, item, direction, max_depth))
        for item in thinned(_mapping_ends(graph, direction), limit)
    )
    # a single edge is a lookup, not a trace
    return [(item, reach) for item, reach in reached if reach >= 2]


def mapped_name_pool(graph) -> List[Tuple[str, int]]:
    """(name, items carrying it) for names of mapping targets — the
    one-hop SPARQL probe joins from the name."""
    carried = Counter(names_of(graph))
    names = set()
    for item in _mapping_ends(graph, "upstream"):
        name = graph.value(item, TERMS.has_name, None)
        if isinstance(name, Literal):
            names.add(name.lexical)
    return [(name, carried[name]) for name in sorted(names)]


def probe_source_pool(graph, limit: int = 4000) -> List[Tuple[str, int]]:
    """(source IRI, out-degree) for Listing 2's bound-source probe."""
    degree = Counter(
        t.subject.value for t in graph.triples(None, TERMS.is_mapped_to, None)
    )
    return [(iri, degree[iri]) for iri in thinned(sorted(degree), limit)]


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` plus the payload ``dispatch``/``execute``
    take. ``key`` identifies the op across rounds and in digests."""

    kind: str
    payload: Tuple[Tuple[str, object], ...]
    key: str

    def kwargs(self) -> Dict[str, object]:
        return dict(self.payload)


def make_op(kind: str, key: str, **payload) -> Op:
    return Op(kind, tuple(sorted(payload.items())), f"{kind}:{key}")


def lineage_ops(graph, n_up: int, n_down: int, rng) -> List[Op]:
    ups = stratified_pick(lineage_pool(graph, "upstream"), n_up, rng)
    downs = stratified_pick(lineage_pool(graph, "downstream"), n_down, rng)
    return [
        make_op("lineage", f"{direction}:{i}:{item.n3()}", item=item, direction=direction, max_depth=4)
        for direction, items in (("upstream", ups), ("downstream", downs))
        for i, item in enumerate(items)
    ]


def search_ops(graph, n: int, rng) -> List[Op]:
    terms = stratified_pick(term_pool(graph), n, rng)
    return [make_op("search", f"{i}:{term}", term=term) for i, term in enumerate(terms)]


def served_ops(graph, rng, mix: Dict[str, int]) -> List[Op]:
    """The served mix; ``mix`` gives the count per op family
    (sql / one_hop / search / lineage / schema)."""
    ops: List[Op] = []
    sql_terms = stratified_pick(term_pool(graph), mix["sql"], rng)
    ops += [
        make_op("sql", f"{i}:{term}", sql=queries.SERVED_SQL.format(term=term))
        for i, term in enumerate(sql_terms)
    ]
    hop_names = stratified_pick(mapped_name_pool(graph), mix["one_hop"], rng)
    ops += [
        make_op("query", f"hop:{i}:{name}", text=queries.ONE_HOP_SPARQL.format(name=name))
        for i, name in enumerate(hop_names)
    ]
    ops += search_ops(graph, mix["search"], rng)
    n_down = mix["lineage"] * 3 // 10
    ops += lineage_ops(graph, mix["lineage"] - n_down, n_down, rng)
    ops += [
        make_op("query", f"schema:{i}", text=queries.SCHEMA_GROUP_BY)
        for i in range(mix["schema"])
    ]
    return ops


# -- release states ------------------------------------------------------------


def make_release(graph: Graph) -> Graph:
    """The next release's desired state: ``graph`` with ~2 % churn —
    renamed items, new typed+named instances, removed mappings — chosen
    by sorted position (no RNG), sharing ``graph``'s dictionary so the
    incremental diff runs in id space."""
    desired = graph.copy(name="release-desired")
    budget = max(4, int(len(graph) * CHURN_FRACTION))

    named = sorted(
        graph.triples(None, TERMS.has_name, None), key=lambda t: t.subject.sort_key()
    )
    for t in named[: budget // 4]:
        desired.discard(t)
        desired.add(Triple(t.subject, t.predicate, Literal(f"{t.object.lexical}_r2")))

    classes = sorted(
        {t.object for t in graph.triples(None, RDF.type, None)},
        key=lambda c: c.sort_key(),
    )
    for i in range(budget // 4):
        item = IRI(f"{_RELEASE_NS}item_{i}")
        desired.add(Triple(item, RDF.type, classes[i % len(classes)]))
        desired.add(Triple(item, TERMS.has_name, Literal(f"release_delta_item_{i}")))

    mapped = sorted(
        graph.triples(None, TERMS.is_mapped_to, None),
        key=lambda t: (t.subject.sort_key(), t.object.sort_key()),
    )
    for t in thinned(mapped, max(1, budget // 40)):
        desired.discard(t)
        for node in list(graph.objects(t.subject, TERMS.has_mapping)):
            if graph.value(node, TERMS.mapping_target, None) == t.object:
                desired.discard(Triple(t.subject, TERMS.has_mapping, node))
                for detail in list(graph.triples(node, None, None)):
                    desired.discard(detail)
    return desired
