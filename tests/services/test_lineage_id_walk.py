"""The id-space lineage walk answers exactly like the term-space walk.

:class:`LineageService` walks mapping edges over ``triples_ids`` and
decodes only the terms it returns. The reference below is the term walk
it replaced (``objects``/``subjects``/``value`` per hop), kept here as
the oracle: ``trace`` in both directions, with and without a depth limit
and a condition filter, ``paths``, ``count_paths`` and ``edge`` must
agree with it term for term and in order, on a generated landscape and
on drawn mapping graphs with cycles, each as an in-memory ``Graph`` and
attached as a ``MappedGraph``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import TERMS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.store import TripleStore
from repro.rdf.terms import BNode, IRI, Literal, Triple
from repro.services import LineageService, PathExplosionError
from repro.storage import MappedSnapshot, save_snapshot_store

# -- the term-space reference ---------------------------------------------


def ref_edge(graph, source, target):
    rule = condition = None
    for mapping in graph.objects(source, TERMS.has_mapping):
        if graph.value(mapping, TERMS.mapping_target, None) == target:
            rule_lit = graph.value(mapping, TERMS.mapping_rule, None)
            cond_lit = graph.value(mapping, TERMS.mapping_condition, None)
            rule = rule_lit.lexical if isinstance(rule_lit, Literal) else None
            condition = cond_lit.lexical if isinstance(cond_lit, Literal) else None
            break
    return (source, target, rule, condition)


def ref_neighbours(graph, item, direction):
    if direction == "downstream":
        found = graph.objects(item, TERMS.is_mapped_to)
    else:
        found = graph.subjects(TERMS.is_mapped_to, item)
    return sorted(found, key=lambda t: t.sort_key())


def ref_hop(graph, current, neighbour, direction):
    if direction == "downstream":
        return ref_edge(graph, current, neighbour)
    return ref_edge(graph, neighbour, current)


def ref_trace(graph, item, direction, max_depth=None, keep=None):
    edges, depth = [], {item: 0}
    frontier, visited = [item], {item}
    while frontier:
        nxt = []
        for current in frontier:
            if max_depth is not None and depth[current] >= max_depth:
                continue
            for neighbour in ref_neighbours(graph, current, direction):
                edge = ref_hop(graph, current, neighbour, direction)
                if keep is not None and not keep(edge):
                    continue
                edges.append(edge)
                if neighbour not in visited:
                    visited.add(neighbour)
                    depth[neighbour] = depth[current] + 1
                    nxt.append(neighbour)
        frontier = nxt
    return edges, list(depth.items())


def ref_paths(graph, source, target, keep=None, max_paths=10_000):
    out = []

    def walk(node, path, seen):
        if node == target:
            out.append(list(path))
            if len(out) > max_paths:
                raise PathExplosionError(max_paths)
            return
        for neighbour in ref_neighbours(graph, node, "downstream"):
            if neighbour in seen:
                continue
            if keep is not None and not keep(ref_edge(graph, node, neighbour)):
                continue
            path.append(neighbour)
            seen.add(neighbour)
            walk(neighbour, path, seen)
            seen.discard(neighbour)
            path.pop()

    walk(source, [source], {source})
    return out


class _Cycle(Exception):
    pass


def ref_count_paths(graph, item, direction, keep=None):
    memo, on_stack = {}, set()

    def kept_from(node):
        return [
            n
            for n in ref_neighbours(graph, node, direction)
            if keep is None or keep(ref_hop(graph, node, n, direction))
        ]

    def count(node):
        if node in memo:
            return memo[node]
        if node in on_stack:
            raise _Cycle()
        on_stack.add(node)
        kept = kept_from(node)
        total = 1 if not kept else sum(count(n) for n in kept)
        on_stack.discard(node)
        memo[node] = total
        return total

    try:
        return count(item)
    except _Cycle:
        total, stack = 0, [(item, {item})]
        while stack:
            node, seen = stack.pop()
            kept = [n for n in kept_from(node) if n not in seen]
            if not kept:
                total += 1
            for n in kept:
                stack.append((n, seen | {n}))
        return total


# -- comparison --------------------------------------------------------------


def as_tuple(edge):
    return (edge.source, edge.target, edge.rule, edge.condition)


def keep_condition(edge):
    """A filter over the condition text of a reference edge tuple."""
    condition = edge[3]
    return condition is None or "CH" in condition or condition.startswith("c1")


def outcome(call):
    try:
        return call()
    except PathExplosionError as exc:
        return ("explosion", exc.budget)


def assert_walks_agree(graph, items, pairs, max_paths=200):
    """Every walk of ``LineageService`` over ``graph`` equals the reference."""
    service = LineageService(SimpleNamespace(graph=graph))

    def keep_edge(edge):
        return keep_condition(as_tuple(edge))

    for item in items:
        for direction in ("upstream", "downstream"):
            for max_depth in (None, 2):
                for keep, keep_edge_or_none in ((None, None), (keep_condition, keep_edge)):
                    got = service.trace(
                        item, direction, max_depth=max_depth,
                        condition_filter=keep_edge_or_none,
                    )
                    edges, depth = ref_trace(graph, item, direction, max_depth, keep)
                    assert [as_tuple(e) for e in got.edges] == edges, (item, direction)
                    assert list(got.depth.items()) == depth, (item, direction)
            assert service.count_paths(item, direction) == ref_count_paths(
                graph, item, direction
            ), (item, direction)
            assert service.count_paths(
                item, direction, condition_filter=keep_edge
            ) == ref_count_paths(graph, item, direction, keep_condition), (item, direction)
    for source, target in pairs:
        assert as_tuple(service.edge(source, target)) == ref_edge(graph, source, target)
        for keep, keep_edge_or_none in ((None, None), (keep_condition, keep_edge)):
            got = outcome(
                lambda: service.paths(
                    source, target, condition_filter=keep_edge_or_none, max_paths=max_paths
                )
            )
            want = outcome(lambda: ref_paths(graph, source, target, keep, max_paths))
            assert got == want, (source, target)


def attach(graph, path):
    """``graph`` saved as a snapshot and attached: its ``MappedGraph``."""
    store = TripleStore()
    store.adopt_model("M", graph)
    save_snapshot_store(store, path)
    snapshot = MappedSnapshot.open(path)
    return snapshot, snapshot.store(mutable_models=()).model("M")


def graph_kinds(triples, path):
    graph = Graph(triples, dictionary=TermDictionary())
    snapshot, mapped = attach(Graph(triples, dictionary=TermDictionary()), path)
    return snapshot, {"graph": graph, "mapped": mapped}


# -- a generated landscape ------------------------------------------------------

UNKNOWN = IRI("http://lineage.test/never-stored")


@pytest.fixture(scope="module")
def landscape_triples():
    from repro.synth import LandscapeConfig, generate_landscape

    return list(generate_landscape(LandscapeConfig.tiny(seed=2009)).warehouse.graph)


@pytest.mark.parametrize("kind", ["graph", "mapped"])
def test_tiny_landscape(landscape_triples, tmp_path, kind):
    snapshot, graphs = graph_kinds(landscape_triples, tmp_path / "tiny.mdws")
    graph = graphs[kind]
    try:
        flows = sorted(
            graph.triples(None, TERMS.is_mapped_to, None),
            key=lambda t: (t.subject.sort_key(), t.object.sort_key()),
        )
        assert flows, "the landscape holds no mapping edges"
        ends = sorted(
            {t.subject for t in flows} | {t.object for t in flows},
            key=lambda t: t.sort_key(),
        )
        items = ends[:: max(1, len(ends) // 60)] + [UNKNOWN]
        pairs = [(t.subject, t.object) for t in flows[::7]]
        pairs += [(a, b) for a, b in zip(items, items[3:])] + [(UNKNOWN, items[0])]
        assert_walks_agree(graph, items, pairs)
    finally:
        snapshot.close()


# -- drawn mapping graphs -----------------------------------------------------------

EX = "http://lineage.test/"
NODES = [IRI(f"{EX}n{i}") for i in range(6)]
RULES = [Literal("r0"), Literal("r1"), IRI(f"{EX}rule-iri")]
CONDITIONS = [Literal("c0"), Literal("c1"), Literal("c1 and country = 'CH'")]

mapping_st = st.fixed_dictionaries(
    {
        # none, one or two of each: only the first one read counts;
        # "edge" stands for the edge's own target
        "targets": st.lists(st.one_of(st.just("edge"), st.sampled_from(NODES)), max_size=2),
        "rules": st.lists(st.sampled_from(RULES), max_size=2),
        "conditions": st.lists(st.sampled_from(CONDITIONS), max_size=2),
    }
)
edge_st = st.tuples(
    st.sampled_from(NODES), st.sampled_from(NODES), st.lists(mapping_st, max_size=2)
)


def mapping_triples(edges):
    triples = []
    for k, (source, target, mappings) in enumerate(edges):
        triples.append(Triple(source, TERMS.is_mapped_to, target))
        for j, mapping in enumerate(mappings):
            node = BNode(f"m{k}x{j}")
            triples.append(Triple(source, TERMS.has_mapping, node))
            for to in mapping["targets"]:
                to = target if to == "edge" else to
                triples.append(Triple(node, TERMS.mapping_target, to))
            for rule in mapping["rules"]:
                triples.append(Triple(node, TERMS.mapping_rule, rule))
            for condition in mapping["conditions"]:
                triples.append(Triple(node, TERMS.mapping_condition, condition))
    return triples


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edges=st.lists(edge_st, min_size=1, max_size=12))
def test_drawn_mapping_graphs(tmp_path, edges):
    snapshot, graphs = graph_kinds(mapping_triples(edges), tmp_path / "drawn.mdws")
    try:
        items = NODES + [UNKNOWN]
        pairs = [(a, b) for a in items for b in items]
        for graph in graphs.values():
            assert_walks_agree(graph, items, pairs, max_paths=20)
    finally:
        snapshot.close()


# -- the named cases ------------------------------------------------------------------


def _named_case_graph():
    a, b, c, d = NODES[:4]
    m_first, m_second, m_bare = BNode("first"), BNode("second"), BNode("bare")
    return a, b, c, d, [
        Triple(a, TERMS.is_mapped_to, b),
        Triple(a, TERMS.is_mapped_to, c),
        Triple(b, TERMS.is_mapped_to, d),
        # two mapping nodes with the same target: the first one read wins
        Triple(a, TERMS.has_mapping, m_first),
        Triple(m_first, TERMS.mapping_target, b),
        Triple(m_first, TERMS.mapping_rule, Literal("first rule")),
        Triple(a, TERMS.has_mapping, m_second),
        Triple(m_second, TERMS.mapping_target, b),
        Triple(m_second, TERMS.mapping_rule, Literal("second rule")),
        # a mapping node with no mappingTarget carries nothing
        Triple(b, TERMS.has_mapping, m_bare),
        Triple(m_bare, TERMS.mapping_condition, Literal("c0")),
    ]


@pytest.mark.parametrize("kind", ["graph", "mapped"])
def test_named_cases(tmp_path, kind):
    a, b, c, d, triples = _named_case_graph()
    snapshot, graphs = graph_kinds(triples, tmp_path / "named.mdws")
    graph = graphs[kind]
    try:
        service = LineageService(SimpleNamespace(graph=graph))
        first = next(iter(graph.objects(a, TERMS.has_mapping)))
        want_rule = graph.value(first, TERMS.mapping_rule, None).lexical
        assert service.edge(a, b).rule == want_rule
        assert as_tuple(service.edge(b, d)) == (b, d, None, None)
        # an item the dictionary has never seen
        trace = service.trace(UNKNOWN, "downstream")
        assert trace.edges == [] and trace.depth == {UNKNOWN: 0}
        assert service.paths(UNKNOWN, UNKNOWN) == [[UNKNOWN]]
        assert service.paths(UNKNOWN, a) == [] and service.paths(a, UNKNOWN) == []
        assert service.count_paths(UNKNOWN) == 1
        assert as_tuple(service.edge(UNKNOWN, a)) == (UNKNOWN, a, None, None)
        assert_walks_agree(graph, [a, b, c, d, UNKNOWN], [(a, b), (a, c), (b, d), (c, a)])
    finally:
        snapshot.close()
