"""Property-based tests for the reasoner (hypothesis + networkx oracle)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, IRI, Namespace, RDF, RDFS, Triple
from repro.reasoning import OWLPRIME, RDFS_RULEBASE, closure, maintain_closure

EX = Namespace("http://x/")

# small vocabularies keep the closure sizes manageable while still
# exercising cycles, diamonds, and self-loops
_classes = st.sampled_from([EX[f"C{i}"] for i in range(6)])
_instances = st.sampled_from([EX[f"i{i}"] for i in range(6)])

subclass_edges = st.lists(st.tuples(_classes, _classes), max_size=12)
type_edges = st.lists(st.tuples(_instances, _classes), max_size=8)


def build_graph(subclasses, types):
    g = Graph()
    for c, d in subclasses:
        g.add(Triple(c, RDFS.subClassOf, d))
    for x, c in types:
        g.add(Triple(x, RDF.type, c))
    return g


@settings(max_examples=100)
@given(subclass_edges, type_edges)
def test_subclass_closure_matches_networkx(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)

    nxg = nx.DiGraph()
    nxg.add_nodes_from({c for e in subclasses for c in e})
    nxg.add_edges_from(subclasses)
    expected = set()
    for c, d in nx.transitive_closure(nxg).edges():
        t = Triple(c, RDFS.subClassOf, d)
        if t not in g:
            expected.add(t)
    got = set(derived.triples(None, RDFS.subClassOf, None))
    assert got == expected


@settings(max_examples=100)
@given(subclass_edges, type_edges)
def test_type_inheritance_matches_reachability(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)

    nxg = nx.DiGraph()
    nxg.add_nodes_from({c for e in subclasses for c in e} | {c for _, c in types})
    nxg.add_edges_from(subclasses)
    expected = set()
    for x, c in types:
        for ancestor in nx.descendants(nxg, c):
            t = Triple(x, RDF.type, ancestor)
            if t not in g:
                expected.add(t)
    got = set(derived.triples(None, RDF.type, None))
    assert got == expected


@settings(max_examples=60)
@given(subclass_edges, type_edges)
def test_fixpoint_idempotence(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, OWLPRIME)
    again, _ = closure(g | derived, OWLPRIME)
    assert len(again) == 0


@settings(max_examples=60)
@given(subclass_edges, type_edges)
def test_monotonicity(subclasses, types):
    """Adding facts never removes derived facts."""
    g = build_graph(subclasses, types)
    derived_small, _ = closure(g, RDFS_RULEBASE)
    extra = Triple(EX.C0, RDFS.subClassOf, EX.C5)
    bigger = g.copy()
    bigger.add(extra)
    derived_big, _ = closure(bigger, RDFS_RULEBASE)
    missing = {t for t in derived_small if t not in derived_big and t not in bigger}
    assert not missing


@settings(max_examples=60)
@given(subclass_edges, type_edges, st.tuples(_classes, _classes))
def test_incremental_equals_batch(subclasses, types, new_edge):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)
    added = Triple(new_edge[0], RDFS.subClassOf, new_edge[1])
    if added in g:
        return
    g.add(added)
    maintain_closure(g, derived, [added], (), RDFS_RULEBASE)
    batch, _ = closure(g, RDFS_RULEBASE)
    # incremental result may retain triples that the batch run would
    # classify as base (added edge could equal a previously-derived one);
    # after removing base triples both must agree
    incremental = {t for t in derived if t not in g}
    assert incremental == set(batch)
