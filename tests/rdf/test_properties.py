"""Property-based tests for the RDF substrate (hypothesis).

The central property: the indexed Graph answers every pattern shape
identically to a naive full-scan oracle, and both serializations
round-trip arbitrary graphs.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BNode,
    Graph,
    GraphView,
    IRI,
    Literal,
    Triple,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)

# -- strategies ---------------------------------------------------------------

_local = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=8)

iris = st.builds(lambda l: IRI("http://t/" + l), _local)
bnodes = st.builds(BNode, _local)

_literal_text = st.text(max_size=12)

plain_literals = st.builds(Literal, _literal_text)
lang_literals = st.builds(
    lambda s, l: Literal(s, language=l),
    _literal_text,
    st.sampled_from(["en", "de", "fr", "en-gb"]),
)
typed_literals = st.one_of(
    st.builds(Literal, st.integers(min_value=-10**9, max_value=10**9)),
    st.builds(Literal, st.booleans()),
)
literals = st.one_of(plain_literals, lang_literals, typed_literals)

subjects = st.one_of(iris, bnodes)
objects_ = st.one_of(iris, bnodes, literals)
triples = st.builds(Triple, subjects, iris, objects_)
triple_lists = st.lists(triples, max_size=30)


# -- naive oracle --------------------------------------------------------------


def naive_match(triple_set, s, p, o):
    return {
        t
        for t in triple_set
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    }


@st.composite
def graph_and_pattern(draw):
    ts = draw(triple_lists)
    g = Graph(ts)
    # Bias pattern terms toward terms that occur in the graph.
    pool_s = [t.subject for t in ts] or [IRI("http://t/none")]
    pool_p = [t.predicate for t in ts] or [IRI("http://t/none")]
    pool_o = [t.object for t in ts] or [IRI("http://t/none")]
    s = draw(st.one_of(st.none(), st.sampled_from(pool_s), subjects))
    p = draw(st.one_of(st.none(), st.sampled_from(pool_p), iris))
    o = draw(st.one_of(st.none(), st.sampled_from(pool_o), objects_))
    return g, set(ts), (s, p, o)


@settings(max_examples=200)
@given(graph_and_pattern())
def test_pattern_matching_matches_naive_oracle(data):
    g, triple_set, (s, p, o) = data
    assert set(g.triples(s, p, o)) == naive_match(triple_set, s, p, o)


@settings(max_examples=200)
@given(graph_and_pattern())
def test_count_matches_naive_oracle(data):
    g, triple_set, (s, p, o) = data
    assert g.count(s, p, o) == len(naive_match(triple_set, s, p, o))


@given(triple_lists)
def test_graph_size_equals_set_size(ts):
    assert len(Graph(ts)) == len(set(ts))


@given(triple_lists, triple_lists)
def test_add_then_remove_restores(base, extra):
    g = Graph(base)
    before = set(g)
    truly_new = [t for t in set(extra) if t not in g]
    for t in truly_new:
        assert g.add(t)
    for t in truly_new:
        g.remove(t)
    assert set(g) == before
    assert len(g) == len(before)


@given(triple_lists, triple_lists)
def test_set_operations_match_python_sets(a, b):
    ga, gb = Graph(a), Graph(b)
    assert set(ga | gb) == set(a) | set(b)
    assert set(ga & gb) == set(a) & set(b)
    assert set(ga - gb) == set(a) - set(b)


@given(triple_lists, triple_lists)
def test_view_equals_union(a, b):
    view = GraphView([Graph(a), Graph(b)])
    assert set(view) == set(a) | set(b)
    assert len(view) == len(set(a) | set(b))


@settings(max_examples=150)
@given(triple_lists)
def test_ntriples_roundtrip(ts):
    g = Graph(ts)
    assert Graph(parse_ntriples(serialize_ntriples(g))) == g


@settings(max_examples=150)
@given(triple_lists)
def test_turtle_roundtrip(ts):
    g = Graph(ts)
    assert parse_turtle(serialize_turtle(g)) == g


@given(triple_lists)
def test_serialization_deterministic(ts):
    g1, g2 = Graph(ts), Graph(reversed(ts))
    assert serialize_ntriples(g1) == serialize_ntriples(g2)
    assert serialize_turtle(g1) == serialize_turtle(g2)


@given(triple_lists)
def test_nodes_are_subjects_and_objects(ts):
    g = Graph(ts)
    expected = {t.subject for t in ts} | {t.object for t in ts}
    assert set(g.nodes()) == expected
    assert g.node_count() == len(expected)
