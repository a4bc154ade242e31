"""One read contract, six ways to hold the same triples.

A :class:`Graph`, a saved-and-attached :class:`MappedGraph`, a 2-layer
:class:`GraphView` over in-memory graphs, a view over an attached
store's mapped model plus a model created on that store, a version two
:class:`LayeredGraph` layers deep over a mapped graph (one layer
removes, one adds) and a model a delta segment creates over an empty
base must answer every term-level read identically — they share one
implementation over different id-level primitives, and this property
test is what keeps the primitives honest. The attached view and the
layered version put the mapped dictionary's overlay ids (terms interned
after the attach) under the contract.
Patterns cover every bound/unbound shape, with terms drawn from the
stored pool plus an unknown IRI and a literal in subject position.

Graphs that intern into different dictionaries never share a view or a
store: both refuse them with :class:`DictionaryMismatchError`.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf.dictionary import (
    DEFAULT_DICTIONARY,
    DictionaryMismatchError,
    TermDictionary,
)
from repro.rdf.graph import Graph, GraphView, LayeredGraph
from repro.rdf.store import TripleStore
from repro.rdf.terms import BNode, IRI, Literal, Triple
from repro.storage import MappedSnapshot, apply_segments, publish_segment, save_snapshot_store

EX = "http://contract.test/"
SUBJECTS = [IRI(f"{EX}s{i}") for i in range(4)] + [BNode("b1"), BNode("b2")]
PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]
OBJECTS = SUBJECTS[:3] + [
    Literal("x"),
    Literal("y", language="en"),
    Literal("1", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
]
UNKNOWN = IRI(f"{EX}never-stored")
#: what a pattern position may hold: stored terms, plus two that match
#: nothing — an unknown IRI, and a stored literal asked as a subject
PROBES = {
    "s": SUBJECTS[:3] + [BNode("b1"), UNKNOWN, Literal("x")],
    "p": PREDICATES + [UNKNOWN],
    "o": OBJECTS[2:] + [UNKNOWN],
}

triples_st = st.lists(
    st.builds(
        Triple,
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(OBJECTS),
    ),
    max_size=40,
)


PADDING = [Triple(IRI(f"{EX}pad"), IRI(f"{EX}pad-p"), Literal(f"pad {i}")) for i in range(2)]


def load_every_way(triples, layer_of, root):
    """The same content as Graph, MappedGraph, two GraphViews and two
    LayeredGraphs; returns the attached snapshots (to close) and the
    graphs by kind."""
    graph = Graph(triples, dictionary=TermDictionary())
    # layer 0 / 1 / both: a triple in both layers must still count once
    layers = [
        [t for t, where in zip(triples, layer_of) if where in (i, 2)] for i in (0, 1)
    ]
    store = TripleStore()
    store.adopt_model("M", Graph(triples, dictionary=TermDictionary()))
    store.create_model("L0").add_all(layers[0])
    store.create_model("N").add_all(layers[0] + PADDING)
    save_snapshot_store(store, root / "g.mdws")
    snapshot = MappedSnapshot.open(root / "g.mdws")
    attached = snapshot.store(mutable_models=())
    # created after the attach: interns into the mapped dictionary, and
    # a term the file does not hold gets an overlay id
    attached.create_model("L1").add_all(layers[1])
    attached_view = attached.view(["L0", "L1"])
    shared = TermDictionary()
    shared_view = GraphView([Graph(layer, dictionary=shared) for layer in layers])
    assert shared_view.dictionary is shared
    assert attached_view.dictionary is attached.model("M").dictionary

    # a version two layers deep over the mapped "N": the first layer
    # removes the padding, the second adds layer 1 — whose terms the
    # file may not hold, so it carries overlay ids
    mapped_dict = attached.model("N").dictionary
    padding = Graph(PADDING, dictionary=mapped_dict)
    only_1 = [t for t in layers[1] if t not in layers[0]]
    nothing = Graph(dictionary=mapped_dict)
    depth_1 = LayeredGraph(attached.model("N"), nothing, padding)
    version = LayeredGraph(depth_1, Graph(only_1, dictionary=mapped_dict), nothing)

    # a model a segment creates over an empty base (a segment holds
    # changes only, so an empty model is never created)
    old = TripleStore()
    old.create_model("D").add(PADDING[0])
    new = TripleStore()
    new.adopt_model("D", old.model("D"))
    new.adopt_model("S", Graph(triples, dictionary=old.dictionary))
    save_snapshot_store(old, root / "base.mdws", generation=1)
    publish_segment(old, new, root / "s.seg", 1, 2)
    base = MappedSnapshot.open(root / "base.mdws")
    layered = apply_segments(base, [root / "s.seg"], mutable_models=())
    graphs = {
        "graph": graph,
        "mapped": attached.model("M"),
        "shared-view": shared_view,
        "attached-view": attached_view,
        "layered-version": version,
    }
    if triples:
        graphs["segment-created"] = layered.model("S")
        assert isinstance(graphs["segment-created"], LayeredGraph)
    return [snapshot, base], graphs


def patterns():
    for s, p, o in itertools.product(
        [None] + PROBES["s"], [None] + PROBES["p"], [None] + PROBES["o"]
    ):
        yield s, p, o


def distinct(values):
    values = list(values)
    assert len(values) == len(set(values)), "duplicate in a distinct accessor"
    return set(values)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    triples=triples_st,
    layer_seed=st.lists(st.integers(0, 2), min_size=40, max_size=40),
)
def test_every_graph_answers_the_read_contract_alike(tmp_path, triples, layer_seed):
    expected = set(triples)
    snapshots, graphs = load_every_way(triples, layer_seed, tmp_path)
    try:
        for name, g in graphs.items():
            assert len(g) == len(expected), name
            assert bool(g) == bool(expected), name
            assert set(g) == expected, name
            assert distinct(g.nodes()) == {t.subject for t in expected} | {
                t.object for t in expected
            }, name
            assert g.node_count() == len(distinct(g.nodes())), name
            for other_name, other in graphs.items():
                assert g == other, (name, other_name)
            assert not g == Graph([Triple(UNKNOWN, UNKNOWN, UNKNOWN)]), name

        # a mapped graph reads its nodes off the run keys, a graph off its
        # index keys: the same set and the same count
        assert set(graphs["mapped"].nodes()) == set(graphs["graph"].nodes())
        assert graphs["mapped"].node_count() == graphs["graph"].node_count()

        # the distinct counts are exact for a graph and a mapped graph;
        # a view sums its layers' counts, an upper bound by design (the
        # planner's probe divisor), so the views are left out
        for name in ("graph", "mapped"):
            g = graphs[name]
            assert g.distinct_subject_count() == len({t.subject for t in expected}), name
            assert g.distinct_predicate_count() == len({t.predicate for t in expected}), name
            assert g.distinct_object_count() == len({t.object for t in expected}), name

        # the distinct objects of a predicate, in id space: each stored
        # object once
        for p in PROBES["p"]:
            for name, g in graphs.items():
                pid = g.dictionary.lookup(p)
                ids = distinct(g.distinct_object_ids(pid)) if pid is not None else set()
                assert {g.dictionary.term(i) for i in ids} == {
                    t.object for t in expected if t.predicate == p
                }, (name, p)

        for s, p, o in patterns():
            match = {
                t
                for t in expected
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            }
            for name, g in graphs.items():
                where = (name, s, p, o)
                listed = list(g.triples(s, p, o))
                assert len(listed) == len(match) and set(listed) == match, where
                assert g.count(s, p, o) == len(match), where
                assert distinct(g.subjects(p, o)) == {
                    t.subject for t in expected
                    if (p is None or t.predicate == p) and (o is None or t.object == o)
                }, where
                assert distinct(g.objects(s, p)) == {
                    t.object for t in expected
                    if (s is None or t.subject == s) and (p is None or t.predicate == p)
                }, where
                assert distinct(g.predicates(s, o)) == {
                    t.predicate for t in expected
                    if (s is None or t.subject == s) and (o is None or t.object == o)
                }, where
                unbound = [i for i, x in enumerate((s, p, o)) if x is None]
                if len(unbound) == 1:
                    found = g.value(s, p, o)
                    candidates = {t[unbound[0]] for t in match}
                    assert (found is None) == (not candidates), where
                    assert found is None or found in candidates, where
                elif None not in (s, p, o):
                    assert ((s, p, o) in g) == ((s, p, o) in match), where
    finally:
        for snapshot in snapshots:
            snapshot.close()


def test_views_compare_by_content():
    """Two views over the same triples are equal, like any two graphs."""
    triples = [
        Triple(SUBJECTS[0], PREDICATES[0], OBJECTS[3]),
        Triple(SUBJECTS[1], PREDICATES[1], OBJECTS[0]),
    ]
    split = GraphView([Graph(triples[:1]), Graph(triples[1:])])
    whole = GraphView([Graph(triples)])
    assert split == whole and whole == split
    assert split != GraphView([Graph(triples[:1])])


# -- one id space per view and per store ----------------------------------------

T = Triple(SUBJECTS[0], PREDICATES[0], OBJECTS[3])


def test_view_over_two_dictionaries_is_refused():
    with pytest.raises(DictionaryMismatchError):
        GraphView([Graph([T]), Graph([T], dictionary=TermDictionary())])


def test_store_refuses_a_graph_interning_elsewhere():
    assert TripleStore().dictionary is DEFAULT_DICTIONARY
    store = TripleStore()
    own = TermDictionary()
    # the first model fixes the store's dictionary; create_model follows it
    store.adopt_model("M", Graph([T], dictionary=own))
    assert store.dictionary is own
    assert store.create_model("N").dictionary is own
    foreign = Graph([T], dictionary=TermDictionary())
    with pytest.raises(DictionaryMismatchError):
        store.adopt_model("F", foreign)
    with pytest.raises(DictionaryMismatchError):
        store.attach_index("M", "OWLPRIME", foreign)
    assert store.model_names() == ["M", "N"] and not store.index_names()
    assert store.view(["M", "N"]).dictionary is own
