"""Unit tests for the indexed Graph and GraphView."""

import pytest

from repro.rdf import Graph, GraphView, IRI, Literal, ReadOnlyGraphError, Triple, Variable

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def t(s, p, o):
    obj = o if not isinstance(o, str) else iri(o)
    return Triple(iri(s), iri(p), obj)


@pytest.fixture
def graph():
    g = Graph(name="test")
    g.add(t("alice", "knows", "bob"))
    g.add(t("alice", "knows", "carol"))
    g.add(t("bob", "knows", "carol"))
    g.add(Triple(iri("alice"), iri("name"), Literal("Alice")))
    return g


class TestAddRemove:
    def test_add_returns_true_when_new(self, graph):
        assert graph.add(t("carol", "knows", "alice"))

    def test_add_duplicate_returns_false(self, graph):
        assert not graph.add(t("alice", "knows", "bob"))
        assert len(graph) == 4

    def test_add_raw_tuple(self):
        g = Graph()
        g.add((iri("s"), iri("p"), iri("o")))
        assert len(g) == 1

    def test_add_non_ground_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add(Triple(Variable("s"), iri("p"), iri("o")))

    def test_remove(self, graph):
        graph.remove(t("alice", "knows", "bob"))
        assert t("alice", "knows", "bob") not in graph
        assert len(graph) == 3

    def test_remove_missing_raises(self, graph):
        with pytest.raises(KeyError):
            graph.remove(t("nobody", "knows", "nothing"))

    def test_discard_missing_ok(self, graph):
        assert not graph.discard(t("nobody", "knows", "nothing"))

    def test_remove_then_readd(self, graph):
        triple = t("alice", "knows", "bob")
        graph.remove(triple)
        assert graph.add(triple)
        assert triple in graph

    def test_remove_pattern(self, graph):
        removed = graph.remove_pattern(iri("alice"), iri("knows"), None)
        assert removed == 2
        assert len(graph) == 2

    def test_remove_prunes_indexes(self):
        g = Graph()
        triple = t("s", "p", "o")
        g.add(triple)
        g.remove(triple)
        # all index dicts fully pruned: no residual empty entries
        assert not g._spo and not g._pos

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert list(graph) == []

    def test_add_all_counts_inserted(self, graph):
        n = graph.add_all([t("x", "knows", "y"), t("alice", "knows", "bob")])
        assert n == 1

    def test_id_insert_and_delete_notify_id_triples(self, graph):
        events = []
        graph.subscribe(lambda action, s, p, o: events.append((action, (s, p, o))))
        ids = tuple(graph.dictionary.intern(x) for x in t("carol", "knows", "alice"))
        assert graph.add_ids(*ids) and not graph.add_ids(*ids)
        assert t("carol", "knows", "alice") in graph and graph.has_ids(*ids)
        assert graph.discard_ids(*ids) and not graph.discard_ids(*ids)
        assert events == [("add", ids), ("remove", ids)]
        assert len(graph) == 4


class TestMatching:
    def test_fully_bound_hit(self, graph):
        assert list(graph.triples(iri("alice"), iri("knows"), iri("bob")))

    def test_fully_bound_miss(self, graph):
        assert not list(graph.triples(iri("bob"), iri("knows"), iri("alice")))

    def test_s_bound(self, graph):
        assert len(list(graph.triples(iri("alice"), None, None))) == 3

    def test_p_bound(self, graph):
        assert len(list(graph.triples(None, iri("knows"), None))) == 3

    def test_o_bound(self, graph):
        assert len(list(graph.triples(None, None, iri("carol")))) == 2

    def test_sp_bound(self, graph):
        assert len(list(graph.triples(iri("alice"), iri("knows"), None))) == 2

    def test_po_bound(self, graph):
        assert len(list(graph.triples(None, iri("knows"), iri("carol")))) == 2

    def test_so_bound(self, graph):
        assert len(list(graph.triples(iri("alice"), None, iri("bob")))) == 1

    def test_all_wild(self, graph):
        assert len(list(graph.triples())) == 4

    def test_missing_subject_empty(self, graph):
        assert not list(graph.triples(iri("zelda"), None, None))

    def test_contains(self, graph):
        assert t("alice", "knows", "bob") in graph
        assert t("bob", "knows", "alice") not in graph

    def test_count_matches_iteration(self, graph):
        for pattern in [
            (None, None, None),
            (iri("alice"), None, None),
            (None, iri("knows"), None),
            (iri("alice"), iri("knows"), None),
            (None, iri("knows"), iri("carol")),
        ]:
            assert graph.count(*pattern) == len(list(graph.triples(*pattern)))


class TestAccessors:
    def test_subjects(self, graph):
        subs = set(graph.subjects(iri("knows"), iri("carol")))
        assert subs == {iri("alice"), iri("bob")}

    def test_objects(self, graph):
        objs = set(graph.objects(iri("alice"), iri("knows")))
        assert objs == {iri("bob"), iri("carol")}

    def test_predicates(self, graph):
        preds = set(graph.predicates(iri("alice"), iri("bob")))
        assert preds == {iri("knows")}

    def test_subjects_distinct(self, graph):
        assert len(list(graph.subjects(iri("knows"), None))) == 2  # alice, bob

    def test_value_object(self, graph):
        assert graph.value(iri("alice"), iri("name"), None) == Literal("Alice")

    def test_value_missing_is_none(self, graph):
        assert graph.value(iri("zelda"), iri("name"), None) is None

    def test_value_requires_one_unbound(self, graph):
        with pytest.raises(ValueError):
            graph.value(iri("alice"), None, None)

    def test_nodes(self, graph):
        nodes = set(graph.nodes())
        assert iri("alice") in nodes
        assert Literal("Alice") in nodes
        assert iri("knows") not in nodes  # predicate-only terms are not nodes

    def test_node_count(self, graph):
        assert graph.node_count() == len(set(graph.nodes()))


class TestSetOperations:
    def test_union(self, graph):
        other = Graph([t("dave", "knows", "alice")])
        u = graph.union(other)
        assert len(u) == 5
        assert len(graph) == 4  # original untouched

    def test_union_operator(self, graph):
        assert len(graph | Graph([t("x", "y", "z")])) == 5

    def test_intersection(self, graph):
        other = Graph([t("alice", "knows", "bob"), t("q", "r", "s")])
        assert set(graph & other) == {t("alice", "knows", "bob")}

    def test_difference(self, graph):
        other = Graph([t("alice", "knows", "bob")])
        assert len(graph - other) == 3

    def test_copy_independent(self, graph):
        c = graph.copy()
        c.add(t("new", "p", "o"))
        assert len(graph) == 4
        assert len(c) == 5

    def test_equality(self, graph):
        assert graph == graph.copy()
        assert graph != Graph()


class TestFreeze:
    def test_frozen_rejects_add(self, graph):
        graph.freeze()
        with pytest.raises(ReadOnlyGraphError):
            graph.add(t("x", "y", "z"))

    def test_frozen_rejects_remove(self, graph):
        graph.freeze()
        with pytest.raises(ReadOnlyGraphError):
            graph.discard(t("alice", "knows", "bob"))

    def test_frozen_still_readable(self, graph):
        graph.freeze()
        assert len(graph) == 4
        assert t("alice", "knows", "bob") in graph

    def test_graph_unhashable(self, graph):
        with pytest.raises(TypeError):
            hash(graph)


class TestGraphView:
    def test_union_semantics(self, graph):
        extra = Graph([t("derived", "edge", "here")], name="index")
        view = GraphView([graph, extra])
        assert len(view) == 5
        assert t("derived", "edge", "here") in view

    def test_duplicates_reported_once(self, graph):
        dup = Graph([t("alice", "knows", "bob")])
        view = GraphView([graph, dup])
        assert len(view) == 4

    def test_view_is_read_only(self, graph):
        view = GraphView([graph])
        with pytest.raises(ReadOnlyGraphError):
            view.add(t("x", "y", "z"))
        with pytest.raises(ReadOnlyGraphError):
            view.remove(t("alice", "knows", "bob"))

    def test_view_reflects_layer_mutation(self, graph):
        view = GraphView([graph])
        graph.add(t("late", "p", "o"))
        assert t("late", "p", "o") in view

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            GraphView([])

    def test_pattern_matching(self, graph):
        extra = Graph([t("alice", "knows", "dave")])
        view = GraphView([graph, extra])
        assert len(list(view.triples(iri("alice"), iri("knows"), None))) == 3

    def test_accessors(self, graph):
        view = GraphView([graph])
        assert set(view.objects(iri("alice"), iri("knows"))) == {iri("bob"), iri("carol")}
        assert set(view.subjects(iri("knows"), iri("carol"))) == {iri("alice"), iri("bob")}
        assert view.value(iri("alice"), iri("name"), None) == Literal("Alice")

    def test_graph_equals_view(self, graph):
        assert graph == GraphView([graph])
