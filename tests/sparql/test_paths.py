"""Unit and property tests for SPARQL property paths.

The paper's lineage path ``(isMappedTo)* rdf:type`` (Figure 8) is a
property path; these tests cover the full operator set and check the
closure operators against networkx reachability.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, IRI, Literal, Namespace, RDF, Triple
from repro.sparql import (
    PathAlternative,
    PathInverse,
    PathOptional,
    PathPlus,
    PathSequence,
    PathStar,
    PathStep,
    SparqlParseError,
    eval_path,
    execute,
    parse_query,
    parse_update,
)
from repro.sparql.algebra import BGP, Filter, Join, LeftJoin, Union

EX = Namespace("http://x/")


@pytest.fixture
def graph():
    g = Graph()
    # a -p-> b -p-> c -p-> d ;  a -q-> c ; d -p-> d (self loop)
    g.add(Triple(EX.a, EX.p, EX.b))
    g.add(Triple(EX.b, EX.p, EX.c))
    g.add(Triple(EX.c, EX.p, EX.d))
    g.add(Triple(EX.a, EX.q, EX.c))
    g.add(Triple(EX.d, EX.p, EX.d))
    g.add(Triple(EX.a, EX.name, Literal("a")))
    return g


def targets(graph, path, start):
    return {o for _, o in eval_path(graph, path, start=start)}


def sources(graph, path, end):
    return {s for s, _ in eval_path(graph, path, end=end)}


P = PathStep(EX.p)
Q = PathStep(EX.q)


class TestEvalPath:
    def test_single_step(self, graph):
        assert targets(graph, P, EX.a) == {EX.b}

    def test_sequence(self, graph):
        assert targets(graph, PathSequence([P, P]), EX.a) == {EX.c}

    def test_alternative(self, graph):
        assert targets(graph, PathAlternative([P, Q]), EX.a) == {EX.b, EX.c}

    def test_inverse(self, graph):
        assert targets(graph, PathInverse(P), EX.b) == {EX.a}

    def test_star_includes_start(self, graph):
        assert targets(graph, PathStar(P), EX.a) == {EX.a, EX.b, EX.c, EX.d}

    def test_plus_excludes_start_unless_cycle(self, graph):
        assert targets(graph, PathPlus(P), EX.a) == {EX.b, EX.c, EX.d}
        # d has a self loop: d p+ d holds
        assert EX.d in targets(graph, PathPlus(P), EX.d)

    def test_optional(self, graph):
        assert targets(graph, PathOptional(P), EX.a) == {EX.a, EX.b}

    def test_backward_star(self, graph):
        assert sources(graph, PathStar(P), EX.d) == {EX.a, EX.b, EX.c, EX.d}

    def test_backward_sequence(self, graph):
        assert sources(graph, PathSequence([P, P]), EX.c) == {EX.a}

    def test_both_bound(self, graph):
        assert list(eval_path(graph, PathPlus(P), start=EX.a, end=EX.d)) == [(EX.a, EX.d)]
        assert list(eval_path(graph, P, start=EX.a, end=EX.d)) == []

    def test_both_unbound(self, graph):
        pairs = set(eval_path(graph, PathSequence([P, P])))
        assert (EX.a, EX.c) in pairs
        assert (EX.b, EX.d) in pairs

    def test_literal_start_is_empty(self, graph):
        assert targets(graph, P, Literal("a")) == set()

    def test_no_duplicates(self, graph):
        # two routes a->c (p/p and q); alternative of both reports c once
        path = PathAlternative([PathSequence([P, P]), Q])
        results = list(eval_path(graph, path, start=EX.a))
        assert len(results) == len(set(results))

    def test_path_text_roundtrippable(self):
        path = PathAlternative([PathSequence([P, PathStar(Q)]), PathInverse(P)])
        text = path.text()
        assert "/" in text and "|" in text and "*" in text and "^" in text

    def test_equality(self):
        assert PathStar(P) == PathStar(PathStep(EX.p))
        assert PathStar(P) != PathPlus(P)


class TestPathParsing:
    def path_of(self, query_text):
        query = parse_query(query_text)
        pattern = query.pattern
        while not isinstance(pattern, BGP):
            pattern = getattr(pattern, "pattern", None) or pattern.left
        assert len(pattern.paths) == 1
        return pattern.paths[0].path

    def test_star(self):
        path = self.path_of("SELECT * WHERE { ?s <http://x/p>* ?o }")
        assert path == PathStar(P)

    def test_plus_and_sequence(self):
        path = self.path_of("SELECT * WHERE { ?s <http://x/p>+/<http://x/q> ?o }")
        assert path == PathSequence([PathPlus(P), Q])

    def test_alternative(self):
        path = self.path_of("SELECT * WHERE { ?s <http://x/p>|<http://x/q> ?o }")
        assert path == PathAlternative([P, Q])

    def test_grouping(self):
        path = self.path_of("SELECT * WHERE { ?s (<http://x/p>/<http://x/q>)* ?o }")
        assert path == PathStar(PathSequence([P, Q]))

    def test_inverse(self):
        path = self.path_of("SELECT * WHERE { ?s ^<http://x/p> ?o }")
        assert path == PathInverse(P)

    def test_optional_modifier(self):
        path = self.path_of("SELECT * WHERE { ?s <http://x/p>? ?o }")
        assert path == PathOptional(P)

    def test_a_in_path(self):
        path = self.path_of("SELECT * WHERE { ?s <http://x/p>/a ?o }")
        assert path == PathSequence([P, PathStep(RDF.type)])

    def test_plain_iri_not_a_path(self):
        query = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }")
        assert isinstance(query.pattern, BGP)
        assert query.pattern.paths == []
        assert len(query.pattern.patterns) == 1

    def test_update_template_rejects_paths(self):
        with pytest.raises(SparqlParseError, match="not allowed in templates"):
            parse_update("INSERT { ?s <http://x/p>* ?o } WHERE { ?s ?p ?o }")


class TestPathQueries:
    def test_figure8_as_one_query(self):
        """The paper's (isMappedTo)* rdf:type path as a single query."""
        from repro.synth.figures import build_figure3_snippet

        snippet = build_figure3_snippet()
        mdw = snippet.warehouse
        mdw.build_entailment_index()
        rows = mdw.query(
            """
            SELECT ?target WHERE {
              cs:client_information_id dt:isMappedTo+ ?target .
              ?target rdf:type dm:Application1_Item .
              ?target rdf:type dm:Interface_Item
            }
            """,
            rulebases=["OWLPRIME"],
        )
        assert rows.column("target") == [snippet.customer_id]

    def test_path_joins_with_triples(self, graph):
        rows = execute(
            graph,
            'SELECT ?end ?n WHERE { ?start <http://x/name> ?n . ?start <http://x/p>+ ?end }',
        )
        assert {r["end"] for r in rows} == {EX.b, EX.c, EX.d}
        assert all(r.value("n") == "a" for r in rows)

    def test_path_with_filter(self, graph):
        rows = execute(
            graph,
            'SELECT ?end WHERE { <http://x/a> <http://x/p>* ?end FILTER (str(?end) != "http://x/a") }',
        )
        assert {r["end"] for r in rows} == {EX.b, EX.c, EX.d}

    def test_path_bound_by_earlier_pattern(self, graph):
        rows = execute(
            graph,
            "SELECT ?x WHERE { ?x <http://x/q> ?mid . ?x <http://x/p>/<http://x/p> ?mid }",
        )
        assert rows.column("x") == [EX.a]

    def test_same_var_both_ends(self, graph):
        rows = execute(graph, "SELECT ?x WHERE { ?x <http://x/p>+ ?x }")
        assert rows.column("x") == [EX.d]  # only the self loop

    def test_distinct_over_path(self, graph):
        rows = execute(
            graph, "SELECT DISTINCT ?o WHERE { ?s (<http://x/p>|<http://x/q>)+ ?o }"
        )
        assert len(rows) == len({r["o"] for r in rows})


# -- property-based: closure operators vs networkx ---------------------------

_nodes = [EX[f"n{i}"] for i in range(8)]
edge_lists = st.lists(
    st.tuples(st.sampled_from(_nodes), st.sampled_from(_nodes)), max_size=20
)


@settings(max_examples=100)
@given(edge_lists, st.sampled_from(_nodes))
def test_star_matches_networkx_reachability(edges, start):
    g = Graph(Triple(s, EX.p, o) for s, o in edges)
    nxg = nx.DiGraph()
    nxg.add_nodes_from(_nodes)
    nxg.add_edges_from(edges)
    expected = nx.descendants(nxg, start) | {start}
    got = targets(g, PathStar(P), start)
    assert got == expected


@settings(max_examples=100)
@given(edge_lists, st.sampled_from(_nodes))
def test_plus_matches_networkx_descendants(edges, start):
    g = Graph(Triple(s, EX.p, o) for s, o in edges)
    nxg = nx.DiGraph()
    nxg.add_nodes_from(_nodes)
    nxg.add_edges_from(edges)
    # p+ relates start to everything reachable in >= 1 hop; unlike
    # nx.descendants that includes start itself when a cycle returns to it
    expected = set()
    for successor in nxg.successors(start):
        expected |= nx.descendants(nxg, successor) | {successor}
    got = targets(g, PathPlus(P), start)
    assert got == expected


@settings(max_examples=60)
@given(edge_lists, st.sampled_from(_nodes))
def test_forward_backward_symmetry(edges, node):
    g = Graph(Triple(s, EX.p, o) for s, o in edges)
    forward = {(node, o) for o in targets(g, PathPlus(P), node)}
    backward = {(s, node) for s in sources(g, PathPlus(P), node)}
    # (x, y) in forward of x  <=>  (x, y) in backward of y
    for s, o in forward:
        assert s in sources(g, PathPlus(P), o)
    for s, o in backward:
        assert o in targets(g, PathPlus(P), s)


@settings(max_examples=60)
@given(edge_lists)
def test_inverse_swaps_pairs(edges):
    g = Graph(Triple(s, EX.p, o) for s, o in edges)
    direct = set(eval_path(g, P))
    inverted = set(eval_path(g, PathInverse(P)))
    assert inverted == {(o, s) for s, o in direct}
