"""Unit tests for the join-order planner and result containers."""

import pytest

from repro.rdf import Graph, IRI, Literal, Namespace, Triple, Variable
from repro.sparql import order_patterns, plan_bgp
from repro.sparql.results import Row, SolutionSequence

EX = Namespace("http://x/")


@pytest.fixture
def graph():
    g = Graph()
    # 100 persons, 1 special node
    for i in range(100):
        g.add(Triple(EX[f"p{i}"], EX.type, EX.Person))
    g.add(Triple(EX.special, EX.name, Literal("one")))
    g.add(Triple(EX.special, EX.type, EX.Person))
    return g


def scan_estimate(graph, pattern):
    return plan_bgp(graph, [pattern]).stages[0].rows_out


class TestSelectivity:
    def test_constant_pattern_exact(self, graph):
        pattern = Triple(Variable("x"), EX.type, EX.Person)
        assert scan_estimate(graph, pattern) == 101

    def test_rare_pattern(self, graph):
        pattern = Triple(Variable("x"), EX.name, Variable("n"))
        assert scan_estimate(graph, pattern) == 1

    def test_fully_ground(self, graph):
        pattern = Triple(EX.special, EX.name, Literal("one"))
        assert scan_estimate(graph, pattern) == 1


class TestOrdering:
    def test_cheapest_first(self, graph):
        broad = Triple(Variable("x"), EX.type, EX.Person)
        narrow = Triple(Variable("x"), EX.name, Variable("n"))
        assert order_patterns(graph, [broad, narrow]) == [narrow, broad]

    def test_connected_preferred_over_cartesian(self, graph):
        narrow = Triple(Variable("x"), EX.name, Variable("n"))
        connected_broad = Triple(Variable("x"), EX.type, Variable("t"))
        disconnected = Triple(Variable("y"), EX.name, Variable("m"))
        ordered = order_patterns(graph, [narrow, disconnected, connected_broad])
        assert ordered[0] == narrow
        # the pattern sharing ?x comes next despite its far higher count;
        # the equally-cheap disconnected pattern would be a cartesian product
        assert ordered[1] == connected_broad

    def test_permutation_preserved(self, graph):
        patterns = [
            Triple(Variable("a"), EX.type, EX.Person),
            Triple(Variable("a"), EX.name, Variable("n")),
        ]
        ordered = order_patterns(graph, patterns)
        assert sorted(map(id, ordered)) == sorted(map(id, patterns)) or set(
            map(repr, ordered)
        ) == set(map(repr, patterns))

    def test_deterministic(self, graph):
        patterns = [
            Triple(Variable("a"), EX.type, EX.Person),
            Triple(Variable("b"), EX.type, EX.Person),
            Triple(Variable("a"), EX.name, Variable("n")),
        ]
        assert order_patterns(graph, patterns) == order_patterns(graph, patterns)

    def test_empty(self, graph):
        assert order_patterns(graph, []) == []
        # the method names a planner, as for any other BGP
        assert plan_bgp(graph, []).method == "dp"


class TestRow:
    def test_getitem_and_missing(self):
        row = Row({"a": Literal(1)})
        assert row["a"] == Literal(1)
        assert row["missing"] is None

    def test_value_conversion(self):
        row = Row({"n": Literal(7), "i": IRI("http://x/a")})
        assert row.value("n") == 7
        assert row.value("i") == "http://x/a"
        assert row.value("missing") is None

    def test_equality_with_dict(self):
        assert Row({"a": Literal(1)}) == {"a": Literal(1)}

    def test_hashable(self):
        assert len({Row({"a": Literal(1)}), Row({"a": Literal(1)})}) == 1

    def test_contains_and_keys(self):
        row = Row({"a": Literal(1)})
        assert "a" in row and "b" not in row
        assert list(row.keys()) == ["a"]

    def test_asdict_copy(self):
        row = Row({"a": Literal(1)})
        d = row.asdict()
        d["b"] = Literal(2)
        assert "b" not in row


class TestSolutionSequence:
    def make(self):
        rows = [Row({"n": Literal(i)}) for i in range(3)]
        return SolutionSequence(["n"], rows)

    def test_len_iter_index(self):
        seq = self.make()
        assert len(seq) == 3
        assert seq[1].value("n") == 1
        assert [r.value("n") for r in seq] == [0, 1, 2]

    def test_column_and_values(self):
        seq = self.make()
        assert seq.values("n") == [0, 1, 2]
        assert seq.column("n") == [Literal(0), Literal(1), Literal(2)]

    def test_to_dicts(self):
        assert self.make().to_dicts() == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_bool(self):
        assert self.make()
        assert not SolutionSequence(["x"], [])

    def test_as_table_contains_all(self):
        table = self.make().as_table()
        assert "?n" in table
        for i in range(3):
            assert str(i) in table

    def test_as_table_truncates(self):
        seq = SolutionSequence(["x"], [Row({"x": Literal("y" * 100)})])
        table = seq.as_table(max_width=20)
        assert "..." in table

    def test_as_table_empty(self):
        table = SolutionSequence(["x"], []).as_table()
        assert "?x" in table
