"""Compiled FILTER conditions answer what tree evaluation answers.

Every condition the evaluator tests (FILTER, HAVING, a SEM_MATCH SQL
``WHERE``) goes through :func:`repro.sparql.expressions.compile_condition`:
a FILTER's once, when its node is built. The matrix below runs each
condition shape against each kind of term, compiled and by tree
evaluation, and needs the same three-valued answer: True, False, or
None for an evaluation error. The FILTER pushdown
(:func:`repro.sparql.algebra.filter_bindings`) must keep the rows the
FILTER alone keeps.
"""

import pytest

from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.terms import BNode
from repro.sparql import execute, parse_query
from repro.sparql import algebra
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    BinaryExpr,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    compile_condition,
    effective_boolean_value,
)

XSD_INTEGER = IRI("http://www.w3.org/2001/XMLSchema#integer")

TERMS = {
    "iri": IRI("abc"),
    "plain": Literal("abc"),
    "language": Literal("abc", language="en"),
    "typed": Literal("abc", datatype=IRI("http://example.org/type")),
    "number": Literal("12", datatype=XSD_INTEGER),
    "other": Literal("xyz"),
    "blank": BNode("b1"),
    "unbound": None,
}

SHAPES = [
    'str(?x) = "abc"',
    '"abc" = str(?x)',
    'str(?x) != "abc"',
    'str(?x) = "12"',
    # term equality, not string equality: false against <abc>
    '?x = "abc"',
    '?x != "abc"',
    # a language-tagged constant never equals a plain str() result
    'str(?x) = "abc"@en',
    'regex(?x, "^AB", "i")',
    'regex(str(?x), "c$")',
    'regexp_like(?x, "b")',
    'regex(?x, "(")',
    '!(str(?x) = "abc")',
    '!!regex(?x, "a")',
    'str(?x) = "abc" && bound(?x)',
    'str(?x) = "abc" || regex(?x, "y")',
    '!(str(?x) = "abc" || isBlank(?x))',
    '!(str(?x) != "abc" && ?y = "q")',
    'isIRI(?x) || str(?x) = "xyz"',
    "?x",
]


def tree(expr, binding):
    try:
        return effective_boolean_value(expr.evaluate(binding))
    except ExpressionError:
        return None


def condition(text):
    return parse_query(f"SELECT * WHERE {{ FILTER({text}) }}").pattern.condition


@pytest.mark.parametrize("kind", sorted(TERMS))
@pytest.mark.parametrize("shape", SHAPES)
def test_compiled_equals_tree(shape, kind):
    expr = condition(shape)
    term = TERMS[kind]
    binding = {} if term is None else {"x": term}
    assert compile_condition(expr)(binding) is tree(expr, binding)


@pytest.mark.parametrize(
    "shape",
    ['str(?x) = "abc"', 'regex(?x, "^AB", "i")', '!(str(?x) != "abc" || regex(str(?x), "z"))'],
)
def test_listing_shapes_never_walk_the_tree(shape, monkeypatch):
    """The shapes Listings 1 and 2 put in a FILTER run as closures."""
    test = compile_condition(condition(shape))

    def walked(self, binding):
        raise AssertionError("tree evaluation")

    for node in (VarExpr, UnaryExpr, BinaryExpr, FunctionExpr):
        monkeypatch.setattr(node, "evaluate", walked)
    assert test({"x": Literal("abc")}) is True


def test_the_traps_answer_false():
    iri = {"x": IRI("abc")}
    assert compile_condition(condition('?x = "abc"'))(iri) is False
    assert compile_condition(condition('str(?x) = "abc"@en'))({"x": Literal("abc")}) is False
    assert compile_condition(condition('str(?x) = "abc"'))(iri) is True


def test_filter_inside_optional_is_compiled_once(monkeypatch):
    """1 000 left rows re-run the OPTIONAL side; its FILTER was compiled
    once, when its node was built."""
    ex = "http://x/"
    graph = Graph()
    for i in range(1000):
        graph.add(Triple(IRI(f"{ex}s{i}"), IRI(ex + "p"), Literal(f"v{i}")))
        graph.add(Triple(IRI(f"{ex}s{i}"), IRI(ex + "q"), Literal("keep" if i % 2 else "drop")))
    compiled = []

    def counting(expr):
        compiled.append(expr)
        return compile_condition(expr)

    monkeypatch.setattr(algebra, "compile_condition", counting)
    rows = execute(
        graph,
        "SELECT * WHERE { ?s <http://x/p> ?v "
        'OPTIONAL { ?s <http://x/q> ?k FILTER(str(?k) = "keep") } }',
    )
    assert len(rows) == 1000
    assert sum(1 for row in rows if row["k"] is not None) == 500
    assert len(compiled) == 1


# ---------------------------------------------------------------------------
# Pushdown equals post-filter: what ``filter_bindings`` binds never
# changes the rows the FILTER keeps
# ---------------------------------------------------------------------------

EX = "http://x/"
NAMES = ["abc", "abd", "xyz", "Bcd", "qqq"]


@pytest.fixture(scope="module")
def named_graph():
    graph = Graph()
    for i in range(30):
        subject = IRI(f"{EX}s{i}")
        graph.add(Triple(subject, IRI(EX + "type"), IRI(EX + "T")))
        graph.add(Triple(subject, IRI(EX + "name"), Literal(NAMES[i % len(NAMES)])))
    # an IRI name with the text of a literal one
    graph.add(Triple(IRI(EX + "s30"), IRI(EX + "type"), IRI(EX + "T")))
    graph.add(Triple(IRI(EX + "s30"), IRI(EX + "name"), IRI("abc")))
    return graph


NAMED = "?s <http://x/type> <http://x/T> . ?s <http://x/name> ?n"

#: id -> (group body, initial bindings, names the pushdown binds)
PUSHDOWN_CASES = {
    "regex": (f'{NAMED} FILTER(regex(?n, "^ab"))', None, set()),
    "regexp_like": (f'{NAMED} FILTER(regexp_like(?n, "B", "i"))', None, set()),
    # an object can be a literal with the IRI's text: never pushed
    "str-equality on an object, literal and IRI": (
        f'{NAMED} FILTER(str(?n) = "abc")', None, set()
    ),
    "or": (f'{NAMED} FILTER(regex(?n, "a") || regex(?n, "z"))', None, set()),
    "not": (f'{NAMED} FILTER(!regex(?n, "a"))', None, set()),
    "bad pattern": (f'{NAMED} FILTER(regex(?n, "("))', None, set()),
    "conjunction": (
        f'{NAMED} FILTER(regex(?n, "b") && str(?s) != "http://x/s1")', None, set()
    ),
    "nested filters": (
        f'{NAMED} FILTER(str(?s) = "http://x/s0") FILTER(regex(?n, "a"))', None, {"s"}
    ),
    "pre-bound name": (f'{NAMED} FILTER(regex(?n, "a"))', {"n": Literal("abc")}, set()),
    "bound subject": ('<http://x/s1> <http://x/name> ?n FILTER(regex(?n, "b"))', None, set()),
    "equality binds the subject": (
        f'{NAMED} FILTER(str(?s) = "http://x/s2" && regex(?n, "x"))', None, {"s"}
    ),
}


@pytest.mark.parametrize("case", sorted(PUSHDOWN_CASES))
def test_pushdown_agrees_with_post_filter(named_graph, monkeypatch, case):
    body, bindings, binds = PUSHDOWN_CASES[case]
    text = f"SELECT * WHERE {{ {body} }}"
    node, pushed_names = parse_query(text).pattern, set()
    while isinstance(node, algebra.Filter):
        pushed_names |= set(algebra.filter_bindings(node, bindings or {}))
        node = node.pattern
    assert pushed_names == binds
    pushed = sorted(map(repr, execute(named_graph, text, bindings=bindings).to_dicts()))
    monkeypatch.setattr("repro.sparql.evaluator.filter_bindings", lambda node, bound: {})
    post = sorted(map(repr, execute(named_graph, text, bindings=bindings).to_dicts()))
    assert pushed == post
