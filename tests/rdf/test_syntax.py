"""The shared term syntax: one escape table and one meaning per token
across SPARQL, SPARQL Update, Turtle, N-Triples and staging rows."""

import pytest

from repro.rdf import (
    BulkLoader,
    Graph,
    IRI,
    Literal,
    NTriplesParseError,
    StagingTable,
    TripleStore,
    TurtleParseError,
    parse_ntriples,
    parse_turtle,
)
from repro.rdf.staging import parse_lexical_term
from repro.rdf.syntax import TermReader, TermSyntaxError, tokenize
from repro.sparql import SparqlParseError, execute, parse_query
from repro.sparql.update import parse_update

# the text between the quotes -> its decoded value, or None when malformed
ESCAPES = {
    r"\uZZZZ": None,
    r"a\u00": None,  # a short escape right before the closing quote
    r"\U0001F600": "\U0001F600",
    r"\q": None,
    "a\\": None,  # a trailing backslash escapes the closing quote
}


class Rejected(Exception):
    """The bulk loader rejected the staged row."""


def via_query(body):
    query = parse_query(f'SELECT ?s WHERE {{ ?s <http://x/p> "{body}" }}')
    return query.pattern.patterns[0].object


def via_update(body):
    [statement] = parse_update(f'INSERT DATA {{ <http://x/s> <http://x/p> "{body}" }}')
    return statement.insert_template[0].object


def via_turtle(body):
    return next(iter(parse_turtle(f'<http://x/s> <http://x/p> "{body}" .'))).object


def via_ntriples(body):
    return next(parse_ntriples(f'<http://x/s> <http://x/p> "{body}" .\n')).object


def via_staging(body):
    staging = StagingTable()
    staging.insert("<http://x/s>", "<http://x/p>", f'"{body}"')
    store = TripleStore()
    report = BulkLoader(store).load(staging, "M")
    if report.rejected:
        raise Rejected(report.rejected[0][1])
    return next(iter(store.model("M"))).object


ENTRY_POINTS = {
    "query": (via_query, SparqlParseError),
    "update": (via_update, SparqlParseError),
    "turtle": (via_turtle, TurtleParseError),
    "ntriples": (via_ntriples, NTriplesParseError),
    "staging": (via_staging, Rejected),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("body", list(ESCAPES), ids=list(ESCAPES))
def test_one_escape_table(entry, body):
    """Every reader decodes the same literal or raises its own typed error."""
    read, error = ENTRY_POINTS[entry]
    expected = ESCAPES[body]
    if expected is None:
        with pytest.raises(error):
            read(body)
    else:
        assert read(body) == Literal(expected)


@pytest.mark.parametrize("token", ["007", "+5", "-0", "1.50", "42"])
def test_number_token_means_the_same_in_turtle_and_sparql(token):
    """A number keeps its lexical form in both languages (SPARQL 1.1
    §4.1.2), so the token that loaded a value also matches it."""
    graph = parse_turtle(f"<http://x/s> <http://x/p> {token} .")
    [triple] = graph
    assert triple.object.lexical == token
    rows = execute(graph, f"SELECT ?s WHERE {{ ?s <http://x/p> {token} }}")
    assert len(rows) == 1


def test_ntriples_lines_come_from_the_tokens():
    """Only a line feed or carriage return ends a line: a literal may
    hold any other character ``str.splitlines`` breaks at."""
    odd = "a\x0bb\x0cc\x1cd\x85e f"
    text = f'<http://x/s> <http://x/p> "{odd}" .\r\n# a comment\r<http://x/s> <http://x/q> "x" .\r'
    assert [t.object for t in parse_ntriples(text)] == [Literal(odd), Literal("x")]
    with pytest.raises(NTriplesParseError) as err:
        list(parse_ntriples(text + "\n<http://x/s> <http://x/p>\n<http://x/o> .\n"))
    assert err.value.lineno == 4


def test_every_iri_reads_back():
    """An IRIREF token excludes exactly the characters IRI() forbids."""
    iri = IRI("http://x/a\x01\x0bb\x85c\xa0d")
    assert parse_lexical_term(iri.n3()) == iri
    assert next(parse_ntriples(f"{iri.n3()} <http://x/p> {iri.n3()} .")).object == iri


def test_ntriples_one_triple_per_line():
    with pytest.raises(NTriplesParseError):
        list(parse_ntriples("<http://x/s> <http://x/p> <http://x/o> . <http://x/s> <http://x/p> <http://x/a> ."))


@pytest.mark.parametrize("text", ["ex:a", "42", "true", "'single'", "a", "?x"])
def test_ntriples_mode_reads_no_shorthand(text):
    """Without a namespace manager the reader takes N-Triples terms only."""
    with pytest.raises(TermSyntaxError):
        TermReader(text).parse_term()


def test_turtle_reads_prefix_directives_both_ways():
    graph = parse_turtle(
        "@prefix ex: <http://x/> .\nPREFIX ey: <http://y/>\nex:s ey:p ex:o ; a ex:T ."
    )
    assert len(graph) == 2 and isinstance(graph, Graph)


def test_lexer_errors_carry_the_line():
    with pytest.raises(TermSyntaxError) as err:
        tokenize('?a\n?b\n"open')
    assert err.value.line == 3
