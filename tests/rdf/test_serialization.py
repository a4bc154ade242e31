"""Unit tests for N-Triples and Turtle serialization."""

import pytest

from repro.rdf import (
    BNode,
    Graph,
    IRI,
    Literal,
    NamespaceManager,
    NTriplesParseError,
    RDF,
    Triple,
    TurtleParseError,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)

EX = Graph(
    [
        Triple(IRI("http://x/alice"), RDF.type, IRI("http://x/Person")),
        Triple(IRI("http://x/alice"), IRI("http://x/name"), Literal("Alice")),
        Triple(IRI("http://x/alice"), IRI("http://x/age"), Literal(30)),
        Triple(IRI("http://x/alice"), IRI("http://x/bio"), Literal("said \"hi\"\nbye", language="en")),
        Triple(BNode("b1"), IRI("http://x/knows"), IRI("http://x/alice")),
    ]
)


class TestNTriples:
    def test_roundtrip(self):
        text = serialize_ntriples(EX)
        assert Graph(parse_ntriples(text)) == EX

    def test_deterministic_sorted_output(self):
        text = serialize_ntriples(EX)
        assert text == serialize_ntriples(Graph(reversed(list(EX))))
        lines = text.strip().splitlines()
        assert lines == sorted(lines)

    def test_empty_graph(self):
        assert serialize_ntriples(Graph()) == ""
        assert list(parse_ntriples("")) == []

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n<http://x/s> <http://x/p> <http://x/o> .\n"
        assert len(list(parse_ntriples(text))) == 1

    def test_error_carries_line_number(self):
        text = "<http://x/s> <http://x/p> <http://x/o> .\nbroken line\n"
        with pytest.raises(NTriplesParseError) as exc:
            list(parse_ntriples(text))
        assert exc.value.lineno == 2

    def test_missing_dot(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples("<http://x/s> <http://x/p> <http://x/o>"))

    def test_wrong_term_count(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples("<http://x/s> <http://x/p> ."))

    def test_literal_with_spaces_inside(self):
        text = '<http://x/s> <http://x/p> "two words here" .'
        [t] = list(parse_ntriples(text))
        assert t.object == Literal("two words here")

    def test_unterminated_literal(self):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples('<http://x/s> <http://x/p> "open .'))


class TestTurtle:
    def test_roundtrip(self):
        nsm = NamespaceManager()
        nsm.bind("ex", "http://x/")
        text = serialize_turtle(EX, nsm)
        assert parse_turtle(text) == EX

    def test_rdf_type_shortened_to_a(self):
        nsm = NamespaceManager()
        nsm.bind("ex", "http://x/")
        assert " a ex:Person" in serialize_turtle(EX, nsm)

    def test_prefix_declared(self):
        nsm = NamespaceManager()
        nsm.bind("ex", "http://x/")
        assert "@prefix ex: <http://x/> ." in serialize_turtle(EX, nsm)

    def test_object_list_comma(self):
        g = Graph(
            [
                Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("a")),
                Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("b")),
            ]
        )
        nsm = NamespaceManager()
        nsm.bind("ex", "http://x/")
        assert '"a", "b"' in serialize_turtle(g, nsm)

    def test_parse_predicate_lists(self):
        text = """
        @prefix ex: <http://x/> .
        ex:s ex:p ex:o ; ex:q "v" , "w" .
        """
        g = parse_turtle(text)
        assert len(g) == 3

    def test_parse_integer_shorthand(self):
        g = parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p 42 .")
        assert next(iter(g)).object == Literal(42)

    def test_parse_decimal_shorthand(self):
        g = parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p 4.25 .")
        obj = next(iter(g)).object
        assert obj.lexical == "4.25"
        assert obj.datatype.local_name == "decimal"

    def test_parse_boolean_shorthand(self):
        g = parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p true .")
        assert next(iter(g)).object.lexical == "true"

    def test_parse_lang_literal(self):
        g = parse_turtle('@prefix ex: <http://x/> .\nex:s ex:p "hallo"@de .')
        assert next(iter(g)).object == Literal("hallo", language="de")

    def test_parse_qname_datatype(self):
        g = parse_turtle('@prefix ex: <http://x/> .\nex:s ex:p "7"^^xsd:integer .')
        assert next(iter(g)).object == Literal(7)

    def test_parse_bnode_label(self):
        g = parse_turtle("@prefix ex: <http://x/> .\n_:n1 ex:p ex:o .")
        assert next(iter(g)).subject == BNode("n1")

    def test_parse_a_keyword(self):
        g = parse_turtle("@prefix ex: <http://x/> .\nex:s a ex:T .")
        assert next(iter(g)).predicate == RDF.type

    def test_comments_skipped(self):
        g = parse_turtle("# comment\n@prefix ex: <http://x/> . # trailing\nex:s ex:p ex:o .")
        assert len(g) == 1

    def test_unbound_prefix_error(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("nope:s nope:p nope:o .")

    def test_anonymous_bnode_rejected(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p [ ex:q ex:o ] .")
        assert "anonymous" in str(exc.value)

    def test_collection_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p (1 2) .")

    def test_missing_dot(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("@prefix ex: <http://x/> .\nex:s ex:p ex:o")

    def test_literal_subject_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle('"lit" <http://x/p> <http://x/o> .')

    def test_nsm_receives_document_prefixes(self):
        nsm = NamespaceManager()
        parse_turtle("@prefix zz: <http://zz/> .\nzz:s zz:p zz:o .", nsm)
        assert nsm.expand("zz:s") == IRI("http://zz/s")

    def test_deterministic(self):
        nsm = NamespaceManager()
        nsm.bind("ex", "http://x/")
        assert serialize_turtle(EX, nsm) == serialize_turtle(Graph(reversed(list(EX))), nsm)
