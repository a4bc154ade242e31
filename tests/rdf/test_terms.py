"""Unit tests for RDF terms."""

import pytest

from repro.rdf import BNode, IRI, Literal, Triple, Variable
from repro.rdf.terms import (
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    escape_literal,
    unescape_literal,
)


class TestIRI:
    def test_value_roundtrip(self):
        iri = IRI("http://example.org/Customer")
        assert iri.value == "http://example.org/Customer"

    def test_equality_and_hash(self):
        assert IRI("http://x/a") == IRI("http://x/a")
        assert IRI("http://x/a") != IRI("http://x/b")
        assert hash(IRI("http://x/a")) == hash(IRI("http://x/a"))

    def test_not_equal_to_string(self):
        assert IRI("http://x/a") != "http://x/a"

    def test_not_equal_to_literal_with_same_text(self):
        assert IRI("http://x/a") != Literal("http://x/a")

    def test_n3(self):
        assert IRI("http://x/a").n3() == "<http://x/a>"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            IRI(42)

    @pytest.mark.parametrize("bad", ["http://x/<a>", "http://x/a b", 'http://x/"', "a\nb"])
    def test_forbidden_characters_rejected(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    def test_immutable(self):
        iri = IRI("http://x/a")
        with pytest.raises(AttributeError):
            iri.value = "http://x/b"

    def test_local_name_hash(self):
        assert IRI("http://x/ns#Customer").local_name == "Customer"

    def test_local_name_slash(self):
        assert IRI("http://x/ns/Customer").local_name == "Customer"

    def test_namespace(self):
        assert IRI("http://x/ns#Customer").namespace == "http://x/ns#"

    def test_local_name_no_separator(self):
        assert IRI("urn:isbn").local_name == "urn:isbn" or IRI("mailto:x").local_name


class TestBNode:
    def test_fresh_labels_distinct(self):
        assert BNode() != BNode()

    def test_same_label_equal(self):
        assert BNode("x") == BNode("x")

    def test_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            BNode("")

    def test_immutable(self):
        b = BNode("x")
        with pytest.raises(AttributeError):
            b.label = "y"


class TestEveryTermReadsBack:
    """The constructors take only what :mod:`repro.rdf.syntax` reads."""

    @pytest.mark.parametrize(
        "label", ["acct(eu)__t", "a b", "t.", ".t", "-t", "a:b", "", "x\n"]
    )
    def test_unreadable_bnode_label_rejected(self, label):
        with pytest.raises(ValueError):
            BNode(label)

    @pytest.mark.parametrize("tag", ["en_GB", "en GB", "", "e@n", "1.0", "İ"])
    def test_unreadable_language_tag_rejected(self, tag):
        with pytest.raises(ValueError):
            Literal("x", language=tag)

    @pytest.mark.parametrize(
        "term",
        [
            BNode(),
            BNode("b1"),
            BNode("_x"),
            BNode("map_a.b__c-d"),
            BNode("naïve_1"),
            Literal("x", language="en"),
            Literal("x", language="EN-gb"),
            Literal("x", language="de-CH-1996"),
            Literal("x", language="fr-"),
        ],
        ids=repr,
    )
    def test_accepted_terms_read_back(self, term):
        from repro.rdf.staging import parse_lexical_term

        assert parse_lexical_term(term.n3()) == term


class TestLiteral:
    def test_plain(self):
        lit = Literal("Zurich")
        assert lit.lexical == "Zurich"
        assert lit.datatype is None
        assert lit.language is None

    def test_int_coercion(self):
        lit = Literal(100)
        assert lit.lexical == "100"
        assert lit.datatype.value == XSD_INTEGER
        assert lit.to_python() == 100

    def test_bool_coercion(self):
        lit = Literal(True)
        assert lit.lexical == "true"
        assert lit.datatype.value == XSD_BOOLEAN
        assert lit.to_python() is True

    def test_bool_false(self):
        assert Literal(False).to_python() is False

    def test_float_coercion(self):
        lit = Literal(1.5)
        assert lit.datatype.value == XSD_DOUBLE
        assert lit.to_python() == 1.5

    def test_language_normalized_lowercase(self):
        assert Literal("hi", language="EN").language == "en"

    def test_language_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=IRI(XSD_INTEGER), language="en")

    def test_plain_vs_datatyped_distinct(self):
        assert Literal("42") != Literal(42)

    def test_language_distinguishes(self):
        assert Literal("chat", language="en") != Literal("chat", language="fr")

    def test_n3_plain(self):
        assert Literal("abc").n3() == '"abc"'

    def test_n3_escaping(self):
        assert Literal('a"b\nc').n3() == '"a\\"b\\nc"'

    def test_n3_language(self):
        assert Literal("abc", language="en").n3() == '"abc"@en'

    def test_n3_datatype(self):
        assert Literal(7).n3() == f'"7"^^<{XSD_INTEGER}>'

    def test_is_numeric(self):
        assert Literal(7).is_numeric()
        assert not Literal("7").is_numeric()

    def test_to_python_plain_is_str(self):
        assert Literal("x").to_python() == "x"

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            Literal(None)


class TestVariable:
    def test_strip_question_mark(self):
        assert Variable("?x") == Variable("x")

    def test_n3(self):
        assert Variable("term").n3() == "?term"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Variable("")


class TestTriple:
    def test_unpacking(self):
        s, p, o = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert s == IRI("http://x/s")
        assert o == Literal("o")

    def test_accessors(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o"))
        assert t.subject == IRI("http://x/s")
        assert t.predicate == IRI("http://x/p")
        assert t.object == IRI("http://x/o")

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            Triple(Literal("s"), IRI("http://x/p"), Literal("o"))

    def test_literal_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(IRI("http://x/s"), Literal("p"), Literal("o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(IRI("http://x/s"), BNode(), Literal("o"))

    def test_is_ground(self):
        assert Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o")).is_ground()
        assert not Triple(Variable("s"), IRI("http://x/p"), Literal("o")).is_ground()
        assert not Triple(None, IRI("http://x/p"), Literal("o")).is_ground()

    def test_equality_as_tuple(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert t == (IRI("http://x/s"), IRI("http://x/p"), Literal("o"))

    def test_hashable(self):
        t1 = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        t2 = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert len({t1, t2}) == 1


class TestOrdering:
    def test_kind_order(self):
        # IRI < BNode < Literal per the deterministic total order
        assert IRI("http://z/") < BNode("a")
        assert BNode("z") < Literal("a")

    def test_sorting_mixed_terms(self):
        terms = [Literal("b"), IRI("http://x/a"), BNode("m"), Literal("a")]
        ordered = sorted(terms)
        assert ordered[0] == IRI("http://x/a")
        assert ordered[1] == BNode("m")
        assert ordered[2:] == [Literal("a"), Literal("b")]


class TestEscaping:
    @pytest.mark.parametrize(
        "raw",
        ["plain", 'quo"te', "back\\slash", "new\nline", "tab\there", "cr\rhere", ""],
    )
    def test_roundtrip(self, raw):
        assert unescape_literal(escape_literal(raw)) == raw

    def test_unicode_escape(self):
        assert unescape_literal("\\u00e9") == "é"

    def test_long_unicode_escape(self):
        assert unescape_literal("\\U0001F600") == "\U0001F600"

    def test_short_unicode_escape(self):
        with pytest.raises(ValueError):
            unescape_literal("a\\u00")

    def test_dangling_backslash(self):
        with pytest.raises(ValueError):
            unescape_literal("abc\\")

    def test_unknown_escape(self):
        with pytest.raises(ValueError):
            unescape_literal("\\q")
