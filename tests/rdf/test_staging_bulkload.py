"""Unit tests for staging tables and the bulk loader (Figure 4 pipeline)."""

import pytest

from repro.rdf import (
    BNode,
    BulkLoader,
    BulkLoadError,
    IRI,
    Literal,
    StagingRow,
    StagingTable,
    Triple,
    TripleStore,
)
from repro.rdf.staging import parse_lexical_term, row_to_triple


class TestParseLexicalTerm:
    def test_iri(self):
        assert parse_lexical_term("<http://x/a>") == IRI("http://x/a")

    def test_bnode(self):
        assert parse_lexical_term("_:b7") == BNode("b7")

    def test_plain_literal(self):
        assert parse_lexical_term('"Zurich"') == Literal("Zurich")

    def test_lang_literal(self):
        assert parse_lexical_term('"Zurich"@de') == Literal("Zurich", language="de")

    def test_typed_literal(self):
        term = parse_lexical_term('"100"^^<http://www.w3.org/2001/XMLSchema#integer>')
        assert term == Literal(100)

    def test_escaped_quote(self):
        assert parse_lexical_term('"a\\"b"') == Literal('a"b')

    def test_whitespace_stripped(self):
        assert parse_lexical_term("  <http://x/a>  ") == IRI("http://x/a")

    @pytest.mark.parametrize(
        "bad",
        ["", "plainword", "<unterminated", '"unterminated', '"x"@', '"x"^^bad', '"x"%'],
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_lexical_term(bad)


class TestRowToTriple:
    def test_good_row(self):
        row = StagingRow("<http://x/s>", "<http://x/p>", '"o"')
        assert row_to_triple(row) == Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            row_to_triple(StagingRow('"s"', "<http://x/p>", '"o"'))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(ValueError):
            row_to_triple(StagingRow("<http://x/s>", "_:p", '"o"'))


class TestStagingTable:
    def test_insert_and_len(self):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"', source="feed-a")
        assert len(st) == 1
        assert next(iter(st)).source == "feed-a"

    def test_insert_triples(self):
        st = StagingTable()
        n = st.insert_triples(
            [Triple(IRI("http://x/s"), IRI("http://x/p"), Literal(i)) for i in range(3)]
        )
        assert n == 3
        assert len(st) == 3

    def test_truncate(self):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        st.truncate()
        assert len(st) == 0


@pytest.fixture
def store():
    return TripleStore()


class TestBulkLoader:
    def test_load_creates_model(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        report = BulkLoader(store).load(st, "DWH_CURR")
        assert report.inserted == 1
        assert store.has_model("DWH_CURR")
        assert len(store.model("DWH_CURR")) == 1

    def test_staging_truncated_after_load(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        BulkLoader(store).load(st, "M")
        assert len(st) == 0

    def test_staging_kept_when_requested(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        BulkLoader(store).load(st, "M", truncate_staging=False)
        assert len(st) == 1

    def test_duplicates_counted(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        report = BulkLoader(store).load(st, "M")
        assert report.inserted == 1
        assert report.duplicates == 1
        assert report.total_rows == 2

    def test_lenient_quarantines_bad_rows(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"good"', source="feed")
        st.insert("garbage", "<http://x/p>", '"bad"', source="feed")
        report = BulkLoader(store).load(st, "M")
        assert report.inserted == 1
        assert len(report.rejected) == 1
        assert report.rejected[0][0].subject == "garbage"

    def test_strict_raises_and_leaves_model_untouched(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"good"')
        st.insert("garbage", "<http://x/p>", '"bad"')
        with pytest.raises(BulkLoadError):
            BulkLoader(store, strict=True).load(st, "M")
        assert not store.has_model("M")

    def test_per_source_accounting(self, store):
        st = StagingTable()
        st.insert("<http://x/a>", "<http://x/p>", '"1"', source="feed-a")
        st.insert("<http://x/b>", "<http://x/p>", '"2"', source="feed-b")
        st.insert("<http://x/c>", "<http://x/p>", '"3"', source="feed-b")
        report = BulkLoader(store).load(st, "M")
        assert report.per_source == {"feed-a": 1, "feed-b": 2}

    def test_load_many_merges(self, store):
        t1, t2 = StagingTable("a"), StagingTable("b")
        t1.insert("<http://x/a>", "<http://x/p>", '"1"', source="a")
        t2.insert("<http://x/b>", "<http://x/p>", '"2"', source="b")
        t2.insert("bad", "<http://x/p>", '"3"', source="b")
        report = BulkLoader(store).load_many([t1, t2], "M")
        assert report.inserted == 2
        assert len(report.rejected) == 1
        assert report.per_source == {"a": 1, "b": 1}

    def test_summary_text(self, store):
        st = StagingTable()
        st.insert("<http://x/s>", "<http://x/p>", '"o"')
        report = BulkLoader(store).load(st, "M")
        assert "1 inserted" in report.summary()


class TestBulkLoadErrorProgress:
    def test_load_many_reports_rows_loaded_before_failure(self, store):
        good = StagingTable("good")
        for n in range(5):
            good.insert(f"<http://x/s{n}>", "<http://x/p>", f'"v{n}"')
        bad = StagingTable("bad")
        bad.insert("garbage row", "<http://x/p>", '"v"')
        with pytest.raises(BulkLoadError) as err:
            BulkLoader(store, strict=True).load_many([good, bad], "M")
        assert err.value.loaded == 5
        assert "after 5 row(s) loaded" in str(err.value)
        assert len(err.value.rejected) == 1

    def test_single_strict_load_reports_zero_loaded(self, store):
        bad = StagingTable("bad")
        bad.insert("garbage row", "<http://x/p>", '"v"')
        with pytest.raises(BulkLoadError) as err:
            BulkLoader(store, strict=True).load(bad, "M")
        assert err.value.loaded == 0
