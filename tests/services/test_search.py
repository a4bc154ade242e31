"""Unit tests for the search facility (use case IV.A, Figures 5 and 6)."""

import pytest

from repro.core import MetadataWarehouse, TERMS, World
from repro.etl import SynonymThesaurus
from repro.services import SearchFilters, SearchService
from repro.synth.figures import build_figure3_snippet


@pytest.fixture
def snippet():
    return build_figure3_snippet()


@pytest.fixture
def mdw(snippet):
    return snippet.warehouse


class TestFigure5Walkthrough:
    """The paper's own worked example of the search algorithm."""

    def test_narrowing_to_application1_view_column(self, mdw, snippet):
        service = mdw.search
        valid = service.valid_classes(
            SearchFilters(classes=["Application1 Item", "Interface Item"])
        )
        # steps 1+2: the intersection is exactly Application1_View_Column
        assert valid == {snippet.classes["Application1 View Column"]}

    def test_step3_finds_customer_id(self, mdw, snippet):
        results = mdw.search.search(
            "customer",
            SearchFilters(classes=["Application1 Item", "Interface Item"]),
        )
        assert [h.instance for h in results.hits] == [snippet.customer_id]

    def test_inherited_group_memberships(self, mdw, snippet):
        """customer_id appears in every parent class's group (Figure 6)."""
        results = mdw.search.search(
            "customer",
            SearchFilters(classes=["Application1 Item", "Interface Item"]),
        )
        group_labels = {label for _, label, _ in results.groups()}
        assert {"Column", "Attribute", "Item", "Application1 Item", "Interface Item"} <= group_labels

    def test_one_filter_still_excludes_source_file_columns(self, mdw, snippet):
        # partner_id and client_information_id match "id" but are no
        # Application1 items
        results = mdw.search.search("id", SearchFilters(classes=["Application1 Item"]))
        assert [h.instance for h in results.hits] == [snippet.customer_id]

    def test_empty_intersection_is_empty(self, mdw):
        filters = SearchFilters(classes=["Source File Column", "Interface Item"])
        assert len(mdw.search.search("id", filters)) == 0

    def test_unnarrowed_search(self, mdw, snippet):
        results = mdw.search.search("customer")
        assert snippet.customer_id in [h.instance for h in results.hits]

    def test_partner_not_matched(self, mdw):
        results = mdw.search.search("customer")
        assert all("partner" not in h.name for h in results.hits)


class TestFilters:
    @pytest.fixture
    def mdw(self):
        mdw = MetadataWarehouse()
        item = mdw.schema.declare_class("Item")
        col = mdw.schema.declare_class("Column", parents=item)
        biz = mdw.schema.declare_class("Business Term", world=World.BUSINESS, parents=item)
        a = mdw.facts.add_instance("customer_id_col", col, display_name="customer_id")
        mdw.facts.set_area(a, TERMS.area_inbound)
        mdw.facts.set_level(a, TERMS.level_physical)
        b = mdw.facts.add_instance("customer_total", col, display_name="customer_total")
        mdw.facts.set_area(b, TERMS.area_mart)
        mdw.facts.set_level(b, TERMS.level_logical)
        t = mdw.facts.add_instance("customer_term", biz, display_name="customer")
        return mdw

    def test_area_filter(self, mdw):
        results = mdw.search.search(
            "customer", SearchFilters(areas=[TERMS.area_mart])
        )
        assert results.instance_names() == ["customer_total"]

    def test_level_filter(self, mdw):
        results = mdw.search.search(
            "customer", SearchFilters(levels=[TERMS.level_physical])
        )
        assert results.instance_names() == ["customer_id"]

    def test_world_filter(self, mdw):
        results = mdw.search.search("customer", SearchFilters(world=World.BUSINESS))
        assert results.instance_names() == ["customer"]

    def test_class_filter_by_label(self, mdw):
        results = mdw.search.search("customer", SearchFilters(classes=["Column"]))
        assert len(results) == 2

    def test_class_filter_by_iri(self, mdw):
        cls = mdw.schema.class_by_label("Column")
        results = mdw.search.search("customer", SearchFilters(classes=[cls]))
        assert len(results) == 2

    def test_unknown_class_filter(self, mdw):
        with pytest.raises(KeyError):
            mdw.search.search("customer", SearchFilters(classes=["Nonexistent"]))

    def test_case_insensitive(self, mdw):
        assert len(mdw.search.search("CUSTOMER")) == 3

    def test_regex_mode(self, mdw):
        results = mdw.search.search("^customer_(id|total)$", regex=True)
        assert len(results) == 2

    def test_no_hits(self, mdw):
        assert len(mdw.search.search("zzz_nothing")) == 0


class TestSynonyms:
    @pytest.fixture
    def mdw(self):
        mdw = MetadataWarehouse()
        col = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("client_number", col, display_name="client_number")
        mdw.facts.add_instance("customer_code", col, display_name="customer_code")
        thesaurus = SynonymThesaurus()
        thesaurus.add_synonym("customer", "client")
        thesaurus.materialize(mdw.graph)
        return mdw

    def test_expansion_widens_hits(self, mdw):
        plain = mdw.search.search("customer")
        expanded = mdw.search.search("customer", expand_synonyms=True)
        assert len(plain) == 1
        assert len(expanded) == 2
        assert expanded.expanded_terms == ["customer", "client"]

    def test_matched_term_recorded(self, mdw):
        expanded = mdw.search.search("customer", expand_synonyms=True)
        matched = {h.name: h.matched_term for h in expanded.hits}
        assert matched["client_number"] == "client"
        assert matched["customer_code"] == "customer"

    def test_thesaurus_rebuilt_from_graph(self, mdw):
        service = SearchService(mdw)
        assert service.thesaurus.synonyms("customer") == {"client"}

    def test_invalidate_thesaurus(self, mdw):
        service = SearchService(mdw)
        _ = service.thesaurus
        extra = SynonymThesaurus()
        extra.add_synonym("customer", "partner")
        extra.materialize(mdw.graph)
        service.invalidate_thesaurus()
        assert "partner" in service.thesaurus.synonyms("customer")


class TestGroups:
    def test_counts_sum_per_class(self, snippet):
        mdw = snippet.warehouse
        results = mdw.search.search("id")  # hits all three items
        for cls, label, count in results.groups():
            assert count == len(results.group_members(cls))

    def test_groups_sorted_by_label(self, snippet):
        results = snippet.warehouse.search.search("id")
        labels = [label for _, label, _ in results.groups()]
        assert labels == sorted(labels)

    def test_distinct_hits_not_double_counted(self, snippet):
        results = snippet.warehouse.search.search("id")
        assert len(results) == 3  # client_information_id, partner_id, customer_id


class TestThesaurusDeltaInvalidation:
    """A graph-built thesaurus only goes stale on thesaurus-edge changes."""

    @pytest.fixture
    def mdw(self):
        mdw = MetadataWarehouse()
        col = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("client_number", col, display_name="client_number")
        thesaurus = SynonymThesaurus()
        thesaurus.add_synonym("customer", "client")
        thesaurus.materialize(mdw.graph)
        return mdw

    def test_unrelated_change_keeps_cached_thesaurus(self, mdw):
        service = SearchService(mdw)
        cached = service.thesaurus
        mdw.facts.add_instance(
            "partner_code",
            mdw.schema.namespace.term("Column"),
            display_name="partner_code",
        )
        assert service.thesaurus is cached

    def test_synonym_edge_invalidates(self, mdw):
        service = SearchService(mdw)
        cached = service.thesaurus
        extra = SynonymThesaurus()
        extra.add_synonym("customer", "partner")
        extra.materialize(mdw.graph)
        rebuilt = service.thesaurus
        assert rebuilt is not cached
        assert "partner" in rebuilt.synonyms("customer")

    def test_explicit_thesaurus_is_never_auto_invalidated(self, mdw):
        explicit = SynonymThesaurus()
        explicit.add_synonym("customer", "konto")
        service = SearchService(mdw, thesaurus=explicit)
        extra = SynonymThesaurus()
        extra.add_synonym("customer", "partner")
        extra.materialize(mdw.graph)
        assert service.thesaurus is explicit
