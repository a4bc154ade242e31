"""Unit tests for freshness/quality meta-data, homonym warnings, and
role privileges — the Section I/II guarantees made queryable."""

import pytest

from repro.core import FactError, MetadataWarehouse, TERMS
from repro.etl import SynonymThesaurus
from repro.services import GovernanceService, ReportingAssistant, SearchFilters
from repro.synth import LandscapeConfig, generate_landscape
from repro.ui import render_search_results


@pytest.fixture
def mdw():
    mdw = MetadataWarehouse()
    col = mdw.schema.declare_class("Column")
    fast = mdw.facts.add_instance("rt_customer_feed", col, display_name="customer_feed")
    mdw.facts.set_freshness(fast, "realtime")
    mdw.facts.set_quality(fast, 0.55)
    mdw.facts.set_area(fast, TERMS.area_inbound)
    slow = mdw.facts.add_instance("mart_customer_kpi", col, display_name="customer_kpi")
    mdw.facts.set_freshness(slow, "weekly")
    mdw.facts.set_quality(slow, 0.97)
    mdw.facts.set_area(slow, TERMS.area_mart)
    bare = mdw.facts.add_instance("customer_raw", col, display_name="customer_raw")
    return mdw


class TestFreshnessQualityFacts:
    def test_set_and_get(self, mdw):
        item = mdw.search.search("customer_feed").hits[0].instance
        assert mdw.facts.freshness_of(item) == "realtime"
        assert mdw.facts.quality_of(item) == 0.55

    def test_unset_is_none(self, mdw):
        item = mdw.search.search("customer_raw").hits[0].instance
        assert mdw.facts.freshness_of(item) is None
        assert mdw.facts.quality_of(item) is None

    def test_invalid_grade_rejected(self, mdw):
        item = mdw.search.search("customer_raw").hits[0].instance
        with pytest.raises(FactError, match="freshness"):
            mdw.facts.set_freshness(item, "yearly")

    def test_quality_range_enforced(self, mdw):
        item = mdw.search.search("customer_raw").hits[0].instance
        with pytest.raises(FactError, match="quality"):
            mdw.facts.set_quality(item, 1.5)

    def test_update_replaces(self, mdw):
        item = mdw.search.search("customer_feed").hits[0].instance
        mdw.facts.set_freshness(item, "daily")
        assert mdw.facts.freshness_of(item) == "daily"
        assert mdw.graph.count(item, TERMS.freshness, None) == 1

    def test_still_conformant(self, mdw):
        assert mdw.validate().conformant


class TestSearchFilters:
    def test_freshness_filter(self, mdw):
        results = mdw.search.search("customer", SearchFilters(freshness=["realtime"]))
        assert results.instance_names() == ["customer_feed"]

    def test_multiple_grades(self, mdw):
        results = mdw.search.search(
            "customer", SearchFilters(freshness=["realtime", "weekly"])
        )
        assert len(results) == 2

    def test_freshness_filter_drops_unannotated(self, mdw):
        results = mdw.search.search("customer", SearchFilters(freshness=["daily"]))
        assert len(results) == 0

    def test_min_quality_filter(self, mdw):
        results = mdw.search.search("customer", SearchFilters(min_quality=0.9))
        # high-quality item passes; unannotated item is kept (no failed
        # guarantee); the low-quality feed is dropped
        assert results.instance_names() == ["customer_kpi", "customer_raw"]

    def test_quality_and_area_combine(self, mdw):
        results = mdw.search.search(
            "customer", SearchFilters(min_quality=0.9, areas=[TERMS.area_mart])
        )
        assert results.instance_names() == ["customer_kpi"]


class TestLandscapeServiceLevels:
    @pytest.fixture(scope="class")
    def landscape(self):
        return generate_landscape(LandscapeConfig.tiny(seed=6))

    def test_pipeline_quality_increases(self, landscape):
        facts = landscape.warehouse.facts
        staging_quality = [facts.quality_of(c) for c in landscape.staging_columns]
        mart_quality = [facts.quality_of(a) for a in landscape.report_attributes]
        assert staging_quality and mart_quality
        assert max(staging_quality) < min(mart_quality)

    def test_staging_is_freshest(self, landscape):
        facts = landscape.warehouse.facts
        for column in landscape.staging_columns:
            assert facts.freshness_of(column) in ("realtime", "intraday")
        for attr in landscape.report_attributes:
            assert facts.freshness_of(attr) in ("daily", "weekly")

    def test_reporting_assistant_reports_quality(self, landscape):
        mdw = landscape.warehouse
        name = mdw.facts.name_of(landscape.report_attributes[0])
        plan = ReportingAssistant(mdw).plan_report([name], expand_synonyms=False)
        best = plan.best(name)
        assert best.quality is not None and best.quality >= 0.9
        assert best.freshness in ("daily", "weekly")


class TestHomonymWarnings:
    def test_warning_surfaces(self):
        mdw = MetadataWarehouse()
        col = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("bank_code", col, display_name="bank_code")
        thesaurus = SynonymThesaurus()
        thesaurus.add_homonym("bank", "river bank")
        thesaurus.materialize(mdw.graph)
        results = mdw.search.search("bank", expand_synonyms=True)
        assert results.homonym_warnings == ["river bank"]
        assert results.expanded_terms == ["bank"]
        assert "homonyms exist" in render_search_results(results)

    def test_no_warning_without_expansion(self):
        mdw = MetadataWarehouse()
        col = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("bank_code", col, display_name="bank_code")
        results = mdw.search.search("bank")
        assert results.homonym_warnings == []


class TestPrivileges:
    @pytest.fixture
    def setup(self):
        mdw = MetadataWarehouse()
        app_cls = mdw.schema.declare_class("Application")
        role_cls = mdw.schema.declare_class("Role")
        user_cls = mdw.schema.declare_class("User")
        app = mdw.facts.add_instance("payments", app_cls)
        other_app = mdw.facts.add_instance("custody", app_cls)
        role = mdw.facts.add_instance("role_admin", role_cls, display_name="administrator")
        alice = mdw.facts.add_instance("alice", user_cls)
        from repro.rdf import Triple

        mdw.graph.add(Triple(role, TERMS.for_application, app))
        mdw.graph.add(Triple(alice, TERMS.plays_role, role))
        service = GovernanceService(mdw)
        service.grant(role, "read")
        service.grant(role, "admin")
        return mdw, service, app, other_app, role, alice

    def test_grant_and_lookup(self, setup):
        _, service, app, _, role, alice = setup
        assert service.privileges_of_role(role) == {"read", "admin"}
        assert service.privileges_of_user(alice) == {"read", "admin"}

    def test_authorize(self, setup):
        _, service, app, other_app, _, alice = setup
        assert service.authorize(alice, "admin", app)
        assert not service.authorize(alice, "approve", app)
        assert not service.authorize(alice, "admin", other_app)

    def test_revoke(self, setup):
        _, service, app, _, role, alice = setup
        assert service.revoke(role, "admin")
        assert not service.authorize(alice, "admin", app)
        assert not service.revoke(role, "admin")  # already gone

    def test_empty_privilege_rejected(self, setup):
        _, service, _, _, role, _ = setup
        with pytest.raises(ValueError):
            service.grant(role, "")

    def test_landscape_roles_carry_privileges(self):
        landscape = generate_landscape(LandscapeConfig.tiny(seed=6))
        service = GovernanceService(landscape.warehouse)
        app = landscape.source_applications[0]
        owner = service.owner_of(app)
        assert owner is not None
        assert "approve" in service.privileges_of_user(owner, app)

    def test_privilege_facts_conformant(self, setup):
        mdw = setup[0]
        assert mdw.validate().conformant
