"""Degraded-mode serving: circuit breakers, health, the degraded flag."""

import time

import pytest

from repro.core.vocabulary import TERMS
from repro.errors import InvalidOption
from repro.resilience import FaultInjector
from repro.resilience.faults import fault_scope
from repro.server import CircuitOpen, QueryService, ServiceConfig
from repro.server import service as service_module
from repro.server.service import dispatch
from repro.services.search import SearchFilters
from repro.sparql import SparqlParseError
from repro.synth import LandscapeConfig, generate_landscape

from .conftest import breaker_settings, canonical


@pytest.fixture()
def warehouse():
    mdw = generate_landscape(LandscapeConfig.tiny(seed=11)).warehouse
    mdw.build_entailment_index("OWLPRIME")
    return mdw


def trip(breaker):
    for _ in range(breaker.threshold):
        breaker.on_failure()


def service_of(warehouse, **overrides):
    defaults = dict(max_workers=2, max_queue=8)
    defaults.update(overrides)
    return QueryService(warehouse, ServiceConfig(**defaults))


class TestHealth:
    def test_healthy_service_reports_ok(self, warehouse):
        with service_of(warehouse) as service:
            health = service.health()
            assert health["status"] == "healthy"
            assert health["stale_indexes"] == []
            assert set(health["endpoints"]) == {
                "query", "sql", "search", "lineage",
                "lookup", "update",
            }
            assert all(
                doc["breaker"]["state"] == "closed"
                for doc in health["endpoints"].values()
            )
            assert health["generation"] == service.snapshots.generation

    def test_closed_service_reports_closed(self, warehouse):
        service = service_of(warehouse)
        service.close()
        assert service.health()["status"] == "closed"

    def test_stale_index_degrades_health(self, warehouse):
        injector = FaultInjector()
        injector.arm("index.staleness", "corrupt", value=True)
        with service_of(warehouse) as service:
            with fault_scope(injector):
                health = service.health()
            assert health["status"] == "degraded"
            assert health["stale_indexes"] == ["OWLPRIME"]

    def test_open_breaker_degrades_health(self, warehouse):
        with service_of(warehouse) as service:
            trip(service.breaker("search"))
            health = service.health()
            assert health["status"] == "degraded"
            assert health["endpoints"]["search"]["breaker"]["state"] == "open"


class TestDegradedResults:
    """``degraded=True`` marks a partial answer. Search and lineage read
    the base model only, so an index lagging it leaves them exact."""

    def assert_exact_while_stale(self, warehouse, kind, payload):
        warehouse.facts.add_instance("zz_late", warehouse.schema.declare_class("Column"))
        with service_of(warehouse) as service:
            answer = service.execute(kind, **payload)
            health = service.health()
            degraded = service.metrics_snapshot()["degraded_responses"]
        want = dispatch(warehouse, kind, dict(payload))
        assert canonical(kind, answer) == canonical(kind, want)
        assert answer.degraded is False and degraded == 0
        assert health["stale_indexes"] == ["OWLPRIME"] and health["status"] == "degraded"
        return answer

    def test_search_exact_when_indexes_stale(self, warehouse):
        self.assert_exact_while_stale(warehouse, "search", {"term": "a", "regex": True})

    def test_lineage_exact_when_indexes_stale(self, warehouse):
        mapped = next(iter(warehouse.graph.triples(None, TERMS.is_mapped_to, None)))
        trace = self.assert_exact_while_stale(warehouse, "lineage", {"item": mapped.object})
        assert trace.edges

    def test_query_results_never_carry_the_flag(self, warehouse):
        # SPARQL answers are exact over whatever view was requested;
        # only the index-dependent services degrade
        injector = FaultInjector()
        injector.arm("index.staleness", "corrupt", value=True)
        with service_of(warehouse) as service:
            with fault_scope(injector):
                rows = service.query("SELECT ?s WHERE { ?s dm:hasName ?n }")
            assert not hasattr(rows, "degraded")


class TestCircuitBreaker:
    def test_fault_storm_trips_the_breaker(self, warehouse):
        injector = FaultInjector()
        injector.arm("worker.execute", "raise")
        with service_of(warehouse) as service:
            with fault_scope(injector):
                for _ in range(service_module.BREAKER_THRESHOLD):
                    ticket = service.submit("search", term="a", regex=True)
                    with pytest.raises(Exception):
                        ticket.result(timeout=5)
                # breaker now open: submission is shed instantly
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    try:
                        service.submit("search", term="a", regex=True)
                    except CircuitOpen as exc:
                        assert exc.kind == "search"
                        assert exc.retry_after > 0
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("breaker never opened")
            assert service.metrics_snapshot()["breaker_shed"] >= 1
            assert service.health()["endpoints"]["search"]["breaker"]["state"] == "open"

    def test_other_endpoints_unaffected_by_one_open_breaker(self, warehouse):
        with service_of(warehouse) as service:
            trip(service.breaker("search"))
            with pytest.raises(CircuitOpen):
                service.submit("search", term="a")
            rows = service.query("SELECT ?s WHERE { ?s dm:hasName ?n }")
            assert len(rows) > 0

    def test_half_open_probe_recovers_the_endpoint(self, warehouse, monkeypatch):
        injector = FaultInjector()
        injector.arm("worker.execute", "raise", times=2)
        breaker_settings(monkeypatch, threshold=2, cooldown=0.05)
        with service_of(warehouse, max_workers=1) as service:
            with fault_scope(injector):
                for _ in range(2):
                    ticket = service.submit("search", term="a", regex=True)
                    with pytest.raises(Exception):
                        ticket.result(timeout=5)
            # wait out the cooldown; the fault budget is spent, so the
            # half-open probe succeeds and closes the circuit
            time.sleep(0.06)
            results = service.search("a", regex=True)
            assert len(results) >= 0
            assert service.health()["endpoints"]["search"]["breaker"]["state"] == "closed"

    def test_invalid_timeout_leaves_the_half_open_probe(self, warehouse, monkeypatch):
        """An invalid timeout fails admission before the breaker reserves
        its half-open probe; a leaked probe would shed the endpoint with
        CircuitOpen for good."""
        breaker_settings(monkeypatch, threshold=1, cooldown=0.05)
        with service_of(warehouse) as service:
            service.breaker("search").on_failure()
            time.sleep(0.1)
            with pytest.raises(ValueError):
                service.search("a", regex=True, timeout=0)
            assert len(service.search("a", regex=True)) >= 0
            assert service.breaker("search").snapshot()["state"] == "closed"

    def test_user_errors_do_not_trip_the_breaker(self, warehouse):
        with service_of(warehouse) as service:
            for _ in range(service_module.BREAKER_THRESHOLD):
                with pytest.raises(Exception):
                    service.lineage("no-such-item-anywhere")
            assert service.health()["endpoints"]["lineage"]["breaker"]["state"] == "closed"

    def test_bad_group_by_does_not_trip_the_breaker(self, warehouse):
        """A non-grouped projection is a parse error (an InvalidRequest),
        so a run of them leaves the ``query`` breaker closed and the next
        valid query is answered, not shed with CircuitOpen."""
        bad = "SELECT ?s ?n WHERE { ?s dm:hasName ?n } GROUP BY ?s"
        good = "SELECT ?s WHERE { ?s dm:hasName ?n } GROUP BY ?s"
        with service_of(warehouse) as service:
            for _ in range(service_module.BREAKER_THRESHOLD):
                with pytest.raises(SparqlParseError):
                    service.query(bad)
            assert len(service.query(good)) > 0
            assert service.health()["endpoints"]["query"]["breaker"]["state"] == "closed"

    def test_bad_search_regex_does_not_trip_the_breaker(self, warehouse):
        """A malformed search regex is an InvalidOption, so a run of them
        leaves the ``search`` breaker closed and the next valid search is
        answered, not shed with CircuitOpen."""
        with service_of(warehouse) as service:
            for _ in range(service_module.BREAKER_THRESHOLD):
                with pytest.raises(InvalidOption):
                    service.search("(", regex=True)
            assert len(service.search("client")) > 0
            assert service.health()["endpoints"]["search"]["breaker"]["state"] == "closed"

    def test_update_breaker_guards_the_write_path(self, warehouse):
        with service_of(warehouse) as service:
            trip(service.breaker("update"))
            with pytest.raises(CircuitOpen) as err:
                service.update("DELETE WHERE { ?s ?p ?o }")
            assert err.value.kind == "update"


SQL_TEMPLATE = """
    SELECT object FROM TABLE(SEM_MATCH(
        {?object dm:hasName ?term},
        SEM_MODELS('DWH_CURR'),
        null,
        SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
        null))
    WHERE regexp_like(term, 'a', 'i')
    GROUP BY object
"""


def request_pair(warehouse, kind):
    """(malformed payload, valid payload) for one endpoint."""
    item = next(iter(warehouse.graph.subjects(TERMS.has_name, None)))
    return {
        "query": (
            {"text": "SELECT ?s WHERE { ?s"},
            {"text": "SELECT ?s WHERE { ?s dm:hasName ?n }"},
        ),
        "sql": ({"sql": "SELECT nothing FROM nowhere"}, {"sql": SQL_TEMPLATE}),
        "search": (
            {"term": "a", "filters": SearchFilters(classes=["NoSuchClass"])},
            {"term": "a"},
        ),
        "lineage": (
            {"item": item, "direction": "sideways"},
            {"item": item, "direction": "upstream"},
        ),
    }[kind]


class TestRequestErrors:
    """A malformed request is its own fault: the caller gets the error
    the warehouse itself raises, and the endpoint breaker stays closed
    however often it is sent."""

    @pytest.mark.parametrize("worker_mode", ["thread", "fork"])
    @pytest.mark.parametrize("kind", ["query", "sql", "search", "lineage"])
    def test_bad_input_spares_the_breaker(self, warehouse, kind, worker_mode):
        bad, good = request_pair(warehouse, kind)
        with pytest.raises(Exception) as direct:
            dispatch(warehouse, kind, bad)
        with service_of(warehouse, worker_mode=worker_mode) as service:
            for _ in range(service_module.BREAKER_THRESHOLD):
                with pytest.raises(Exception) as served:
                    service.execute(kind, **bad)
                assert type(served.value) is type(direct.value)
            assert service.breaker(kind).snapshot()["state"] == "closed"
            assert service.execute(kind, **good) is not None


class TestConfigValidation:
    def test_breaker_knobs_validated(self):
        # module constants (service.BREAKER_*), not config fields
        for retired in ("breaker_threshold", "breaker_cooldown"):
            with pytest.raises(TypeError):
                ServiceConfig(**{retired: 1})
