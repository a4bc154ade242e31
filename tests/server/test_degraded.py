"""Degraded-mode serving: circuit breakers, health, stale-index flagging."""

import time

import pytest

from repro.core.vocabulary import TERMS
from repro.resilience import FaultInjector
from repro.resilience.faults import fault_scope
from repro.server import CircuitOpen, QueryService, ServiceConfig
from repro.server.service import dispatch
from repro.services.search import SearchFilters
from repro.synth import LandscapeConfig, generate_landscape


@pytest.fixture()
def warehouse():
    mdw = generate_landscape(LandscapeConfig.tiny(seed=11)).warehouse
    mdw.build_entailment_index("OWLPRIME")
    return mdw


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
        with service_of(warehouse, breaker_threshold=1) as service:
            service.breaker("search").on_failure()  # trips at threshold 1
            health = service.health()
            assert health["status"] == "degraded"
            assert health["endpoints"]["search"]["breaker"]["state"] == "open"


class TestDegradedResults:
    def test_search_flagged_when_indexes_stale(self, warehouse):
        injector = FaultInjector()
        injector.arm("index.staleness", "corrupt", value=True)
        with service_of(warehouse) as service:
            assert service.search("a", regex=True).degraded is False
            with fault_scope(injector):
                results = service.search("a", regex=True)
            assert results.degraded is True
            assert service.metrics_snapshot()["degraded_responses"] >= 1

    def test_lineage_flagged_when_indexes_stale(self, warehouse):
        from repro.core import TERMS

        start = next(
            iter(warehouse.graph.triples(None, TERMS.is_mapped_to, None))
        ).subject
        injector = FaultInjector()
        injector.arm("index.staleness", "corrupt", value=True)
        with service_of(warehouse) as service:
            with fault_scope(injector):
                trace = service.lineage(start)
            assert trace.degraded is True

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
        with service_of(warehouse, breaker_threshold=3, breaker_cooldown=60.0) as service:
            with fault_scope(injector):
                for _ in range(3):
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
        with service_of(warehouse, breaker_threshold=1) as service:
            service.breaker("search").on_failure()
            with pytest.raises(CircuitOpen):
                service.submit("search", term="a")
            rows = service.query("SELECT ?s WHERE { ?s dm:hasName ?n }")
            assert len(rows) > 0

    def test_half_open_probe_recovers_the_endpoint(self, warehouse):
        injector = FaultInjector()
        injector.arm("worker.execute", "raise", times=2)
        with service_of(
            warehouse, max_workers=1, breaker_threshold=2, breaker_cooldown=0.05
        ) as service:
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

    def test_invalid_timeout_leaves_the_half_open_probe(self, warehouse):
        """An invalid timeout fails admission before the breaker reserves
        its half-open probe; the probe used to leak, shedding the
        endpoint with CircuitOpen until an operator reset()."""
        with service_of(
            warehouse, breaker_threshold=1, breaker_cooldown=0.05
        ) as service:
            service.breaker("search").on_failure()
            time.sleep(0.1)
            with pytest.raises(ValueError):
                service.search("a", regex=True, timeout=0)
            assert len(service.search("a", regex=True)) >= 0
            assert service.breaker("search").snapshot()["state"] == "closed"

    def test_user_errors_do_not_trip_the_breaker(self, warehouse):
        with service_of(warehouse, breaker_threshold=2) as service:
            for _ in range(5):
                with pytest.raises(Exception):
                    service.lineage("no-such-item-anywhere")
            assert service.health()["endpoints"]["lineage"]["breaker"]["state"] == "closed"

    def test_update_breaker_guards_the_write_path(self, warehouse):
        with service_of(warehouse, breaker_threshold=1) as service:
            service.breaker("update").on_failure()
            with pytest.raises(CircuitOpen) as err:
                service.update("DELETE WHERE { ?s ?p ?o }")
            assert err.value.kind == "update"

    def test_operator_reset_reopens_the_endpoint(self, warehouse):
        with service_of(warehouse, breaker_threshold=1) as service:
            service.breaker("search").on_failure()
            with pytest.raises(CircuitOpen):
                service.submit("search", term="a")
            service.breaker("search").reset()
            assert len(service.search("a", regex=True)) >= 0


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
        with service_of(
            warehouse, worker_mode=worker_mode, breaker_threshold=3,
            breaker_cooldown=60.0,
        ) as service:
            for _ in range(3):
                with pytest.raises(Exception) as served:
                    service.execute(kind, **bad)
                assert type(served.value) is type(direct.value)
            assert service.breaker(kind).snapshot()["state"] == "closed"
            assert service.execute(kind, **good) is not None


class TestConfigValidation:
    def test_breaker_knobs_validated(self, warehouse):
        with pytest.raises(ValueError):
            ServiceConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ServiceConfig(breaker_cooldown=0.0)
