"""The concurrent query service: admission, deadlines, lifecycle."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server import (
    DeadlineExceeded,
    Overloaded,
    QueryService,
    QueryServiceError,
    ServiceClosed,
    ServiceConfig,
)
from repro.server.service import dispatch
from repro.synth import LandscapeConfig, generate_landscape, make_service_workload

from .conftest import canonical, canonical_rows

NAMES_QUERY = "SELECT ?s ?n WHERE { ?s dm:hasName ?n } ORDER BY ?s ?n"

#: A cross product over every named item — long enough to outlive short
#: deadlines even on the tiny landscape, but cancellable cooperatively.
HOG_QUERY = (
    "SELECT ?a ?b ?c WHERE { ?a dm:hasName ?n1 . ?b dm:hasName ?n2 . "
    "?c dm:hasName ?n3 }"
)

LISTING1_SQL = """
    SELECT object FROM TABLE(SEM_MATCH(
        {?object dm:hasName ?term},
        SEM_MODELS('DWH_CURR'),
        null,
        SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
        null))
    WHERE regexp_like(term, 'a', 'i')
    GROUP BY object
"""


@pytest.fixture(scope="module")
def warehouse():
    return generate_landscape(LandscapeConfig.tiny(seed=11)).warehouse


@pytest.fixture()
def service(warehouse):
    svc = warehouse.serve(max_workers=2, max_queue=8)
    yield svc
    svc.close(wait=False)


class TestSubmitExecute:
    def test_submit_returns_ticket_with_correct_result(self, warehouse, service):
        ticket = service.submit("query", text=NAMES_QUERY)
        assert ticket.request_id.startswith("q-")
        rows = ticket.result(timeout=30)
        assert canonical_rows(rows) == canonical_rows(warehouse.query(NAMES_QUERY))

    def test_every_read_kind_dispatches(self, warehouse, service):
        assert len(service.query(NAMES_QUERY)) > 0
        assert len(service.sem_sql(LISTING1_SQL)) > 0
        results = service.search("a")
        assert results is not None
        from repro.core.vocabulary import TERMS

        name = next(iter(warehouse.graph.objects(None, TERMS.has_name))).lexical
        trace = service.lineage(name)
        assert trace.start is not None

    def test_lineage_by_unknown_name_is_typed_error(self, service):
        with pytest.raises(QueryServiceError, match="no item named"):
            service.lineage("no-such-item-name-anywhere")

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(QueryServiceError, match="unknown request kind"):
            service.submit("drop-tables")

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("query", {"text": NAMES_QUERY, "strategy": "hash-join"}),
            ("sql", {"sql": LISTING1_SQL, "plan_cache": None}),
            ("search", {"term": "a", "regexp": True}),
            ("lineage", {"item": "a", "depth": 2}),
            ("lookup", {"name": "a", "regex": True}),
        ],
    )
    def test_unknown_option_rejected_before_admission(self, service, kind, payload):
        with pytest.raises(QueryServiceError, match="takes no option"):
            service.submit(kind, **payload)
        snap = service.metrics_snapshot()
        assert snap["submitted"] == snap["failed"] == 0
        assert service.breaker(kind).snapshot()["state"] == "closed"

    def test_results_identical_to_direct_warehouse(self, warehouse, service):
        direct = canonical_rows(warehouse.query(NAMES_QUERY))
        served = [canonical_rows(service.query(NAMES_QUERY)) for _ in range(4)]
        assert all(result == direct for result in served)


class TestAdmissionControl:
    def test_overloaded_is_raised_not_blocked(self, warehouse):
        svc = warehouse.serve(max_workers=1, max_queue=2)
        try:
            tickets = []
            rejections = []
            # one request occupies the worker, two fill the queue; the
            # submitter must get a typed rejection immediately after
            for _ in range(12):
                try:
                    tickets.append(svc.submit("query", text=HOG_QUERY, timeout=20))
                except Overloaded as exc:
                    rejections.append(exc)
            assert rejections, "queue bound never enforced"
            assert all(exc.max_queue == 2 for exc in rejections)
            assert all(exc.queue_depth >= 1 for exc in rejections)
            assert svc.metrics.snapshot()["rejected"] == len(rejections)
            for ticket in tickets:
                ticket.cancel()
        finally:
            svc.close(wait=False)

    def test_queue_time_counts_against_deadline(self, warehouse):
        svc = warehouse.serve(max_workers=1, max_queue=4)
        try:
            blocker = svc.submit("query", text=HOG_QUERY, timeout=20)
            # admitted behind the hog with a deadline shorter than the
            # hog's runtime: must fail queue-expired, not run to completion
            started = time.monotonic()
            starved = svc.submit("query", text=NAMES_QUERY, timeout=0.05)
            with pytest.raises(DeadlineExceeded):
                starved.result(timeout=30)
            waited = time.monotonic() - started
            blocker.cancel()
            # the execute() backstop (budget * 1.2 + 50 ms) plus 0.2 s slack
            assert waited <= 0.05 * 1.2 + 0.05 + 0.2, f"waited {waited:.3f}s"
            assert svc.metrics.snapshot()["timeouts"] == 1
        finally:
            svc.close(wait=False)


class TestDeadlines:
    def test_deadline_returns_typed_error_within_budget(self, service):
        timeout = 0.1
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.query(HOG_QUERY, timeout=timeout)
        wall = time.monotonic() - started
        assert excinfo.value.timeout == timeout
        # the acceptance bound: typed error in at most 1.5x the deadline
        assert wall <= timeout * 1.5, f"took {wall:.3f}s for a {timeout}s deadline"

    def test_service_keeps_serving_after_timeout(self, warehouse, service):
        with pytest.raises(DeadlineExceeded):
            service.query(HOG_QUERY, timeout=0.05)
        rows = service.query(NAMES_QUERY, timeout=10)
        assert canonical_rows(rows) == canonical_rows(warehouse.query(NAMES_QUERY))
        assert service.metrics.snapshot()["timeouts"] >= 1

    def test_cancel_aborts_inflight_query(self, service):
        ticket = service.submit("query", text=HOG_QUERY, timeout=30)
        time.sleep(0.05)  # let a worker pick it up
        ticket.cancel()
        exc = ticket.exception(timeout=10)
        assert exc is not None


class TestWrites:
    def test_update_visible_to_later_queries(self, warehouse):
        svc = warehouse.serve(max_workers=2)
        try:
            generation = svc.snapshots.generation
            svc.update(
                'PREFIX cs: <http://www.credit-suisse.com/dwh/> '
                'PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> '
                'INSERT DATA { cs:write_probe dm:hasName "write_probe" }'
            )
            assert svc.snapshots.generation > generation
            rows = svc.query('SELECT ?s WHERE { ?s dm:hasName "write_probe" }')
            assert len(rows) == 1
        finally:
            svc.close()

    def test_update_attributed_in_audit_journal(self, warehouse):
        journal = warehouse.enable_audit()
        svc = warehouse.serve(max_workers=1)
        try:
            svc.update(
                'PREFIX cs: <http://www.credit-suisse.com/dwh/> '
                'PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> '
                'INSERT DATA { cs:audited_probe dm:hasName "audited_probe" }'
            )
            attributed = journal.entries(request_id="w-1")
            assert attributed, "audit entries not attributed to the request"
            assert all(e.request_id == "w-1" for e in attributed)
        finally:
            svc.close()


class TestLifecycle:
    def test_closed_service_rejects_submissions(self, warehouse):
        svc = warehouse.serve(max_workers=1)
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosed):
            svc.submit("query", text=NAMES_QUERY)
        with pytest.raises(ServiceClosed):
            svc.update("INSERT DATA { <urn:a> <urn:b> <urn:c> }")
        svc.close()  # idempotent

    def test_context_manager_drains(self, warehouse):
        with warehouse.serve(max_workers=2) as svc:
            tickets = [svc.submit("query", text=NAMES_QUERY) for _ in range(6)]
        assert all(ticket.done() for ticket in tickets)
        assert all(len(ticket.result()) > 0 for ticket in tickets)

    def test_close_without_wait_fails_queued_requests(self, warehouse):
        svc = warehouse.serve(max_workers=1, max_queue=8)
        blocker = svc.submit("query", text=HOG_QUERY, timeout=20)
        queued = [svc.submit("query", text=NAMES_QUERY) for _ in range(4)]
        svc.close(wait=False)
        for ticket in queued:
            exc = ticket.exception(timeout=10)
            assert exc is None or isinstance(exc, ServiceClosed) or ticket.future.cancelled()
        blocker.cancel()


class TestMetrics:
    def test_latency_and_counters_recorded(self, warehouse):
        svc = warehouse.serve(max_workers=2)
        try:
            for _ in range(5):
                svc.query(NAMES_QUERY)
            snap = svc.metrics_snapshot()
            assert snap["completed"] >= 5
            assert snap["endpoints"]["query"]["count"] >= 5
            assert snap["endpoints"]["query"]["p50"] > 0
            assert 0.0 <= snap["plan_cache_hit_rate"] <= 1.0
            assert snap["plan_cache"]["plan_hits"] > 0  # repeated text reuses the plan
            report = svc.metrics_report()
            assert "query service metrics" in report
            assert "plan cache hit rate" in report
        finally:
            svc.close()

    def test_slow_query_log_captures_plan(self, warehouse):
        svc = QueryService(
            warehouse, ServiceConfig(max_workers=1, slow_query_threshold=0.0)
        )
        try:
            svc.query(NAMES_QUERY)
            entries = svc.metrics.slow_queries.entries()
            assert entries
            assert entries[0].kind == "query"
            assert entries[0].plan and "PLAN" in entries[0].plan.upper()
        finally:
            svc.close()


class TestForkMode:
    @pytest.mark.parametrize("worker_mode", ["thread", "fork"])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_fork_results_match_thread_results(self, warehouse, worker_mode, max_workers):
        """Two concurrent clients replay the mixed query / sql / search /
        lineage stream; every op answers like a direct ``dispatch``."""
        ops = make_service_workload(warehouse, n_ops=24, seed=11)
        assert {op.kind for op in ops} == {"query", "sql", "search", "lineage"}
        want = [
            canonical(op.kind, dispatch(warehouse, op.kind, dict(op.payload)))
            for op in ops
        ]
        with warehouse.serve(
            max_workers=max_workers, worker_mode=worker_mode
        ) as svc, ThreadPoolExecutor(max_workers=2) as clients:
            got = list(
                clients.map(
                    lambda op: canonical(
                        op.kind, svc.execute(op.kind, timeout=60, **op.payload)
                    ),
                    ops,
                )
            )
        assert got == want

    def test_fork_workers_respawn_after_write(self, warehouse):
        with warehouse.serve(max_workers=2, worker_mode="fork") as svc:
            svc.query(NAMES_QUERY, timeout=60)
            svc.update(
                'PREFIX cs: <http://www.credit-suisse.com/dwh/> '
                'PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> '
                'INSERT DATA { cs:fork_probe dm:hasName "fork_probe" }'
            )
            rows = svc.query(
                'SELECT ?s WHERE { ?s dm:hasName "fork_probe" }', timeout=60
            )
            assert len(rows) == 1
