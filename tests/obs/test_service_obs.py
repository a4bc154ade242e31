"""End-to-end observability through the serving tier.

Trace-context propagation across the thread pool and the fork worker
pool, Prometheus exposition validity of a live service's registry,
query profiles in the slow-query log, and the resilience machinery's
registry wiring.
"""

import sys
import time

import pytest

from repro.obs import (
    Tracer,
    parse_exposition,
    render_prometheus,
    trace_scope,
)
from repro.obs.fleet import SloEngine
from repro.obs.registry import get_registry
from repro.server import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    QueryServiceError,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)
from repro.synth import LandscapeConfig, generate_landscape

NAMES_QUERY = "SELECT ?s ?n WHERE { ?s dm:hasName ?n } ORDER BY ?s ?n"
JOIN_QUERY = (
    "SELECT ?t ?n WHERE { ?t rdf:type dm:Table . ?t dm:hasName ?n }"
)


@pytest.fixture(scope="module")
def warehouse():
    return generate_landscape(LandscapeConfig.tiny(seed=11)).warehouse


def spans_by_name(tracer):
    out = {}
    for s in tracer.spans():
        out.setdefault(s.name, []).append(s)
    return out


def children_of(spans, parent):
    return [s for s in spans if s.parent_id == parent.span_id]


class TestThreadModePropagation:
    def test_request_plan_operator_nesting(self, warehouse):
        with trace_scope() as tracer:
            with warehouse.serve(max_workers=2) as service:
                service.query(JOIN_QUERY)
        named = spans_by_name(tracer)
        (request,) = named["request"]
        plans = children_of(tracer.spans(), request)
        assert any(p.name == "plan" for p in plans)
        (plan,) = [p for p in plans if p.name == "plan"]
        operators = children_of(tracer.spans(), plan)
        assert [o.name for o in operators].count("operator") == 2
        for op in [o for o in operators if o.name == "operator"]:
            assert op.attrs["op"] in ("scan", "hash-join", "bind-join", "no-match")
            assert "rows_out" in op.attrs

    def test_submit_context_parents_the_request_span(self, warehouse):
        # client-side capture() at submit: a client span becomes the
        # request span's parent even though a worker thread runs it
        with trace_scope() as tracer:
            with warehouse.serve(max_workers=2) as service:
                with tracer.span("client"):
                    ticket = service.submit("query", text=NAMES_QUERY)
                ticket.result()
        named = spans_by_name(tracer)
        (client,) = named["client"]
        (request,) = named["request"]
        assert request.parent_id == client.span_id
        assert request.tid != client.tid  # really crossed the pool

    def test_untraced_service_records_nothing(self, warehouse):
        with warehouse.serve(max_workers=2) as service:
            rows = service.query(NAMES_QUERY)
        assert len(rows) > 0  # no tracer installed: plain results, no spans


@pytest.mark.skipif(sys.platform == "win32", reason="fork workers are POSIX-only")
class TestForkModePropagation:
    def test_child_spans_graft_under_the_request(self, warehouse):
        config = ServiceConfig(max_workers=2, worker_mode="fork")
        with trace_scope() as tracer:
            with warehouse.serve(config) as service:
                service.query(JOIN_QUERY)
        spans = tracer.spans()
        named = spans_by_name(tracer)
        (request,) = named["request"]
        (dispatch,) = named["fork-dispatch"]
        assert dispatch.parent_id == request.span_id
        assert dispatch.pid != request.pid  # recorded in the child process
        (plan,) = [s for s in spans if s.name == "plan"]
        assert plan.parent_id == dispatch.span_id
        assert plan.pid == dispatch.pid

    def test_fork_profile_ships_back_to_slow_query_log(self, warehouse):
        config = ServiceConfig(
            max_workers=1, worker_mode="fork", slow_query_threshold=0.0
        )
        with warehouse.serve(config) as service:
            service.query(JOIN_QUERY)
            entries = service.metrics.slow_queries.entries()
        assert entries, "threshold 0 must log every query"
        profile = entries[-1].profile
        assert profile is not None
        assert "runtime profile" in profile
        assert "->" in profile  # operator rows in/out crossed the fork


class TestPrometheusFromService:
    def test_live_registry_scrape_is_valid_exposition(self, warehouse):
        with warehouse.serve(max_workers=2) as service:
            service.query(NAMES_QUERY)
            text = render_prometheus()
            families = parse_exposition(text)  # validates the grammar
        assert "mdw_service_requests_total" in families
        events = {
            labels["event"]: value
            for _, labels, value in families["mdw_service_requests_total"]["samples"]
            if labels["service"] == service.config.name
        }
        assert events.get("submitted", 0) >= 1
        assert "mdw_request_latency_seconds" in families
        assert families["mdw_request_latency_seconds"]["type"] == "histogram"

    def test_plan_cache_and_snapshot_gauges_exposed(self, warehouse):
        with warehouse.serve(max_workers=2) as service:
            service.query(NAMES_QUERY)
            service.query(NAMES_QUERY)  # second run hits the plan cache
            families = parse_exposition(render_prometheus())
            name = service.config.name
        hit_rate = {
            labels["service"]: value
            for _, labels, value in families["mdw_plan_cache_hit_rate"]["samples"]
        }[name]
        assert 0.0 < hit_rate <= 1.0
        generation = {
            labels["service"]: value
            for _, labels, value in families["mdw_snapshot_generation"]["samples"]
        }[name]
        assert generation >= 0
        pins = {
            labels["service"]: value
            for _, labels, value in families["mdw_snapshot_pins"]["samples"]
        }[name]
        assert pins >= 0
        states = {
            labels["endpoint"]: value
            for _, labels, value in families["mdw_breaker_state"]["samples"]
            if labels["service"] == name
        }
        assert states and all(value == 0.0 for value in states.values())  # closed


#: every scalar of ``ServiceMetrics.snapshot()`` and the one registry
#: series that holds it: (family, the labels beside service and shard)
SCALAR_SERIES = {
    "submitted": ("mdw_service_requests_total", {"event": "submitted"}),
    "completed": ("mdw_service_requests_total", {"event": "completed"}),
    "failed": ("mdw_service_requests_total", {"event": "failed"}),
    "rejected": ("mdw_service_requests_total", {"event": "rejected"}),
    "timeouts": ("mdw_service_requests_total", {"event": "timeout"}),
    "cancelled": ("mdw_service_requests_total", {"event": "cancelled"}),
    "breaker_shed": ("mdw_service_requests_total", {"event": "breaker_shed"}),
    "degraded_responses": ("mdw_service_requests_total", {"event": "degraded"}),
    "worker_lost": ("mdw_service_requests_total", {"event": "worker_lost"}),
    "requeued": ("mdw_service_requests_total", {"event": "requeued"}),
    "queue_depth": ("mdw_queue_depth", {}),
    "queue_high_water": ("mdw_queue_high_water", {}),
}

HOG_QUERY = (
    "SELECT ?a ?b ?c WHERE { ?a dm:hasName ?n1 . ?b dm:hasName ?n2 . "
    "?c dm:hasName ?n3 }"
)


def scraped(families, sample, **labels):
    """The value of one series in a parsed exposition (0 when absent)."""
    family = sample[: -len("_count")] if sample.endswith("_count") else sample
    return sum(
        value
        for name, sample_labels, value in families.get(family, {"samples": ()})["samples"]
        if name == sample and sample_labels == labels
    )


class TestTheBooksAgree:
    """One store: the snapshot, the health document, the scrape and the
    SLO report are four readers of the same registry children."""

    def assert_books_agree(self, snap, health, before, after, slo_row, service, shard):
        own = {"service": service, "shard": shard}

        def delta(sample, **labels):
            return scraped(after, sample, **labels, **own) - scraped(
                before, sample, **labels, **own
            )

        for field, (family, labels) in SCALAR_SERIES.items():
            assert snap[field] == delta(family, **labels), field
        for reason in ("crash", "hang", "stale"):
            assert snap["worker_restarts"].get(reason, 0) == delta(
                "mdw_worker_restarts_total", reason=reason
            )
        for kind, summary in snap["endpoints"].items():
            assert summary["count"] == delta(
                "mdw_request_latency_seconds_count", kind=kind
            ), kind
        observed = sum(s["count"] for s in snap["endpoints"].values())
        assert observed == snap["completed"] + snap["failed"]
        if health is not None:
            assert health["workers"]["restarts"] == snap["worker_restarts"]
        assert slo_row["shard"] == shard
        assert slo_row["completed"] == snap["completed"]
        assert slo_row["failed"] == snap["failed"]
        assert slo_row["degraded"] == snap["degraded_responses"]

    def test_one_service_every_outcome(self, monkeypatch):
        mdw = generate_landscape(LandscapeConfig.tiny(seed=23)).warehouse
        mdw.build_entailment_index()
        name = "books-svc"
        before = parse_exposition(render_prometheus())
        slo = SloEngine(service_prefix=name)
        config = ServiceConfig(max_workers=1, max_queue=1, name=name)
        with mdw.serve(config) as service:
            # completed
            service.query(NAMES_QUERY)
            service.query(JOIN_QUERY)
            assert not service.search("a", regex=True).degraded
            # failed (a caller error: says nothing to the breaker)
            with pytest.raises(QueryServiceError):
                service.lineage("no-such-item")
            # rejected: one hog on the worker, one in the queue, no room
            running = service.submit("query", text=HOG_QUERY, timeout=30)
            deadline = time.monotonic() + 5
            while service.health()["queue_depth"]:
                assert time.monotonic() < deadline, "worker never took the hog"
                time.sleep(0.002)
            queued = service.submit("query", text=HOG_QUERY, timeout=30)
            with pytest.raises(Overloaded):
                service.submit("query", text=NAMES_QUERY)
            # cancelled: once in the queue (never runs), once in flight
            queued.cancel()
            running.cancel()
            assert running.exception(timeout=10) is not None
            # timed out
            with pytest.raises(DeadlineExceeded):
                service.query(HOG_QUERY, timeout=0.05)
            # shed by an open breaker
            breaker = service.breaker("sql")
            for _ in range(breaker.threshold):
                breaker.on_failure()
            with pytest.raises(CircuitOpen):
                service.submit("sql", sql="SELECT 1")
            # degraded: the in-process fallback's flag (a supervised fork
            # pool sets it once a request's attempts run out), stubbed here
            run = service._inline.run

            def fallback(request, extras_sink):
                answer = run(request, extras_sink)
                answer.degraded = True
                return answer

            monkeypatch.setattr(service._inline, "run", fallback)
            assert service.search("a", regex=True).degraded
            snap = service.metrics_snapshot()
            health = service.health()
            after = parse_exposition(render_prometheus())
            report = slo.report()
        assert snap["completed"] == 4 and snap["degraded_responses"] == 1
        assert snap["failed"] == 3  # unknown item, cancelled hog, timed-out hog
        assert snap["rejected"] == 1 and snap["breaker_shed"] == 1
        assert snap["cancelled"] == 1 and snap["timeouts"] >= 1
        assert snap["queue_high_water"] == 1
        self.assert_books_agree(
            snap, health, before, after, report["services"][name], name, ""
        )

    def test_gateway_and_its_shards(self):
        mdw = generate_landscape(LandscapeConfig.tiny(seed=23)).warehouse
        name = "books-gw"
        before = parse_exposition(render_prometheus())
        config = ShardedConfig(
            n_shards=2,
            workers_per_shard=1,
            worker_mode="thread",
            supervise=False,
            name=name,
        )
        with ShardedQueryService(mdw, config) as svc:
            svc.search("a", regex=True)
            svc.search("e", regex=True)
            with pytest.raises(QueryServiceError):
                svc.lineage("no-such-item")
            with pytest.raises(DeadlineExceeded):
                svc.search("a", regex=True, timeout=1e-9)
            svc.shard_service(1).close()
            for _ in range(3):
                assert svc.search("a", regex=True).degraded
            snap = svc.metrics_snapshot()
            health = svc.health()
            after = parse_exposition(render_prometheus())
        gateway = snap["gateway"]
        assert gateway["completed"] == 5 and gateway["failed"] == 2
        assert gateway["timeouts"] == 1 and gateway["degraded_responses"] == 3
        rows = health["slo"]["services"]
        self.assert_books_agree(
            gateway, None, before, after, rows[name], name, "gateway"
        )
        for index in ("0", "1"):
            shard_name = f"{name}-shard{index}"
            self.assert_books_agree(
                snap["shards"][index],
                health["shards"][index],
                before,
                after,
                rows[shard_name],
                shard_name,
                index,
            )


class TestResilienceWiring:
    def test_fault_injector_activation_counts(self):
        from repro.resilience.faults import FaultInjector, InjectedFault

        counter = get_registry().counter(
            "mdw_fault_injections_total", labels=("site", "mode")
        )
        before = counter.child(site="index.refresh", mode="raise").value
        injector = FaultInjector()
        injector.arm("index.refresh", mode="raise", times=1)
        with pytest.raises(InjectedFault):
            injector.fire("index.refresh")
        injector.fire("index.refresh")  # exhausted plan: no activation
        after = counter.child(site="index.refresh", mode="raise").value
        assert after == before + 1

    def test_breaker_transitions_reach_the_registry(self):
        from repro.resilience.breaker import CircuitBreaker

        clock = [0.0]
        breaker = CircuitBreaker(
            "obs-test", threshold=2, cooldown=5.0, clock=lambda: clock[0]
        )
        counter = get_registry().counter(
            "mdw_breaker_transitions_total", labels=("name", "to", "shard")
        )

        def count(to):
            return counter.child(name="obs-test", to=to, shard="").value

        breaker.on_failure()
        assert count("open") == 0
        breaker.on_failure()  # threshold reached: trips open
        assert count("open") == 1
        clock[0] = 10.0
        assert breaker.allow()  # cooldown elapsed: half-open probe
        assert count("half-open") == 1
        breaker.on_success()  # probe succeeded: closes
        assert count("closed") == 1
        breaker.on_failure()
        breaker.on_failure()
        assert count("open") == 2
        clock[0] = 20.0
        assert breaker.allow()
        breaker.on_failure()  # failed probe: straight back to open
        assert count("open") == 3


class TestExplainAnalyze:
    def test_warehouse_explain_analyze_appends_profile(self, warehouse):
        text = warehouse.explain(JOIN_QUERY, analyze=True)
        assert "runtime profile" in text
        assert "hash-join" in text or "bind-join" in text or "scan" in text

    def test_plain_explain_has_no_profile(self, warehouse):
        assert "runtime profile" not in warehouse.explain(JOIN_QUERY)


class TestEtlAndReasoningSpans:
    def test_release_apply_emits_the_etl_span_taxonomy(self):
        from repro.etl.pipeline import EtlOrchestrator

        scape = generate_landscape(LandscapeConfig.tiny(seed=5))
        mdw = scape.warehouse
        mdw.build_entailment_index()
        desired = mdw.graph.copy(name="desired")
        from repro.rdf.terms import IRI, Literal, Triple
        from repro.core.vocabulary import TERMS

        item = IRI("http://example.org/obs_new_item")
        desired.add(Triple(item, TERMS.has_name, Literal("obs_new_item")))

        with trace_scope() as tracer:
            result = EtlOrchestrator(mdw, validate=False).apply_release(
                desired=desired, mode="incremental"
            )
        assert result.ok
        names = {s.name for s in tracer.spans()}
        assert {"etl.release", "etl.diff", "etl.apply", "dred.maintain"} <= names
        named = spans_by_name(tracer)
        (release,) = named["etl.release"]
        assert release.parent_id is None
        assert release.attrs["added"] == 1
        (diff,) = named["etl.diff"]
        assert diff.parent_id == release.span_id

    def test_closure_emits_reasoning_span(self, warehouse):
        with trace_scope() as tracer:
            warehouse.build_entailment_index()
        names = {s.name for s in tracer.spans()}
        assert "index.build" in names
        assert "reasoning.closure" in names
        named = spans_by_name(tracer)
        closure_span = named["reasoning.closure"][0]
        assert closure_span.attrs["rounds"] >= 1


class TestOverheadGate:
    def test_disabled_hooks_are_cheap_noops(self, warehouse):
        # not a timing assertion (the benchmark of record's
        # obs.unsampled_overhead_ratio owns that) — this pins
        # the structural property: with nothing installed, the ambient
        # helpers return shared singletons and the evaluator profile
        # hook reads None
        from repro.obs.profile import current_profile
        from repro.obs.trace import span, tracing

        assert not tracing()
        assert current_profile() is None
        assert span("x") is span("y")
