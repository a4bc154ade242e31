"""Fleet-wide observability through the sharded gateway.

Cross-shard trace propagation (gateway request ⊃ per-shard request
spans ⊃ operator spans), span grafting under failure (superseded
late workers, WorkerLost requeues), the unified gateway
slow-query log, per-shard degraded attribution, and the journal
events of shard replacement and rebalancing.
"""

import sys

import pytest

from repro.core import MetadataWarehouse
from repro.obs import get_journal, trace_scope, validate_chrome_trace
from repro.obs.registry import get_registry
from repro.server import DeadlineExceeded, ServiceConfig
from tests.server.conftest import (
    breaker_settings,
    mint_instances,
    supervision_timings,
    thread_service,
)


def three_shard_chain():
    """a -> b -> c -> d -> e spread over all three shards."""
    mdw = MetadataWarehouse()
    node = mdw.schema.declare_class("Node")
    items, names = mint_instances(mdw, node, [0, 1, 2, 0, 1], 3)
    for i, (a, b) in enumerate(zip(items, items[1:])):
        mdw.facts.add_mapping(a, b, rule=f"rule-{i}")
    return mdw, items, names


def spans_by_name(tracer):
    out = {}
    for s in tracer.spans():
        out.setdefault(s.name, []).append(s)
    return out


def children_of(spans, parent):
    return [s for s in spans if s.parent_id == parent.span_id]


def descends_from(spans, span, ancestor):
    by_id = {s.span_id: s for s in spans}
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        if span is ancestor:
            return True
    return False


def lineage_tree(tracer):
    """The gateway lineage span, its shard request spans, and the
    lineage operator spans under each of those."""
    spans = tracer.spans()
    (gateway,) = [
        s
        for s in spans
        if s.name == "request" and s.attrs.get("request_id", "").startswith("g-")
    ]
    shard_requests = [s for s in children_of(spans, gateway) if s.name == "request"]
    operators = {
        request.span_id: [
            s
            for s in spans
            if s.name == "operator"
            and s.attrs.get("op") == "trace"
            and descends_from(spans, s, request)
        ]
        for request in shard_requests
    }
    return gateway, shard_requests, operators


class TestCrossShardTracePropagation:
    def test_lineage_nests_gateway_shard_operator(self):
        """The acceptance shape: one sampled Listing-2 lineage against a
        3-shard fleet yields a single trace tree, gateway request ⊃ the
        owner shard's request span ⊃ the lineage operator span — and it
        round-trips the structural validator."""
        mdw, items, _names = three_shard_chain()
        with trace_scope() as tracer:
            with thread_service(mdw, n_shards=3) as svc:
                got = svc.lineage(items[0], direction="downstream")
                owner = svc.owner_of(items[0])
        assert len(got.edges) == 4 and not got.degraded
        gateway, shard_requests, operators = lineage_tree(tracer)
        assert gateway.parent_id is None
        assert gateway.attrs["kind"] == "lineage"
        (request,) = shard_requests
        assert request.attrs["kind"] == "lineage"
        assert request.attrs["shard"] == str(owner)
        (operator,) = operators[request.span_id]
        assert operator.parent_id == request.span_id
        assert operator.attrs["edges"] == 4
        summary = validate_chrome_trace(tracer.to_chrome())
        assert {"request", "operator"} <= set(summary["names"])

    def test_upstream_lineage_asks_one_shard(self):
        """Upstream edges live with the component too: no scatter."""
        mdw, items, _names = three_shard_chain()
        with trace_scope() as tracer:
            with thread_service(mdw, n_shards=3) as svc:
                got = svc.lineage(items[-1], direction="upstream")
                owner = svc.owner_of(items[-1])
        assert len(got.edges) == 4
        _, shard_requests, _ = lineage_tree(tracer)
        assert [r.attrs["shard"] for r in shard_requests] == [str(owner)]
        validate_chrome_trace(tracer.to_chrome())

    def test_search_scatter_nests_under_gateway_request(self):
        mdw, _items, _names = three_shard_chain()
        with trace_scope() as tracer:
            with thread_service(mdw, n_shards=3) as svc:
                svc.search("n0", regex=True)
        spans = tracer.spans()
        named = spans_by_name(tracer)
        (gateway,) = [
            s
            for s in named["request"]
            if s.attrs.get("kind") == "search"
            and s.attrs.get("request_id", "").startswith("g-")
        ]
        shard_level = [
            s for s in children_of(spans, gateway) if s.name == "request"
        ]
        assert len(shard_level) == 3
        assert {s.attrs["shard"] for s in shard_level} == {"0", "1", "2"}
        validate_chrome_trace(tracer.to_chrome())

    def test_unsampled_gateway_emits_nothing(self):
        from repro.obs import Tracer

        mdw, items, _names = three_shard_chain()
        tracer = Tracer(sample_rate=0.0)
        with trace_scope(tracer):
            with thread_service(mdw, n_shards=3) as svc:
                svc.lineage(items[0], direction="downstream")
        assert tracer.spans() == []


@pytest.mark.skipif(sys.platform == "win32", reason="fork workers are POSIX-only")
class TestForkShardPropagation:
    def test_shard_spans_cross_the_process_boundary(self, tmp_path):
        mdw, items, _names = three_shard_chain()
        with trace_scope() as tracer:
            with thread_service(
                mdw,
                n_shards=3,
                worker_mode="fork",
                supervise=False,
                snapshot_dir=str(tmp_path / "shards"),
            ) as svc:
                got = svc.lineage(items[0], direction="downstream")
        assert len(got.edges) == 4
        summary = validate_chrome_trace(tracer.to_chrome())
        assert summary["pids"] >= 2  # child-process spans grafted in
        gateway, shard_requests, operators = lineage_tree(tracer)
        (request,) = shard_requests
        # gateway ⊃ shard request ⊃ fork-dispatch (child pid) ⊃ operator
        (operator,) = operators[request.span_id]
        assert operator.pid != gateway.pid
        for dispatch in spans_by_name(tracer)["fork-dispatch"]:
            assert dispatch.pid != gateway.pid


@pytest.mark.skipif(sys.platform == "win32", reason="fork workers are POSIX-only")
class TestGraftingUnderFailure:
    def test_superseded_loser_never_grafts(self, warehouse, tmp_path):
        """A worker that answers after the deadline backstop already
        failed its request loses the exactly-once claim: its request
        span is marked superseded and its child spans are dropped, and
        the exported trace stays orphan-free."""
        from repro.resilience.faults import FaultInjector, fault_scope

        injector = FaultInjector()
        injector.arm("worker.hang", "delay", delay=0.8, times=1)
        config = ServiceConfig(
            max_workers=1,
            worker_mode="fork",
            snapshot_dir=str(tmp_path / "snaps"),
        )
        with fault_scope(injector):
            with trace_scope() as tracer:
                with warehouse.serve(config) as service:
                    with pytest.raises(DeadlineExceeded):
                        service.query(
                            "SELECT ?s ?n WHERE { ?s dm:hasName ?n }", timeout=0.15
                        )
                    # close() drains the late worker's settlement
                snap = service.metrics_snapshot()
        assert snap["timeouts"] == 1 and snap["failed"] == 1
        spans = tracer.spans()
        (loser,) = spans_by_name(tracer)["request"]
        assert loser.attrs["outcome"] == "superseded"
        assert children_of(spans, loser) == []
        assert "fork-dispatch" not in spans_by_name(tracer)
        validate_chrome_trace(tracer.to_chrome())

    def test_worker_lost_requeue_leaves_no_orphans(
        self, warehouse, tmp_path, monkeypatch
    ):
        """Every attempt lands on a worker that dies mid-request: the
        dead children never ship spans, the in-process fallback's spans
        graft under the winning attempt, and the trace validates."""
        from repro.resilience.faults import FaultInjector, fault_scope

        injector = FaultInjector()
        injector.arm("worker.crash", "raise", times=1)
        supervision_timings(monkeypatch)
        config = ServiceConfig(
            max_workers=1,
            worker_mode="fork",
            snapshot_dir=str(tmp_path / "snaps"),
            supervise=True,
        )
        with fault_scope(injector):
            with trace_scope() as tracer:
                with warehouse.serve(config) as service:
                    rows = service.query(
                        "SELECT ?s ?n WHERE { ?s dm:hasName ?n }", timeout=60
                    )
                    assert len(rows) > 0
                    assert getattr(rows, "degraded", False) is True
                    snap = service.metrics_snapshot()
        assert snap["worker_lost"] == 3 and snap["requeued"] == 2
        spans = tracer.spans()
        named = spans_by_name(tracer)
        # crashed children died before shipping extras: nothing grafted
        assert "fork-dispatch" not in named
        # only the winning (fallback) attempt has child spans
        with_children = [
            s for s in named["request"] if children_of(spans, s)
        ]
        assert len(with_children) == 1
        validate_chrome_trace(tracer.to_chrome())


@pytest.fixture(scope="module")
def warehouse():
    from repro.synth import LandscapeConfig, generate_landscape

    land = generate_landscape(LandscapeConfig.tiny(seed=11))
    return land.warehouse


class TestUnifiedSlowQueryLog:
    def test_slow_sharded_request_logged_once_at_gateway(self):
        mdw, items, _names = three_shard_chain()
        with thread_service(
            mdw, n_shards=3, slow_query_threshold=1e-9
        ) as svc:
            svc.lineage(items[0], direction="downstream")
            gateway_entries = svc.metrics.slow_queries.entries()
            shard_entries = [
                e
                for i in range(3)
                for e in svc.shard_service(i).metrics.slow_queries.entries()
            ]
        (entry,) = gateway_entries
        assert entry.kind == "lineage"
        assert entry.request_id.startswith("g-")
        assert "shard0=" in entry.statement  # per-shard timing breakdown
        # shard-local slow logs are off: one entry fleet-wide, not N
        assert shard_entries == []

    def test_failed_shards_named_in_the_entry(self):
        mdw, items, _names = three_shard_chain()
        with thread_service(
            mdw,
            n_shards=3,
            slow_query_threshold=1e-9,
        ) as svc:
            owner = svc.owner_of(items[0])
            svc.shard_service(owner).close()
            svc.lineage(items[0], direction="downstream")
            (entry,) = svc.metrics.slow_queries.entries()
        assert f"failed shards: [{owner}]" in entry.statement

    def test_fast_requests_not_logged(self):
        mdw, items, _names = three_shard_chain()
        with thread_service(mdw, n_shards=3, slow_query_threshold=60.0) as svc:
            svc.lineage(items[0], direction="downstream")
            assert svc.metrics.slow_queries.entries() == []

    def test_worker_lost_attribution_still_logged_on_shards(self, monkeypatch):
        """Shards keep no latency log — the gateway logs each slow
        request once — but a WorkerLost casualty entry still lands in
        the shard's own log: it carries evidence the gateway never sees."""
        from repro.server import WorkerLost

        mdw, items, _names = three_shard_chain()
        with thread_service(mdw, n_shards=2, slow_query_threshold=1e-9) as svc:
            owner = svc.owner_of(items[0])

            def die(request, extras_sink):
                raise WorkerLost(request.request_id, exitcode=-9)

            monkeypatch.setattr(svc.shard_service(owner)._inline, "run", die)
            got = svc.lineage(items[0], direction="downstream")
            (entry,) = svc.metrics.slow_queries.entries()
            shard_entries = [
                svc.shard_service(i).metrics.slow_queries.entries() for i in range(2)
            ]
        assert got.degraded
        assert f"failed shards: [{owner}]" in entry.statement
        assert shard_entries[1 - owner] == []
        (lost,) = shard_entries[owner]
        assert lost.statement.startswith("[worker lost: exit -9")


class TestDegradedAttribution:
    def test_degraded_counter_names_the_failed_shard(self):
        mdw, _items, _names = three_shard_chain()
        with thread_service(
            mdw,
            n_shards=3,
            name="degraded-attr-test",
        ) as svc:
            svc.shard_service(1).close()
            got = svc.search("n0", regex=True)
        assert got.degraded
        counter = get_registry().counter(
            "mdw_service_degraded_total", labels=("service", "kind", "shard")
        )
        assert (
            counter.child(
                service="degraded-attr-test", kind="search", shard="1"
            ).value
            >= 1
        )
        # healthy shards are not blamed
        assert (
            counter.child(
                service="degraded-attr-test", kind="search", shard="0"
            ).value
            == 0
        )

    def test_two_dead_shards_are_one_degraded_response_each(self):
        """A partial answer counts once however many shards are down."""
        mdw, _items, _names = three_shard_chain()
        name = "degraded-once-test"
        with thread_service(mdw, n_shards=3, name=name) as svc:
            svc.shard_service(1).close()
            svc.shard_service(2).close()
            for _ in range(10):
                assert svc.search("n0", regex=True).degraded
            snap = svc.metrics_snapshot()["gateway"]
        assert snap["completed"] == 10
        assert snap["degraded_responses"] == 10
        # attribution stays per failed shard: one inc per shard per answer
        counter = get_registry().counter(
            "mdw_service_degraded_total", labels=("service", "kind", "shard")
        )
        by_shard = {
            shard: counter.child(service=name, kind="search", shard=shard).value
            for shard in ("0", "1", "2", "gateway")
        }
        assert by_shard == {"0": 0, "1": 10, "2": 10, "gateway": 0}


class TestFleetSloAndJournal:
    def test_shard_replace_and_breaker_reach_the_journal(self, monkeypatch):
        from repro.server import WorkerLost

        mdw, _items, _names = three_shard_chain()
        journal = get_journal()
        before = len(journal.events(kind="shard-replace"))

        def search_opens():
            return [
                e
                for e in journal.events(kind="breaker", shard="0")
                if e.attrs.get("breaker") == "search" and e.attrs.get("to") == "open"
            ]

        opens_before = len(search_opens())
        breaker_settings(monkeypatch, threshold=1)
        with thread_service(mdw, n_shards=2, name="journal-test") as svc:

            def die(request, extras_sink):
                raise WorkerLost(request.request_id, exitcode=-9)

            monkeypatch.setattr(svc.shard_service(0)._inline, "run", die)
            # shard 0's search endpoint fails once: its breaker opens
            assert svc.search("n0", regex=True).degraded
            svc.replace_shard(0)
        replaces = journal.events(kind="shard-replace", service="journal-test")
        assert len(journal.events(kind="shard-replace")) > before
        assert replaces and replaces[-1].shard == "0"
        opens = search_opens()
        assert len(opens) > opens_before and opens[-1].severity == "warning"

    def test_rebalance_reaches_the_journal(self):
        mdw, _items, _names = three_shard_chain()
        with thread_service(mdw, n_shards=2, name="rebalance-journal") as svc:
            node = mdw.schema.declare_class("Extra")
            mdw.facts.add_instance("rebalance_extra", node)
            outcome = svc.rebalance(mdw.store)
        events = get_journal().events(
            kind="shard-rebalance", service="rebalance-journal"
        )
        assert events and events[-1].attrs["changed"] == outcome["changed"]
