"""The sharded scatter-gather gateway.

Lineage over chains and cycles whose items hash to different shards
(answered whole by the one shard holding the component, with one
sub-request per trace), bit-identity of search and lineage against the
single-node services, degraded partial answers when a shard dies, and
the replace/rebalance operational paths. Most tests run the shards in
thread mode; ``TestForkShards`` runs supervised fork-mode shards and
SIGKILLs their workers.
"""

import sys
import time

import pytest

from repro.core import MetadataWarehouse, TERMS
from repro.etl import SynonymThesaurus
from repro.obs import parse_exposition, render_prometheus
from repro.rdf.terms import Literal
from repro.resilience.faults import FaultInjector, fault_scope
from repro.server import (
    DeadlineExceeded,
    QueryService,
    QueryServiceError,
    ServiceClosed,
    ShardedConfig,
    ShardedQueryService,
    service as service_module,
)
from repro.server.service import dispatch
from repro.services.search import SearchFilters
from repro.storage import partition_store, shard_of
from repro.synth import make_scatter_workload

from .conftest import (
    breaker_settings,
    canonical,
    direct_answers,
    kill_storm,
    mint_instances,
    supervision_timings,
    thread_service,
    wait_for,
)


@pytest.fixture
def chain():
    """a -> b -> c -> d -> e, items hashing to alternating shards."""
    mdw = MetadataWarehouse()
    node = mdw.schema.declare_class("Node")
    items, names = mint_instances(mdw, node, [0, 1, 0, 1, 0], 2)
    for i, (a, b) in enumerate(zip(items, items[1:])):
        mdw.facts.add_mapping(a, b, rule=f"rule-{i}", condition=f"cond-{i}")
    return mdw, items, names


def assert_same_trace(got, want):
    """Bit-identity: same edges in the same order, same depths."""
    assert got.start == want.start
    assert got.direction == want.direction
    assert got.edges == want.edges
    assert got.depth == want.depth


class TestFrontierExchange:
    """Multi-hop traces over chains and cycles whose items hash to
    different shards: the shard holding the component answers alone,
    edge for edge and depth for depth like a single node."""

    def test_chain_actually_crosses_shards(self, chain):
        """The items hash to alternating shards, yet one shard stores
        the whole chain."""
        mdw, items, _ = chain
        assert [shard_of(t, 2) for t in items] == [0, 1, 0, 1, 0]
        plan = partition_store(mdw.store, 2, mdw.model_name)
        edges = set(mdw.graph.triples(None, TERMS.is_mapped_to, None))
        holders = [
            index
            for index, store in enumerate(plan.stores)
            if edges & set(store.model(mdw.model_name).triples())
        ]
        assert holders == [plan.owner_of(items[0])]
        owner_graph = plan.stores[holders[0]].model(mdw.model_name)
        assert edges <= set(owner_graph.triples())

    def test_downstream_bit_identical(self, chain):
        mdw, items, _ = chain
        with thread_service(mdw) as svc:
            got = svc.lineage(items[0], direction="downstream")
        want = mdw.lineage.trace(items[0], "downstream")
        assert_same_trace(got, want)
        assert not got.degraded
        # rule/condition meta-data travelled with the component
        assert {e.rule for e in got.edges} == {f"rule-{i}" for i in range(4)}

    def test_upstream_bit_identical(self, chain):
        mdw, items, _ = chain
        with thread_service(mdw) as svc:
            got = svc.lineage(items[-1], direction="upstream")
        assert_same_trace(got, mdw.lineage.trace(items[-1], "upstream"))

    def test_max_depth_cuts_identically(self, chain):
        mdw, items, _ = chain
        with thread_service(mdw) as svc:
            got = svc.lineage(items[0], direction="downstream", max_depth=2)
        want = mdw.lineage.trace(items[0], "downstream", max_depth=2)
        assert_same_trace(got, want)
        assert len(got.edges) == 2

    def test_lineage_by_name_resolves_across_shards(self, chain):
        mdw, items, names = chain
        with thread_service(mdw) as svc:
            got = svc.execute("lineage", item=names[1], direction="downstream")
        want = dispatch(
            mdw, "lineage", {"item": names[1], "direction": "downstream"}
        )
        assert_same_trace(got, want)

    def test_unknown_name_is_an_error_when_healthy(self, chain):
        mdw, _, _ = chain
        with thread_service(mdw) as svc:
            with pytest.raises(QueryServiceError, match="no item named"):
                svc.lineage("no_such_item")

    def test_cycle_spanning_shards_terminates(self):
        mdw = MetadataWarehouse()
        node = mdw.schema.declare_class("Node")
        (a, b, c), _ = mint_instances(mdw, node, [0, 1, 0], 2)
        mdw.facts.add_mapping(a, b, rule="fwd")
        mdw.facts.add_mapping(b, a, rule="back")  # a, b hash apart
        mdw.facts.add_mapping(b, c, rule="out")
        with thread_service(mdw) as svc:
            for direction in ("downstream", "upstream"):
                got = svc.lineage(a, direction=direction)
                assert_same_trace(got, mdw.lineage.trace(a, direction))
                assert not got.degraded

    def test_deadline_expiry_mid_round_is_typed(self, chain):
        mdw, items, _ = chain
        with thread_service(mdw) as svc:

            def submitted():
                return [
                    svc.shard_service(i).metrics.snapshot()["submitted"]
                    for i in range(2)
                ]

            owner = svc.owner_of(items[-1])
            baseline = svc.lineage(items[-1], direction="upstream")
            assert len(baseline.edges) == 4
            before = submitted()
            # the owner's worker stalls outside every cooperative check,
            # so the budget runs out inside the one lineage sub-request,
            # not at admission
            injector = FaultInjector()
            injector.arm("worker.execute", "delay", delay=0.3, times=1)
            with fault_scope(injector):
                with pytest.raises(DeadlineExceeded):
                    svc.lineage(items[-1], direction="upstream", timeout=0.1)
            after = submitted()
        assert [a - b for a, b in zip(after, before)] == [
            1 if i == owner else 0 for i in range(2)
        ]


class TestPointRoutedLineage:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_one_subrequest_per_lineage(self, chain, n_shards):
        mdw, items, _ = chain
        with thread_service(mdw, n_shards=n_shards) as svc:
            for item in items:
                for direction in ("upstream", "downstream"):
                    svc.lineage(item, direction=direction)
            snap = svc.metrics_snapshot()
        submitted = sum(shard["submitted"] for shard in snap["shards"].values())
        assert snap["gateway"]["completed"] == 2 * len(items)
        assert submitted == snap["gateway"]["completed"]


@pytest.fixture
def landscape():
    """A richer warehouse: shared name fragments and a thesaurus."""
    mdw = MetadataWarehouse()
    column = mdw.schema.declare_class("Column")
    table = mdw.schema.declare_class("Table")
    for k in range(8):
        mdw.facts.add_instance(f"customer_{k}", column)
        mdw.facts.add_instance(f"client_{k}", column)
        mdw.facts.add_instance(f"trade_{k}", table)
    items = [
        mdw.facts.add_instance(f"link_{k}", column) for k in range(6)
    ]
    for a, b in zip(items, items[1:]):
        mdw.facts.add_mapping(a, b, rule="copy")
    thesaurus = SynonymThesaurus()
    thesaurus.add_synonym("customer", "client")
    thesaurus.materialize(mdw.graph)
    return mdw


class TestSearchAndLookup:
    def test_search_merge_bit_identical(self, landscape):
        want = dispatch(landscape, "search", {"term": "customer"})
        with thread_service(landscape, n_shards=3) as svc:
            got = svc.search("customer")
        assert canonical("search", got) == canonical("search", want)
        assert got.expanded_terms == want.expanded_terms
        assert got.homonym_warnings == want.homonym_warnings
        assert got.groups() == want.groups()
        assert not got.degraded

    def test_synonym_expansion_merges(self, landscape):
        want = dispatch(
            landscape, "search", {"term": "customer", "expand_synonyms": True}
        )
        with thread_service(landscape, n_shards=3) as svc:
            got = svc.search("customer", expand_synonyms=True)
        assert canonical("search", got) == canonical("search", want)
        assert got.expanded_terms == ["customer", "client"]

    def test_lookup_routes_to_matches(self, landscape):
        want = dispatch(landscape, "lookup", {"name": "trade_3"})
        with thread_service(landscape, n_shards=3) as svc:
            assert svc.execute("lookup", name="trade_3") == want

    def test_workload_bit_identical_at_every_scale(self, landscape):
        """The acceptance-criterion identity: 1, 2 and 3 shards answer a
        mixed search/lineage stream exactly like the single-node
        services."""
        ops = make_scatter_workload(landscape, n_ops=20, seed=7)
        want = [
            canonical(op.kind, dispatch(landscape, op.kind, dict(op.payload)))
            for op in ops
        ]
        for n in (1, 2, 3):
            with thread_service(landscape, n_shards=n) as svc:
                got = [
                    canonical(op.kind, svc.execute(op.kind, **op.payload))
                    for op in ops
                ]
            assert got == want, f"divergence at n_shards={n}"

    def test_non_gateway_kind_rejected(self, landscape):
        with thread_service(landscape) as svc:
            with pytest.raises(QueryServiceError, match="cannot route"):
                svc.execute("query", text="SELECT ?s WHERE { ?s ?p ?o }")

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("search", {"term": "customer", "regexp": True}),
            ("lineage", {"item": "trade_3", "depth": 2}),
            ("lookup", {"name": "trade_3", "regex": True}),
        ],
    )
    def test_unknown_option_rejected(self, landscape, kind, payload):
        with thread_service(landscape) as svc:
            with pytest.raises(QueryServiceError, match="takes no option"):
                svc.execute(kind, **payload)
            assert svc.metrics_snapshot()["gateway"]["submitted"] == 0

    def test_closed_gateway_raises(self, landscape):
        svc = thread_service(landscape)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.search("customer")


class TestRequestErrors:
    """A malformed request fails like it does on a single node, and says
    nothing about shard health: no shard breaker trips, no answer
    degrades."""

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("search", {"term": "customer", "filters": SearchFilters(classes=["NoSuchClass"])}),
            ("lineage", {"item": "link_0", "direction": "sideways"}),
        ],
        ids=["unknown-class", "bad-direction"],
    )
    def test_raises_like_single_node_and_spares_shards(self, landscape, kind, payload):
        with pytest.raises(Exception) as single:
            dispatch(landscape, kind, dict(payload))
        with thread_service(landscape) as svc:
            for _ in range(service_module.BREAKER_THRESHOLD):
                with pytest.raises(Exception) as got:
                    svc.execute(kind, **payload)
                assert type(got.value) is type(single.value)
            assert [svc.shard_service(i).health()["status"] for i in range(2)] == [
                "healthy",
                "healthy",
            ]
            full = svc.search("customer")
        want = dispatch(landscape, "search", {"term": "customer"})
        assert not full.degraded
        assert canonical("search", full) == canonical("search", want)


class TestDegradedMode:
    def test_dead_shard_degrades_never_errors(self, landscape):
        with thread_service(landscape) as svc:
            want = canonical(
                "search", dispatch(landscape, "search", {"term": "customer"})
            )
            svc.shard_service(0).close()
            answers = [svc.search("customer") for _ in range(3)]
            # every answer is the live shard's part of the full one
            partial = [hit for hit in want if svc.owner_of(hit[0]) != 0]
        assert 0 < len(partial) < len(want)
        for answer in answers:
            assert answer.degraded
            assert canonical("search", answer) == partial

    def test_lineage_to_dead_owner_is_empty_degraded(self, chain):
        mdw, items, names = chain
        with thread_service(mdw) as svc:
            svc.shard_service(svc.owner_of(items[0])).close()
            by_name = svc.lineage(names[0], direction="downstream")
            by_term = svc.lineage(items[0], direction="downstream")
        assert by_name.degraded and by_term.degraded
        assert by_name.edges == by_term.edges == []
        assert by_name.start == Literal(names[0])
        assert by_term.start == items[0]

    def test_lineage_on_a_healthy_owner_is_complete(self, chain):
        """A dead shard that holds no part of the component costs a
        Term-addressed trace nothing: complete, not degraded."""
        mdw, items, _ = chain
        with thread_service(mdw) as svc:
            svc.shard_service(1 - svc.owner_of(items[0])).close()
            got = svc.lineage(items[0], direction="downstream")
        assert not got.degraded
        assert_same_trace(got, mdw.lineage.trace(items[0], "downstream"))

    def test_health_aggregates_worst_status(self, landscape):
        with thread_service(landscape) as svc:
            assert svc.health()["status"] == "healthy"
            svc.shard_service(1).close()
            health = svc.health()
        assert health["status"] == "degraded"
        assert health["n_shards"] == 2
        assert health["shards"]["1"]["status"] == "closed"
        assert health["shards"]["0"]["status"] == "healthy"

    def test_health_schema_is_stable(self, landscape):
        with thread_service(landscape) as svc:
            doc = svc.health()["shards"]["0"]
        assert {
            "status",
            "shard",
            "generation",
            "queue_depth",
            "workers",
            "endpoints",
            "stale_indexes",
            "supervisor",
        } <= set(doc)
        assert doc["shard"] == "0"
        assert {"configured", "mode", "supervised", "alive_children"} <= set(
            doc["workers"]
        )
        assert "breaker" in doc["endpoints"]["search"]

    def test_spent_budget_never_takes_a_half_open_probe(self, landscape, monkeypatch):
        """A request whose budget is gone fails at the gateway before
        any shard admits it, so a shard endpoint breaker waiting in
        half-open keeps its one probe for the next real request."""
        breaker_settings(monkeypatch, threshold=1, cooldown=0.05)
        with thread_service(landscape) as svc:
            for i in range(2):
                svc.shard_service(i).breaker("search").on_failure()
            time.sleep(0.1)  # cooldown over: each breaker admits one probe
            with pytest.raises(DeadlineExceeded):
                svc.execute("search", term="customer", timeout=1e-6)
            got = svc.search("customer")
            states = [
                svc.shard_service(i).breaker("search").snapshot()["state"]
                for i in range(2)
            ]
        assert not got.degraded
        assert states == ["closed", "closed"]


class TestOneFrontDoor:
    """The worker pool and the gateway admit, time and settle a read
    through one path: same errors, same books."""

    ZERO = {"submitted": 0, "completed": 0, "failed": 0, "timeouts": 0}
    CASES = [
        ("bogus", {"term": "customer"}, QueryServiceError, ZERO),
        ("search", {"term": "customer", "regexp": True}, QueryServiceError, ZERO),
        ("search", {"term": "customer", "timeout": 0}, ValueError, ZERO),
        ("search", {"term": "customer", "timeout": -1}, ValueError, ZERO),
        (
            "search",
            {"term": "customer", "timeout": 1e-9},  # expired on arrival
            DeadlineExceeded,
            {"submitted": 1, "completed": 0, "failed": 1, "timeouts": 1},
        ),
    ]

    @pytest.mark.parametrize("door", ["service", "gateway"])
    def test_same_errors_same_books(self, landscape, door):
        if door == "service":
            svc = QueryService(landscape, max_workers=1, name="front-door-svc")
        else:
            svc = thread_service(landscape, n_shards=1, name="front-door-gw")

        def counters():
            snap = svc.metrics_snapshot()
            snap = snap.get("gateway", snap)  # the gateway's own block
            return {key: snap[key] for key in self.ZERO}

        def outcome(kind, payload):
            before = counters()
            with pytest.raises(Exception) as err:
                svc.execute(kind, **payload)
            after = counters()
            return type(err.value), {k: after[k] - before[k] for k in after}

        with svc:
            got = [outcome(kind, payload) for kind, payload, _, _ in self.CASES]
        got.append(outcome("search", {"term": "customer"}))
        want = [(error, delta) for _, _, error, delta in self.CASES]
        assert got == want + [(ServiceClosed, self.ZERO)]

    def test_sharded_config_validates_the_shared_block(self):
        with pytest.raises(ValueError, match="supervise requires"):
            ShardedConfig(worker_mode="thread", supervise=True)
        with pytest.raises(ValueError, match="max_queue"):
            ShardedConfig(max_queue=0)


class TestOperations:
    def test_replace_shard_restores_full_answers(self, landscape):
        want = dispatch(landscape, "search", {"term": "customer"})
        with thread_service(landscape) as svc:
            svc.shard_service(0).close()
            assert svc.search("customer").degraded
            svc.replace_shard(0)
            got = svc.search("customer")
            health = svc.health()
        assert not got.degraded
        assert canonical("search", got) == canonical("search", want)
        assert health["status"] == "healthy"

    def test_rebalance_replaces_only_changed_shards(self, landscape):
        with thread_service(landscape) as svc:
            column = landscape.schema.declare_class("Column")
            fresh = landscape.facts.add_instance("fresh_column", column)
            outcome = svc.rebalance(landscape.store)
            assert outcome["changed"] == [shard_of(fresh, 2)]
            assert len(outcome["changed"]) + len(outcome["unchanged"]) == 2
            assert svc.execute("lookup", name="fresh_column") == [fresh]

    def test_owner_of_matches_partitioner(self, landscape):
        plan = partition_store(landscape.store, 3, landscape.model_name)
        names = ["trade_0"] + [f"link_{k}" for k in range(6)]
        terms = [landscape.facts.namespace.term(name) for name in names]
        with thread_service(landscape, n_shards=3) as svc:
            assert [svc.owner_of(t) for t in terms] == [plan.owner_of(t) for t in terms]
            # an unmapped item is placed by its own hash
            assert svc.owner_of(terms[0]) == shard_of(terms[0], 3)


@pytest.mark.skipif(sys.platform.startswith("win"), reason="fork start method required")
class TestForkShards:
    def test_kill_storm_then_shard_loss_then_replacement(
        self, landscape, tmp_path, monkeypatch
    ):
        """On supervised fork shards: a kill storm on one shard loses
        nothing; closing that shard degrades every answer (never an
        error, the same partial answer every time) and the fleet
        health; and ``replace_shard`` brings back the full, un-degraded
        answers."""
        ops = make_scatter_workload(landscape, n_ops=60, seed=7)
        want = direct_answers(landscape, ops)
        heartbeat = supervision_timings(monkeypatch, heartbeat=0.2, hang=2.0)
        monkeypatch.setattr(service_module, "MAX_ATTEMPTS", 4)
        # the per-shard endpoint breakers are not under test
        breaker_settings(monkeypatch, threshold=10_000)
        config = ShardedConfig(
            name="fork-shards",
            max_queue=len(ops) + 32,
            snapshot_dir=str(tmp_path),
        )
        with ShardedQueryService(landscape, config) as svc:
            victim = svc.shard_service(0)
            wait_for(
                lambda: victim.supervisor.alive_children() == config.workers_per_shard,
                5.0,
                "victim shard never reached full size",
            )
            landed, got = kill_storm(svc, victim, ops)
            assert landed >= 1
            assert got == want
            wait_for(
                lambda: victim.supervisor.deficit() == 0,
                3 * heartbeat,
                "victim pool not back at size within 3 heartbeat intervals",
            )
            books = victim.metrics_snapshot()
            assert books["worker_lost"] >= 1  # a kill took a request down with it
            assert books["failed"] == 0

            victim.close(wait=False)
            partial = [svc.execute(op.kind, **op.payload) for op in ops]
            again = [svc.execute(op.kind, **op.payload) for op in ops]
            assert all(answer.degraded for answer in partial + again)
            assert [canonical(op.kind, a) for op, a in zip(ops, again)] == [
                canonical(op.kind, a) for op, a in zip(ops, partial)
            ]
            assert svc.health()["status"] == "degraded"

            replacement = svc.replace_shard(0)
            wait_for(
                lambda: replacement.supervisor.alive_children() == config.workers_per_shard,
                5.0,
                "replacement shard never reached full size",
            )
            recovered = [svc.execute(op.kind, **op.payload) for op in ops]
            assert not any(answer.degraded for answer in recovered)
            assert [canonical(op.kind, a) for op, a in zip(ops, recovered)] == want


class TestShardMetricLabels:
    def test_shard_labels_round_trip_through_exposition(self, landscape):
        with thread_service(landscape, name="shard-label-test") as svc:
            svc.search("customer")
            svc.lineage("link_0", direction="downstream")
            families = parse_exposition(render_prometheus())
        requests = [
            labels
            for _, labels, value in families["mdw_service_requests_total"]["samples"]
            if labels["service"].startswith("shard-label-test") and value > 0
        ]
        assert requests
        assert {labels["shard"] for labels in requests} == {"0", "1", "gateway"}
        for labels in requests:
            if labels["shard"] == "gateway":
                assert labels["service"] == "shard-label-test"
            else:
                assert (
                    labels["service"]
                    == f"shard-label-test-shard{labels['shard']}"
                )
        breaker_labels = [
            labels
            for _, labels, _ in families["mdw_breaker_state"]["samples"]
            if labels["service"].startswith("shard-label-test")
        ]
        assert breaker_labels
        assert {labels["shard"] for labels in breaker_labels} == {"0", "1"}
