"""Partitioner invariants the sharded gateway relies on.

Ontology and thesaurus replicate to every shard; instance facts land on
exactly one shard; every ``isMappedTo`` component, with its reified
mapping nodes, lands on one shard, whose lineage trace equals the
single-node one; the whole split is a deterministic pure function of
the store content.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MetadataWarehouse, TERMS
from repro.etl import SynonymThesaurus
from repro.rdf.namespace import RDF
from repro.storage import (
    changed_shards,
    partition_store,
    shard_filename,
    shard_of,
    write_shard_snapshots,
)

N = 3


def build_warehouse(extra_instances=()):
    """A small landscape: a mapping chain, a thesaurus, one class."""
    mdw = MetadataWarehouse()
    node = mdw.schema.declare_class("Node")
    items = [mdw.facts.add_instance(f"item{k}", node) for k in range(12)]
    for i, (a, b) in enumerate(zip(items, items[1:])):
        mdw.facts.add_mapping(a, b, rule=f"rule-{i}", condition="country = 'CH'")
    thesaurus = SynonymThesaurus()
    thesaurus.add_synonym("item", "element")
    thesaurus.materialize(mdw.graph)
    for name in extra_instances:
        mdw.facts.add_instance(name, node)
    return mdw, items, node


@pytest.fixture
def warehouse():
    return build_warehouse()


class TestShardOf:
    def test_deterministic_and_in_range(self, warehouse):
        mdw, items, _ = warehouse
        for term in items:
            assert 0 <= shard_of(term, N) < N
            assert shard_of(term, N) == shard_of(term, N)

    def test_spreads_across_shards(self, warehouse):
        """CRC placement of a dozen items is not degenerate."""
        _, items, _ = warehouse
        assert len({shard_of(t, N) for t in items}) > 1

    def test_rejects_non_positive(self, warehouse):
        _, items, _ = warehouse
        with pytest.raises(ValueError):
            shard_of(items[0], 0)

    def test_filename(self):
        assert shard_filename(1, 4) == "shard-1-of-4.mdws"


class TestPartitioning:
    def test_counts_cover_the_source(self, warehouse):
        mdw, _, _ = warehouse
        plan = partition_store(mdw.store, N, mdw.model_name)
        total = len(list(mdw.graph.triples()))
        assert plan.replicated_triples + plan.routed_triples == total
        assert plan.routed_triples > 0 and plan.replicated_triples > 0

    def test_union_equals_source(self, warehouse):
        mdw, _, _ = warehouse
        plan = partition_store(mdw.store, N, mdw.model_name)
        union = set()
        for store in plan.stores:
            union.update(store.model(mdw.model_name).triples())
        assert union == set(mdw.graph.triples())

    def test_ontology_and_thesaurus_replicated(self, warehouse):
        mdw, _, node = warehouse
        plan = partition_store(mdw.store, N, mdw.model_name)
        declaration = list(mdw.graph.triples(node, RDF.term("type"), None))
        synonyms = [
            t for t in mdw.graph.triples(None, TERMS.synonym_of, None)
        ]
        assert declaration and synonyms
        for store in plan.stores:
            graph = store.model(mdw.model_name)
            for triple in declaration + synonyms:
                assert triple in set(graph.triples())

    def test_instance_triples_on_exactly_one_shard(self, warehouse):
        mdw, items, _ = warehouse
        plan = partition_store(mdw.store, N, mdw.model_name)
        for item in items:
            owner = plan.owner_of(item)
            for index, store in enumerate(plan.stores):
                graph = store.model(mdw.model_name)
                count = len(list(graph.triples(item, TERMS.has_name, None)))
                assert count == (1 if index == owner else 0)

    def test_mapping_nodes_colocated_with_source(self, warehouse):
        """Reified mapping meta-data follows the *source* instance, so
        ``LineageService.edge`` stays on the source's shard."""
        mdw, _, _ = warehouse
        plan = partition_store(mdw.store, N, mdw.model_name)
        edges = list(mdw.graph.triples(None, TERMS.is_mapped_to, None))
        assert edges
        for edge in edges:
            owner = plan.owner_of(edge.subject)
            graph = plan.stores[owner].model(mdw.model_name)
            assert edge in set(graph.triples())
            for mapping in mdw.graph.objects(edge.subject, TERMS.has_mapping):
                mapping_triples = list(mdw.graph.triples(mapping, None, None))
                assert mapping_triples
                shard_triples = set(graph.triples(mapping, None, None))
                assert shard_triples == set(mapping_triples)

    def test_lineage_component_on_one_shard(self, warehouse):
        """The items hash to different shards, yet the whole chain is
        placed by its representative, the smallest ``n3()``."""
        mdw, items, _ = warehouse
        assert len({shard_of(item, N) for item in items}) > 1
        plan = partition_store(mdw.store, N, mdw.model_name)
        representative = min(items, key=lambda t: t.n3())
        assert {plan.owner_of(item) for item in items} == {
            shard_of(representative, N)
        }

    def test_entailment_index_partitioned_and_attached(self, warehouse):
        mdw, _, _ = warehouse
        mdw.build_entailment_index("OWLPRIME")
        derived = mdw.store.index(mdw.model_name, "OWLPRIME")
        plan = partition_store(mdw.store, N, mdw.model_name)
        union = set()
        for store in plan.stores:
            part = store.index(mdw.model_name, "OWLPRIME")
            assert part is not None
            union.update(part.triples())
        assert union == set(derived.triples())


class TestDeterminism:
    def test_snapshots_byte_identical_across_runs(self, warehouse, tmp_path):
        mdw, _, _ = warehouse
        dirs = (tmp_path / "a", tmp_path / "b")
        for directory in dirs:
            plan = partition_store(mdw.store, N, mdw.model_name)
            write_shard_snapshots(plan, directory)
        for index in range(N):
            name = shard_filename(index, N)
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_identical_content_changes_nothing(self, warehouse):
        mdw, _, _ = warehouse
        old = partition_store(mdw.store, N, mdw.model_name)
        new = partition_store(mdw.store, N, mdw.model_name)
        assert changed_shards(old, new) == []

    def test_delta_touches_only_owner_shard(self):
        mdw_old, _, _ = build_warehouse()
        mdw_new, _, _ = build_warehouse(extra_instances=("fresh_column",))
        old = partition_store(mdw_old.store, N, mdw_old.model_name)
        new = partition_store(mdw_new.store, N, mdw_new.model_name)
        fresh = mdw_new.facts.namespace.term("fresh_column")
        assert changed_shards(old, new) == [shard_of(fresh, N)]

    def test_shard_count_change_replaces_everything(self, warehouse):
        mdw, _, _ = warehouse
        old = partition_store(mdw.store, N, mdw.model_name)
        new = partition_store(mdw.store, N + 1, mdw.model_name)
        assert changed_shards(old, new) == list(range(N + 1))


# -- placement and lineage as properties ---------------------------------------

_MOTIFS = {
    "chain": lambda k: [(i, i + 1) for i in range(k - 1)],
    "cycle": lambda k: [(i, (i + 1) % k) for i in range(k)],
    "diamond": lambda k: [(0, 1), (0, 2), (1, 3), (2, 3)],
}


@st.composite
def mapping_landscapes(draw):
    """Chains, cycles and diamonds on fresh items, a few cross edges
    that may join them, rule/condition text on some edges (reified
    mapping nodes), and unmapped items."""
    mdw = MetadataWarehouse()
    node = mdw.schema.declare_class("Node")
    items, edges = [], set()
    for shape in draw(st.lists(st.sampled_from(sorted(_MOTIFS)), max_size=3)):
        k = 4 if shape == "diamond" else draw(st.integers(2, 4))
        base = len(items)
        items += [mdw.facts.add_instance(f"item{base + i}", node) for i in range(k)]
        edges.update((base + a, base + b) for a, b in _MOTIFS[shape](k))
    items += [
        mdw.facts.add_instance(f"loose{i}", node)
        for i in range(draw(st.integers(0 if items else 1, 2)))
    ]
    index = st.integers(0, len(items) - 1)
    edges.update(draw(st.lists(st.tuples(index, index), max_size=3)))
    for a, b in sorted(edges):
        mdw.facts.add_mapping(
            items[a],
            items[b],
            rule=draw(st.sampled_from([None, "copy", "cast(amount)"])),
            condition=draw(st.sampled_from([None, "country = 'CH'"])),
        )
    return mdw, items


def assert_same_trace(got, want):
    assert got.edges == want.edges
    assert got.depth == want.depth


@settings(max_examples=60, deadline=None)
@given(mapping_landscapes(), st.integers(1, 3))
def test_placement_keeps_every_trace_on_one_shard(landscape, n_shards):
    mdw, items = landscape
    plan = partition_store(mdw.store, n_shards, mdw.model_name)
    source = set(mdw.graph.triples())
    shards = [set(store.model(mdw.model_name).triples()) for store in plan.stores]
    assert set().union(*shards) == source

    # routed (instance and mapping-node) triples live on exactly one
    # shard, the owner of their subject; the rest is replicated
    mapping_nodes = {t.object for t in source if t.predicate == TERMS.has_mapping}
    routed = 0
    for triple in source:
        holders = [i for i, part in enumerate(shards) if triple in part]
        if triple.subject in items or triple.subject in mapping_nodes:
            routed += 1
            assert holders == [plan.owner_of(triple.subject)]
        else:
            assert holders == list(range(n_shards))
    assert plan.routed_triples == routed

    for triple in source:
        if triple.predicate == TERMS.is_mapped_to:
            assert plan.owner_of(triple.subject) == plan.owner_of(triple.object)
        if triple.predicate == TERMS.has_mapping:
            holder = shards[plan.owner_of(triple.subject)]
            assert triple in holder
            assert {t for t in source if t.subject == triple.object} <= holder

    shard_warehouses = [
        MetadataWarehouse(
            model=mdw.model_name,
            store=store,
            schema_ns=mdw.schema.namespace,
            instance_ns=mdw.facts.namespace,
        )
        for store in plan.stores
    ]
    for item in items:
        owner = shard_warehouses[plan.owner_of(item)]
        for direction in ("upstream", "downstream"):
            for max_depth in (None, 1, 2):
                assert_same_trace(
                    owner.lineage.trace(item, direction, max_depth=max_depth),
                    mdw.lineage.trace(item, direction, max_depth=max_depth),
                )
