"""Canonical answer forms and sharded-fleet helpers shared by the
serving-tier suites."""

from repro.server import ShardedConfig, ShardedQueryService
from repro.storage import shard_of


def canonical_rows(rows):
    """Bound rows of a ``query`` / ``sql`` answer, order-insensitive."""
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in row.asdict().items())) for row in rows
    )


def canonical(kind, result):
    """A comparable form of any read endpoint's answer: search hits and
    lineage edges keep their order (bit-identity), rows do not."""
    if kind in ("query", "sql"):
        return canonical_rows(result)
    if kind == "search":
        return [(h.instance, h.name, h.all_classes) for h in result.hits]
    return [(e.source, e.target, e.rule, e.condition) for e in result.edges]


def thread_service(mdw, **overrides):
    """A 2-shard gateway over unsupervised thread-mode shards."""
    base = dict(
        n_shards=2,
        workers_per_shard=1,
        worker_mode="thread",
        supervise=False,
    )
    base.update(overrides)
    return ShardedQueryService(mdw, ShardedConfig(**base))


def mint_instances(mdw, cls, shards_wanted, n_shards):
    """Instances whose routing hash lands on the requested shards.

    Probes candidate names with the :func:`shard_of` hash, so a test
    can make consecutive chain links hash to different shards — which
    the partitioner then overrides by placing the whole lineage
    component on one shard. Names grow with each pick, so the first
    item is its component's representative.
    """
    items, names = [], []
    k = 0
    for want in shards_wanted:
        while True:
            name = f"n{k:03d}"
            k += 1
            if shard_of(mdw.facts.namespace.term(name), n_shards) == want:
                items.append(mdw.facts.add_instance(name, cls))
                names.append(name)
                break
    return items, names
