"""Query workloads and release feeds for the benchmark harness and tests.

A workload is a reproducible list of operations (search terms, lineage
start items) drawn from a generated landscape — the benchmarks replay
them to measure throughput and result shapes. Release feeds are small
seeded XML documents for driving ``apply_release``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.vocabulary import TERMS
from repro.rdf.terms import IRI, Literal

from repro.synth.landscape import Landscape
from repro.synth.names import BUSINESS_ENTITIES


@dataclass
class SearchWorkload:
    """Search terms plus lineage starting points for one landscape."""

    terms: List[str] = field(default_factory=list)
    business_terms: List[str] = field(default_factory=list)
    lineage_targets: List[IRI] = field(default_factory=list)
    lineage_sources: List[IRI] = field(default_factory=list)


def make_search_workload(
    landscape: Landscape,
    n_terms: int = 10,
    n_lineage: int = 10,
    seed: int = 42,
) -> SearchWorkload:
    """Draw a deterministic workload out of a landscape.

    ``terms`` are entity words that actually occur in column names
    (every search has hits); ``business_terms`` are phrased in business
    vocabulary, some of which only hit through synonym expansion (the A4
    ablation). Lineage targets are report attributes (backward audits);
    lineage sources are staging columns (forward impact, Figure 8).
    """
    rng = random.Random(seed)
    terms = [BUSINESS_ENTITIES[i % len(BUSINESS_ENTITIES)] for i in range(n_terms)]
    business_terms = ["client", "partner", "party", "trade", "deposit", "security"][
        : max(1, n_terms // 2)
    ]

    targets = list(landscape.report_attributes)
    sources = list(landscape.staging_columns)
    rng.shuffle(targets)
    rng.shuffle(sources)
    return SearchWorkload(
        terms=terms,
        business_terms=business_terms,
        lineage_targets=targets[:n_lineage],
        lineage_sources=sources[:n_lineage],
    )


# -- query-service workloads ---------------------------------------------------


@dataclass(frozen=True)
class ServiceOp:
    """One request of a service workload: a kind plus its payload.

    Shaped to feed :meth:`repro.server.QueryService.submit` directly:
    ``service.submit(op.kind, **op.payload)``.
    """

    kind: str
    payload: Dict[str, object]


#: Listing 1's shape: find items whose name matches a term, via SEM_MATCH
#: over the current model (regexp_like + GROUP BY, as in the paper).
_LISTING1_SQL = """
    SELECT object FROM TABLE(SEM_MATCH(
        {{?object dm:hasName ?term}},
        SEM_MODELS('DWH_CURR'),
        null,
        SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
        null))
    WHERE regexp_like(term, '{term}', 'i')
    GROUP BY object
"""

#: Listing 2's question ("where does this item come from?") as SPARQL:
#: one mapping hop upstream of a named item, with the mapping meta-data.
_LISTING2_SPARQL = """
    SELECT ?source ?sourceName WHERE {{
        ?item dm:hasName "{name}" .
        ?source dt:isMappedTo ?item .
        ?source dm:hasName ?sourceName .
    }}
"""


def make_service_workload(
    warehouse,
    n_ops: int = 100,
    seed: int = 42,
    include_sql: bool = True,
) -> List[ServiceOp]:
    """A deterministic mixed request stream for a query service.

    Derived from the warehouse graph itself (``dm:hasName`` values), so
    it works over a generated landscape *and* a store loaded from disk.
    The mix mirrors the paper's use cases: Listing-1-shaped SEM_MATCH
    searches and search-service calls with varying terms, Listing-2
    -shaped lineage probes (as SPARQL one-hop queries and as full
    lineage traces), and a periodic schema-browsing SPARQL query.

    ``include_sql=False`` drops the SEM_SQL ops (for services without
    the Oracle layer). The same (warehouse contents, ``n_ops``,
    ``seed``) always produces the same list.
    """
    rng = random.Random(seed)
    names = sorted(
        o.lexical
        for _, _, o in warehouse.graph.triples(None, TERMS.has_name, None)
        if isinstance(o, Literal)
    )
    if not names:
        raise ValueError("warehouse has no dm:hasName values to build a workload from")
    # short fragments make good search terms (several hits each)
    fragments = sorted({name[: max(3, len(name) // 2)] for name in rng.sample(names, min(20, len(names)))})

    ops: List[ServiceOp] = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.30 and include_sql:
            term = rng.choice(fragments)
            ops.append(ServiceOp("sql", {"sql": _LISTING1_SQL.format(term=term)}))
        elif roll < 0.55:
            name = rng.choice(names)
            ops.append(
                ServiceOp("query", {"text": _LISTING2_SPARQL.format(name=name)})
            )
        elif roll < 0.75:
            ops.append(ServiceOp("search", {"term": rng.choice(fragments)}))
        elif roll < 0.90:
            direction = "upstream" if rng.random() < 0.7 else "downstream"
            ops.append(
                ServiceOp(
                    "lineage",
                    {"item": rng.choice(names), "direction": direction, "max_depth": 4},
                )
            )
        else:
            ops.append(
                ServiceOp(
                    "query",
                    {
                        "text": (
                            "SELECT ?class (COUNT(?item) AS ?n) WHERE "
                            "{ ?item rdf:type ?class } GROUP BY ?class ORDER BY ?class"
                        )
                    },
                )
            )
    return ops


def make_scatter_workload(
    warehouse,
    n_ops: int = 100,
    seed: int = 42,
) -> List[ServiceOp]:
    """A deterministic search/lineage mix for the *sharded* gateway.

    The sharded serving tier routes only the paper's two interactive
    use cases (Listing-1 search scatter-gathers, Listing-2 lineage goes
    to the one shard holding the item's lineage component); raw
    SPARQL/SEM_SQL stays on unsharded replicas. This stream mirrors
    :func:`make_service_workload`'s
    derivation — terms and item names come from the warehouse's own
    ``dm:hasName`` values — restricted to the routable kinds, so the
    sharded benchmark and tests replay a realistic interactive mix.
    Same inputs, same list, always.
    """
    rng = random.Random(seed)
    names = sorted(
        o.lexical
        for _, _, o in warehouse.graph.triples(None, TERMS.has_name, None)
        if isinstance(o, Literal)
    )
    if not names:
        raise ValueError("warehouse has no dm:hasName values to build a workload from")
    fragments = sorted({name[: max(3, len(name) // 2)] for name in rng.sample(names, min(20, len(names)))})

    ops: List[ServiceOp] = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.60:
            ops.append(ServiceOp("search", {"term": rng.choice(fragments)}))
        else:
            direction = "upstream" if rng.random() < 0.7 else "downstream"
            ops.append(
                ServiceOp(
                    "lineage",
                    {"item": rng.choice(names), "direction": direction, "max_depth": 4},
                )
            )
    return ops


# -- release feeds ---------------------------------------------------------------

_CLASS_POOL = ["Application", "Database", "Table", "Column", "Report"]


def make_release_feeds(
    rng: random.Random, documents: int = 4, instances: int = 10
) -> List[str]:
    """Deterministic synthetic XML release feeds (classes, instances,
    links, mappings) — varied by the rng, stable for a given seed."""
    feeds: List[str] = []
    all_names: List[str] = []
    for d in range(documents):
        lines = [f'<metadata source="feed-{d}">']
        for cls in _CLASS_POOL:
            lines.append(f'  <class name="{cls}" world="technical"/>')
        lines.append('  <property name="hasOwner" world="business"/>')
        names = [f"item_{d}_{i}_{rng.randint(0, 999)}" for i in range(instances)]
        for i, name in enumerate(names):
            cls = _CLASS_POOL[rng.randrange(len(_CLASS_POOL))]
            lines.append(f'  <instance name="{name}" class="{cls}" area="integration">')
            lines.append(f'    <value property="hasOwner">owner_{rng.randint(0, 9)}</value>')
            if all_names and rng.random() < 0.6:
                target = all_names[rng.randrange(len(all_names))]
                lines.append(
                    f'    <mapping target="{target}" rule="rule-{d}-{i}" '
                    f'condition="region=\'{rng.choice("ABC")}\'"/>'
                )
            lines.append("  </instance>")
        all_names.extend(names)
        lines.append("</metadata>")
        feeds.append("\n".join(lines))
    return feeds
