"""Synthetic bank IT landscape generation.

The paper runs on Credit Suisse's real application landscape — thousands
of applications, several data warehouses, ~130,000 meta-data nodes and
~1.2 million edges per version. That data is proprietary, so this
package generates a faithful synthetic equivalent: applications with
databases, schemas, tables and columns; the three-area DWH pipeline of
Figure 2 (inbound/staging → integration → data marts) with multi-hop
mapping chains; interfaces and data flows; users and roles; the
business-concept hierarchy; and DBpedia-style synonyms. Everything is
seeded and deterministic.

Entry points::

    from repro.synth import LandscapeConfig, generate_landscape
    landscape = generate_landscape(LandscapeConfig.small(seed=7))
    landscape.warehouse.search.search("customer")
"""

from repro.synth.names import NamePool
from repro.synth.landscape import Landscape, LandscapeConfig, generate_landscape
from repro.synth.pipelines import generate_pipeline
from repro.synth.workload import (
    SearchWorkload,
    ServiceOp,
    make_release_feeds,
    make_scatter_workload,
    make_search_workload,
    make_service_workload,
)

__all__ = [
    "Landscape",
    "LandscapeConfig",
    "NamePool",
    "SearchWorkload",
    "ServiceOp",
    "generate_landscape",
    "generate_pipeline",
    "make_release_feeds",
    "make_scatter_workload",
    "make_search_workload",
    "make_service_workload",
]
