"""Eviction pressure: a mapped snapshot serves queries the heap cannot.

The paper's warehouse outgrew casual caching years in; the storage
tier's answer here is the mmap snapshot — attach keeps the string pool
and triple runs on disk and lets the OS page them, so a process whose
address space cannot hold the materialized store still answers point
lookups and the Listing 1/2 use-case queries.

The test calibrates in subprocesses: one run measures the address-space
peak (``VmPeak``) of the mapped path, another of full materialization,
and a third then replays the mapped path under an ``RLIMIT_AS`` cap set
between the two — mapped queries must succeed where materializing the
same store dies of :class:`MemoryError`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="needs RLIMIT_AS and /proc/self/status",
)

#: Instances in the string-heavy dataset (long dm:hasName literals make
#: the pool big enough that mapped-vs-materialized is a wide gap).
N_INSTANCES = 15_000
_PAD = "x" * 120

#: The child exits 42 on MemoryError so the parent can tell "died of the
#: cap" from "died of a bug". ``os`` is imported before the cap is set.
_MEMORY_ERROR_EXIT = 42

_CHILD = r"""
import os
import resource
import sys

mode, path, cap = sys.argv[1], sys.argv[2], int(sys.argv[3])
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    from repro.core import MetadataWarehouse
    from repro.core.vocabulary import TERMS
    from repro.rdf.terms import Literal

    wh = MetadataWarehouse.attach_snapshot(path)
    if mode == "materialize":
        for name in wh.store.model_names():
            graph = wh.store.model(name)
            if hasattr(graph, "materialize"):
                graph.materialize()
    else:
        # point lookups straight off the mapping
        name = Literal("column_5_" + "x" * 120)
        subjects = list(wh.graph.subjects(TERMS.has_name, name))
        assert len(subjects) == 1, subjects
        assert len(list(wh.graph.triples(subjects[0], None, None))) >= 2
        # Listing 1: SEM_MATCH name search through the SQL layer
        rows = wh.sem_sql('''
            SELECT object FROM TABLE(SEM_MATCH(
                {?object dm:hasName ?term},
                SEM_MODELS('DWH_CURR'),
                null,
                SEM_ALIASES(SEM_ALIAS('dm',
                    'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
                null))
            WHERE regexp_like(term, 'column_77_', 'i')
            GROUP BY object
        ''')
        assert len(list(rows)) >= 1
        # Listing 2: one mapping hop upstream of a named item
        rows = wh.query(
            'SELECT ?source WHERE { ?item dm:hasName "column_7_' + "x" * 120
            + '" . ?source dt:isMappedTo ?item . }'
        )
        assert len(list(rows)) == 1
except MemoryError:
    # os._exit allocates nothing: raising SystemExit under the cap can hit
    # a second MemoryError and leave with exit code 1
    os._exit(42)
peak = 0
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmPeak:"):
            peak = int(line.split()[1]) * 1024
print(peak)
"""


def _run_child(mode: str, path: Path, cap: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(path), str(cap)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    from repro.core import MetadataWarehouse

    mdw = MetadataWarehouse()
    cls = mdw.schema.declare_class("Column")
    previous = None
    for i in range(N_INSTANCES):
        instance = mdw.facts.add_instance(
            f"col_{i}", cls, display_name=f"column_{i}_{_PAD}"
        )
        if previous is not None and i % 7 == 0:
            mdw.facts.add_mapping(previous, instance, rule=f"rule-{i}")
        previous = instance
    path = tmp_path_factory.mktemp("eviction") / "big.mdws"
    mdw.save_snapshot(path)
    return path


class TestEvictionPressure:
    def test_mapped_queries_survive_an_address_space_cap(self, snapshot_path):
        mapped = _run_child("mapped", snapshot_path, cap=0)
        assert mapped.returncode == 0, mapped.stderr
        materialized = _run_child("materialize", snapshot_path, cap=0)
        assert materialized.returncode == 0, materialized.stderr
        mapped_peak = int(mapped.stdout.strip())
        materialized_peak = int(materialized.stdout.strip())

        # the whole point of the mapped store: materialization needs a
        # multiple of the address space the mapped path does
        assert materialized_peak > mapped_peak * 1.5, (
            f"materialize peak {materialized_peak} not clearly above "
            f"mapped peak {mapped_peak}; dataset too small to test eviction"
        )

        cap = mapped_peak + (materialized_peak - mapped_peak) // 3

        # mapped point lookups and the Listing 1/2 queries fit the cap
        capped = _run_child("mapped", snapshot_path, cap=cap)
        assert capped.returncode == 0, (
            f"mapped queries failed under RLIMIT_AS={cap}: {capped.stderr}"
        )

        # ... while materializing the same store cannot
        denied = _run_child("materialize", snapshot_path, cap=cap)
        assert denied.returncode == _MEMORY_ERROR_EXIT, (
            f"expected MemoryError under RLIMIT_AS={cap}, got "
            f"exit {denied.returncode}: {denied.stderr}"
        )
