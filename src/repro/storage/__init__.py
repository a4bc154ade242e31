"""Persistent storage tier: mmap-able binary snapshots and delta segments.

The in-memory substrate (:mod:`repro.rdf`) is RAM-bound and cold start
replays a full ETL or journal load. This package adds a binary
snapshot format — SPO and POS id-triple runs as fixed-width sorted
arrays, and the term dictionary as a shared offset-indexed string
pool — written atomically and loaded via ``mmap``, so point lookups and
index scans read the arrays in place without deserializing the graph.
A historized version is saved as a reverse delta against the next
newer one, and a per-release delta segment (built on
:mod:`repro.history.diff`) is the same container holding only the
delta, so publishing release N+1 is an O(delta) write. The snapshot
file is the only store format on disk.
"""

from repro.storage.codec import SnapshotFormatError, StorageError
from repro.storage.partition import (
    ShardPlan,
    changed_shards,
    partition_store,
    shard_filename,
    shard_of,
    write_shard_snapshots,
)
from repro.storage.segments import apply_segments, diff_stores, publish_segment
from repro.storage.snapshot import (
    MappedGraph,
    MappedSnapshot,
    MappedTermDictionary,
    save_snapshot_store,
)

__all__ = [
    "MappedGraph",
    "MappedSnapshot",
    "MappedTermDictionary",
    "ShardPlan",
    "SnapshotFormatError",
    "StorageError",
    "apply_segments",
    "changed_shards",
    "diff_stores",
    "partition_store",
    "publish_segment",
    "save_snapshot_store",
    "shard_filename",
    "shard_of",
    "write_shard_snapshots",
]
