"""Concurrent query service over the warehouse (the serving tier).

The paper's productive MDW is a shared database serving many analysts
at once while release loads land. This package adds that operating mode
to the reproduction: a worker pool with bounded admission, per-request
deadlines with cooperative cancellation, snapshot-isolated reads, and
service metrics. Entry point: ``warehouse.serve()`` or
:class:`QueryService` directly; see ``docs/serving.md``.
"""

from repro.server.errors import (
    Cancelled,
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    QueryServiceError,
    ServiceClosed,
    UnknownItem,
    UnpicklableRequest,
    WorkerLost,
)
from repro.server.metrics import ServiceMetrics, SlowQuery, SlowQueryLog
from repro.server.service import QueryService, QueryTicket, ServiceConfig
from repro.server.sharding import ShardedConfig, ShardedQueryService
from repro.server.snapshot import Snapshot, SnapshotManager
from repro.server.supervisor import Supervisor, WorkerSlot

__all__ = [
    "Cancelled",
    "CircuitOpen",
    "DeadlineExceeded",
    "Overloaded",
    "QueryService",
    "QueryServiceError",
    "QueryTicket",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardedConfig",
    "ShardedQueryService",
    "SlowQuery",
    "SlowQueryLog",
    "Snapshot",
    "SnapshotManager",
    "Supervisor",
    "UnknownItem",
    "UnpicklableRequest",
    "WorkerLost",
    "WorkerSlot",
]
