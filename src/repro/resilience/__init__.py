"""Fault tolerance for the warehouse: degraded-mode serving and
deterministic fault injection.

The productive MDW is bank infrastructure: a crashed release load must
be recoverable by re-running it, and the search/lineage services must
answer (possibly degraded) while things are on fire. This package
supplies the machinery:

* :mod:`repro.resilience.faults` — named fault points + the
  :class:`FaultInjector` (raise / delay / corrupt at any site);
* :mod:`repro.resilience.breaker` — per-endpoint circuit breakers for
  the query service.

See ``docs/resilience.md`` for the fault-point catalog and
``docs/operations.md`` for the operator-facing recovery procedure.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultInjector,
    InjectedFault,
    fault_scope,
    fire,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "FAULT_POINTS",
    "FaultInjector",
    "HALF_OPEN",
    "InjectedFault",
    "OPEN",
    "fault_scope",
    "fire",
]
